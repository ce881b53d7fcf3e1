"""Fourier arithmetic over the +-1 cube."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (convert_convention, evaluate_multilinear, truth_table_index,
                       validate_bit_vector)
from rorrlab import boolfn
from rorrlab.boolfn import (
    OutputConvention,
    fourier_from_truth_table,
    l1_level,
    point_from_index,
    spectrum_to_json,
)


def brute_force_coefficient(values, n, subset):
    """Independent oracle: f_hat(S) = E_x[f(x) chi_S(x)] by enumeration."""
    total = 0.0
    for b in range(1 << n):
        x = point_from_index(b, n)
        chi = 1
        for i in subset:
            chi *= int(x[i - 1])
        total += values[b] * chi
    return total / (1 << n)


def test_constant_function():
    spec = fourier_from_truth_table([1.0] * 4, 2)
    assert spec.coeffs == {(): 1.0}


def test_dictator():
    # f(x) = x_1 on one variable: position 0 is x=+1, position 1 is x=-1.
    spec = fourier_from_truth_table([1.0, -1.0], 1)
    assert spec.coeffs == {(1,): 1.0}


def test_zero_one_affine():
    # f = (1 + x_1)/2 has spectrum {(): 1/2, {1}: 1/2}.
    spec = fourier_from_truth_table([1.0, 0.0], 1)
    assert spec.coeffs == {(): 0.5, (1,): 0.5}


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(5)
    n = 4
    values = rng.standard_normal(1 << n)
    spec = fourier_from_truth_table(values, n)
    for bits in range(1 << n):
        subset = tuple(i + 1 for i in range(n) if (bits >> i) & 1)
        assert spec.coefficient(subset) == pytest.approx(
            brute_force_coefficient(values, n, subset), abs=1e-9
        )


def test_walsh_hadamard_butterfly_unitary():
    # Scaled by 1/sqrt(N) the butterfly is the unitary Hadamard layer: it
    # keeps the norm and is its own inverse.
    rng = np.random.default_rng(0)
    v = rng.standard_normal(32)
    w = boolfn.walsh_hadamard_inplace(v.copy()) / math.sqrt(32)
    assert np.linalg.norm(w) == pytest.approx(np.linalg.norm(v))
    assert np.allclose(boolfn.walsh_hadamard_inplace(w.copy()) / math.sqrt(32), v)
    for size in (0, 3, 12):
        with pytest.raises(ValueError, match="power of two"):
            boolfn.walsh_hadamard_inplace(np.ones(size))


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        fourier_from_truth_table([1.0, 1.0, 1.0], 2)


def test_transform_size_guard():
    with pytest.raises(ValueError):
        fourier_from_truth_table([1.0], 25)


def test_l1_level_parity():
    # Parity of {1,2} with +-1 outputs: a single level-2 coefficient.
    values = [1.0, -1.0, -1.0, 1.0]
    spec = fourier_from_truth_table(values, 2)
    assert l1_level(spec, 2) == pytest.approx(1.0)
    assert l1_level(spec, 1) == pytest.approx(0.0)


def test_l1_level_majority3():
    values = []
    for b in range(8):
        x = point_from_index(b, 3)
        values.append(1.0 if x.sum() > 0 else -1.0)
    spec = fourier_from_truth_table(values, 3)
    # Each singleton coefficient is 1/2.
    assert l1_level(spec, 1) == pytest.approx(1.5)


def test_l1_level_range_check():
    spec = fourier_from_truth_table([1.0] * 4, 2)
    with pytest.raises(ValueError):
        l1_level(spec, 3)
    with pytest.raises(ValueError):
        l1_level(spec, -1)


def test_evaluate_constant_and_dictator():
    assert evaluate_multilinear(boolfn.FourierSpectrum(2, {0: 1.0}), [1, -1]) == 1.0
    assert evaluate_multilinear(boolfn.FourierSpectrum(1, {0b1: 1.0}), [-1]) == -1.0


def test_evaluate_majority3():
    values = []
    for b in range(8):
        x = point_from_index(b, 3)
        values.append(1.0 if x.sum() > 0 else -1.0)
    spec = fourier_from_truth_table(values, 3)
    assert evaluate_multilinear(spec, [1, 1, -1]) == pytest.approx(1.0, abs=1e-9)


def test_evaluate_dimension_mismatch():
    spec = fourier_from_truth_table([1.0, -1.0], 1)
    with pytest.raises(ValueError):
        evaluate_multilinear(spec, [1, 1])


def test_round_trip_random_functions():
    rng = np.random.default_rng(11)
    for n in (1, 3, 6, 10):
        values = 2.0 * rng.integers(0, 2, size=1 << n) - 1.0
        spec = fourier_from_truth_table(values, n)
        for b in range(0, 1 << n, max(1, (1 << n) // 64)):
            x = point_from_index(b, n)
            assert evaluate_multilinear(spec, x) == pytest.approx(values[b], abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**32 - 1))
def test_parseval_plus_minus_one(n, seed):
    rng = np.random.default_rng(seed)
    values = 2.0 * rng.integers(0, 2, size=1 << n) - 1.0
    spec = fourier_from_truth_table(values, n)
    assert sum(c * c for c in spec.masks.values()) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
def test_parseval_zero_one(n, seed):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2, size=1 << n).astype(float)
    spec = fourier_from_truth_table(values, n)
    # For 0/1 outputs, the squared mass equals the empty coefficient.
    assert sum(c * c for c in spec.masks.values()) == pytest.approx(spec.coefficient(()),
                                                                    abs=1e-9)


def test_convention_conversion_round_trip():
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, size=16).astype(float)
    zero_one = fourier_from_truth_table(bits, 4)
    pm = convert_convention(zero_one, OutputConvention.ZERO_ONE,
                            OutputConvention.PLUS_MINUS_ONE)
    direct = fourier_from_truth_table(2.0 * bits - 1.0, 4)
    keys = set(pm.coeffs) | set(direct.coeffs)
    for key in keys:
        assert pm.coefficient(key) == pytest.approx(direct.coefficient(key), abs=1e-12)
    back = convert_convention(pm, OutputConvention.PLUS_MINUS_ONE,
                              OutputConvention.ZERO_ONE)
    for key in set(back.coeffs) | set(zero_one.coeffs):
        assert back.coefficient(key) == pytest.approx(zero_one.coefficient(key), abs=1e-12)


def test_convention_l1_factor_two():
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2, size=32).astype(float)
    zero_one = fourier_from_truth_table(bits, 5)
    pm = convert_convention(zero_one, OutputConvention.ZERO_ONE,
                            OutputConvention.PLUS_MINUS_ONE)
    for ell in range(1, 6):
        assert l1_level(zero_one, ell) == pytest.approx(0.5 * l1_level(pm, ell), abs=1e-12)


def test_truth_table_index_round_trip():
    for n in (1, 3, 5):
        for b in range(1 << n):
            assert truth_table_index(point_from_index(b, n)) == b
        # An array of positions gives the same points, one per row.
        rows = point_from_index(np.arange(1 << n), n)
        assert rows.dtype == np.int8
        assert [truth_table_index(x) for x in rows] == list(range(1 << n))


def test_spectrum_json_round_trip():
    # Files list 0-based indices; the API speaks 1-based tuples.
    spec = boolfn.FourierSpectrum(3, {0: 0.25, 0b101: -0.5})
    doc = json.loads(spectrum_to_json(spec))
    assert doc == {"n": 3, "coefficients": [{"S": [], "coeff": 0.25},
                                            {"S": [0, 2], "coeff": -0.5}]}
    assert {tuple(i + 1 for i in e["S"]): e["coeff"] for e in doc["coefficients"]} == spec.coeffs


@pytest.mark.parametrize("subset, message", [
    ([1, 1], "repeats"), ([0], "outside"), ([9], "outside"), ([2, 3, 2], "repeats")])
def test_coefficient_refuses_nonsense_subsets(subset, message):
    spec = boolfn.FourierSpectrum(3, {0: 0.25, 0b101: -0.5})
    with pytest.raises(ValueError, match=message):
        spec.coefficient(subset)
    assert spec.coefficient([3, 1]) == -0.5
    assert spec.coefficient([2]) == 0.0


def test_spectrum_masks_are_validated():
    for n, masks in ((2, {4: 1.0}), (2, {8: 1.0}), (3, {-1: 1.0}), (3, {(1,): 1.0}),
                     (3, {True: 1.0})):
        with pytest.raises(ValueError, match="subset"):
            boolfn.FourierSpectrum(n, masks)
    # A huge n is compared by bit length, never by building 1 << n.
    spec = boolfn.FourierSpectrum(10**30, {1 << 100: 1.0})
    assert spec.coefficient([101]) == 1.0
    assert spec.coefficient([10**29]) == 0.0


def test_spectrum_json_of_a_huge_variable_count():
    spec = boolfn.FourierSpectrum(10**30, {1 << (boolfn.MAX_FILE_VARS - 1) | 1: 0.5})
    assert json.loads(spectrum_to_json(spec)) == {
        "n": 10**30, "coefficients": [{"S": [0, boolfn.MAX_FILE_VARS - 1], "coeff": 0.5}]}


def test_truth_table_files(tmp_path):
    bits = np.array([0, 1, 1, 0], dtype=np.int8)
    p = tmp_path / "table.bin"
    p.write_bytes(bits.astype(np.uint8).tobytes())
    assert np.array_equal(boolfn.read_truth_table_bytes(p), bits)

    signs = np.array([1, -1, -1, 1], dtype=np.int8)
    c = tmp_path / "table.csv"
    c.write_text("1\n-1\n-1\n1\n")
    assert np.array_equal(boolfn.read_truth_table_csv(c), signs)


def test_bit_vector_validation():
    with pytest.raises(ValueError):
        validate_bit_vector([1, 0, -1])
    with pytest.raises(ValueError):
        validate_bit_vector([])


def test_binomial_outside_range():
    assert boolfn.binomial(3, -1) == 0.0
    assert boolfn.binomial(3, 4) == 0.0
    assert boolfn.binomial(5, 2) == float(math.comb(5, 2))
