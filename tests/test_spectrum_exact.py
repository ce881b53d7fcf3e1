"""The mask-keyed spectrum against the tuple-keyed one it replaced.

The reference encoder, reference.reference_json, is the former
spectrum_to_json: json.dumps of the coefficients sorted by their 1-based
tuples. Subset tuples come from a scan of every bit position, independent
of the library's conversion.
"""
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import reference_json, subset_of
from rorrlab import boolfn, dtree
from rorrlab.boolfn import FourierSpectrum, OutputConvention
from rorrlab.cli import main


TREES = {
    "random-12-6": dtree.random_tree(12, 6, 0),
    "random-16-9": dtree.random_tree(16, 9, 1),
    "random-40-7": dtree.random_tree(40, 7, 2),
    "random-100-8": dtree.random_tree(100, 8, 3),
    "random-200-7": dtree.random_tree(200, 7, 4),
    "random-70-0": dtree.random_tree(70, 0, 5),
    **{f"address-{d}": dtree.make_address(d) for d in range(1, 5)},
    "address-of-majority-1": dtree.make_address_of_majority(1),
    "address-of-majority-3": dtree.make_address_of_majority(3),
    "majority-9": dtree.make_majority(9),
    "parity-wide": dtree.make_parity(130, [1, 64, 65, 129, 130]),
}


def _spectra():
    for name, tree in TREES.items():
        for convention in OutputConvention:
            yield f"{name}-{convention.value}", dtree.sparse_fourier(tree, convention)


SPECTRA = dict(_spectra())


@pytest.mark.parametrize("name", sorted(SPECTRA))
def test_spectrum_json_matches_the_tuple_encoder(name):
    spec = SPECTRA[name]
    assert boolfn.spectrum_to_json(spec) == reference_json(spec)


@pytest.mark.parametrize("name", sorted(SPECTRA))
def test_merged_and_mapped_spectra_pass_the_key_checks(name):
    # sparse_fourier's merge and convert_spectrum skip the key checks; the
    # same masks through the public constructor are accepted, with the same
    # widest mask.
    spec = SPECTRA[name]
    checked = FourierSpectrum(spec.n, dict(spec.masks))
    assert checked == spec and checked._width == spec._width
    # A key added to the tree's cached spectrum would reach its mapped image
    # unchecked: the masks are read-only.
    with pytest.raises(TypeError):
        spec.masks[1] = 1.0


def test_wide_masks_reach_past_a_machine_word():
    assert max(SPECTRA["random-200-7-pm1"].masks).bit_length() > 64
    assert max(SPECTRA["parity-wide-01"].masks) == (1 | 1 << 63 | 1 << 64 | 1 << 128 | 1 << 129)


@pytest.mark.parametrize("values", [
    [1, 2.0, -3],                                    # integers beside floats
    [0.0, -0.0, 0.5],                                # signed zeros
    [math.nan, math.inf, -math.inf, 1e-300, 1e300],  # non-finite and extreme
    [np.float64(0.25), np.float64(-0.125)],          # float subclasses
    [True, 0.5],                                     # a boolean
])
def test_hand_made_values_encode_as_json_dumps_does(values):
    spec = FourierSpectrum(12, {mask: v for mask, v in zip((0, 5, 2048, 3, 7), values)})
    assert boolfn.spectrum_to_json(spec) == reference_json(spec)


# Plain floats take the encoder's path of one text per distinct bit pattern;
# any other value sends every value through one json.dumps of the list.
_SPECIAL = st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.2e-308])
_FLOATS = st.one_of(_SPECIAL, st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
_OTHERS = st.one_of(st.integers(-2**70, 2**70), st.booleans(), _FLOATS.map(np.float64))


@st.composite
def _spectra(draw):
    width = draw(st.integers(0, 300))
    # Positions below width, and some across the word boundaries near 65,536.
    position = st.one_of(st.integers(0, max(width - 1, 0)), st.integers(65536 - 130, 65536 + 130))
    mask = st.one_of(st.integers(0, (1 << width) - 1),
                     st.sets(position, max_size=12).map(lambda bits: sum(1 << b for b in bits)))
    masks = draw(st.lists(mask, unique=True, max_size=40))
    pool = draw(st.lists(_SPECIAL, min_size=2, max_size=4)) + draw(st.lists(_FLOATS, max_size=3))
    values = st.one_of(st.sampled_from(pool), _FLOATS)  # so that values repeat
    if draw(st.booleans()):
        values = st.one_of(values, _OTHERS)
    coeffs = {m: draw(values) for m in masks}
    n = max(masks, default=0).bit_length() + draw(st.integers(0, 3))
    return FourierSpectrum(n, coeffs)


@settings(max_examples=200, deadline=None)
@given(_spectra(), st.integers(1, 5))
def test_random_spectra_encode_as_the_tuple_encoder(spec, slice_size):
    # Small slices put chunk and slice boundaries among few masks.
    with mock.patch.object(boolfn, "_SLICE", slice_size):
        assert boolfn.spectrum_to_json(spec) == reference_json(spec)
    assert boolfn.spectrum_to_json(spec) == reference_json(spec)


def test_every_subset_order_of_small_universes():
    for n in range(7):
        masks = list(range(1 << n))[::-1]
        spec = FourierSpectrum(n, {mask: float(mask) for mask in masks})
        assert boolfn.spectrum_to_json(spec) == reference_json(spec)


@pytest.mark.parametrize("name", sorted(SPECTRA))
def test_l1_level_popcount_matches_tuple_length(name):
    spec = SPECTRA[name]
    by_subset = {subset_of(mask): c for mask, c in spec.masks.items()}
    for ell in range(min(spec.n, 12) + 1):
        expected = float(sum(abs(c) for s, c in by_subset.items() if len(s) == ell))
        assert boolfn.l1_level(spec, ell) == expected


@pytest.mark.parametrize("name", sorted(SPECTRA))
def test_json_round_trip_is_exact(name):
    # Any JSON reader recovers n and every coefficient bit for bit.
    spec = SPECTRA[name]
    doc = json.loads(boolfn.spectrum_to_json(spec))
    masks = {sum(1 << i for i in entry["S"]): entry["coeff"] for entry in doc["coefficients"]}
    assert doc["n"] == spec.n and len(masks) == len(doc["coefficients"])
    assert masks == spec.masks


def test_tuple_view_matches_the_masks():
    spec = SPECTRA["address-3-pm1"]
    view = spec.coeffs
    assert len(view) == len(spec.masks)
    assert dict(view.items()) == {subset_of(mask): c for mask, c in spec.masks.items()}
    for subset, coeff in view.items():
        assert view[subset] == spec.coefficient(subset) == coeff


def test_tuple_view_lookups_behave_as_a_dict_did():
    view = FourierSpectrum(3, {0: 0.25, 0b101: -0.5}).coeffs
    assert (1, 3) in view and () in view
    for absent in [(3, 1), (1, 1), (0,), (9,), (2,), (1.0, 3), 5, "ab"]:
        assert absent not in view
        assert view.get(absent) is None
        with pytest.raises(KeyError):
            view[absent]


def test_files_hold_variables_below_the_file_limit_only():
    # A tree file declares at most MAX_FILE_VARS variables; a tree built in
    # the library may query any variable, and its spectrum is written all the same.
    var = boolfn.MAX_FILE_VARS + 1
    tree = dtree.make_dictator(var, var)
    with pytest.raises(ValueError, match="above the file limit"):
        dtree.tree_from_json(dtree.tree_to_json(tree))
    spec = dtree.sparse_fourier(tree, OutputConvention.PLUS_MINUS_ONE)
    assert spec.masks == {1 << (var - 1): 1.0}
    assert boolfn.spectrum_to_json(spec) == reference_json(spec)


def _table_file(tmp_path, bits, form):
    """The truth table of 0/1 bits as `fourier --table` reads it: one +-1
    value per CSV line, or one 0/1 byte per position."""
    if form == "csv":
        path = tmp_path / "f.csv"
        path.write_text("".join(f"{2 * int(b) - 1}\n" for b in bits))
    else:
        path = tmp_path / "f.bin"
        path.write_bytes(bits.astype(np.uint8).tobytes())
    return path


@pytest.mark.parametrize("n", [0, 1, 3, 6])
@pytest.mark.parametrize("form", ["csv", "bytes"])
def test_fourier_table_output_matches_the_tuple_encoder(n, form, tmp_path, capsys):
    bits = np.random.default_rng(n).integers(0, 2, 1 << n)
    path = _table_file(tmp_path, bits, form)
    values = 2.0 * bits - 1.0 if form == "csv" else bits.astype(float)
    assert main(["fourier", "--table", str(path)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.rstrip("\n") == reference_json(boolfn.fourier_from_truth_table(values, n))


@pytest.mark.parametrize("form", ["csv", "bytes"])
@pytest.mark.parametrize("convention", ["01", "pm1"])
def test_fourier_table_honours_an_explicit_convention(form, convention, tmp_path, capsys):
    # A random table at n = 4, then constant tables at n = 3 and n = 0.
    for bits in (np.random.default_rng(7).integers(0, 2, 16), np.zeros(8, int),
                 np.ones(8, int), np.zeros(1, int), np.ones(1, int)):
        n = bits.size.bit_length() - 1
        path = _table_file(tmp_path, bits, form)
        values = bits.astype(float) if convention == "01" else 2.0 * bits - 1.0
        assert main(["fourier", "--table", str(path), "--convention", convention]) == 0
        stdout = capsys.readouterr().out
        assert stdout.rstrip("\n") == reference_json(boolfn.fourier_from_truth_table(values, n))
        if convention == "01" and not bits.any():  # the mapped empty-set coefficient 0 is dropped
            assert json.loads(stdout)["coefficients"] == []
