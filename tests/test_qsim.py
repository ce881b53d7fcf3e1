"""Quantum circuit simulation: acceptance identity, queries, amplification."""
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rorrlab import ortho, qsim, rorrelation
from rorrlab.qsim import (
    amplification_threshold,
    amplified_solver,
    default_repetitions,
    query_count,
    run_rorrelation_circuit,
    simulate_batch,
    simulate_circuit,
)


def identity_matrix(n):
    return ortho.OrthogonalMatrix(n=n, entries=np.eye(n), seed=None)


def test_acceptance_identity_trivial_cases():
    eye = identity_matrix(8)
    assert run_rorrelation_circuit(eye, np.ones((2, 8))) == pytest.approx(1.0)
    z = np.array([np.ones(8), -np.ones(8)])
    assert run_rorrelation_circuit(eye, z) == pytest.approx(0.0, abs=1e-12)


def test_acceptance_identity_random():
    rng = np.random.default_rng(1)
    for n in (8, 16, 32):
        for k in (2, 3, 4, 5):
            u = ortho.sample_haar(n, seed=n * 10 + k)
            z = 2 * rng.integers(0, 2, size=(k, n)) - 1
            run = simulate_circuit(u, z)
            target = (1.0 + rorrelation.phi(u, z)) / 2.0
            assert abs(run.acceptance_probability - target) <= 1e-10
            assert abs(run.branch_inner_product - rorrelation.phi(u, z)) <= 1e-10


def test_branch_inner_product_many():
    rng = np.random.default_rng(2)
    for trial in range(100):
        n = (8, 16, 32)[trial % 3]
        k = 2 + trial % 4
        u = ortho.sample_haar(n, seed=trial)
        z = 2 * rng.integers(0, 2, size=(k, n)) - 1
        run = simulate_circuit(u, z)
        assert run.branch_inner_product == pytest.approx(
            rorrelation.phi(u, z), abs=1e-10
        )


def test_norm_preserved_and_state_valid():
    u = ortho.sample_haar(16, seed=5)
    rng = np.random.default_rng(3)
    z = 2 * rng.integers(0, 2, size=(5, 16)) - 1
    run = simulate_circuit(u, z)
    assert run.max_norm_drift <= 1e-10


def test_final_norm_guard_refuses_a_drifted_state(monkeypatch):
    # One column stretched by 1 + 1e-11 passes the Gram check, but the
    # final state's norm then drifts past a tightened tolerance.
    u = ortho.sample_haar(16, seed=5)
    entries = u.entries.copy()
    entries[:, 0] *= 1.0 + 1e-11
    skew = ortho.OrthogonalMatrix(n=16, entries=entries, seed=None)
    z = 2 * np.random.default_rng(3).integers(0, 2, size=(3, 4, 16)) - 1
    simulate_batch(skew, z)
    monkeypatch.setattr(qsim, "NORM_TOL", 1e-13)
    with pytest.raises(ValueError, match="state norm drifted"):
        simulate_batch(skew, z)


def test_query_counts():
    assert query_count(2) == 1
    assert query_count(3) == 2
    assert query_count(6) == 3
    with pytest.raises(ValueError):
        query_count(1)


def test_simulator_reports_query_count():
    rng = np.random.default_rng(4)
    for k in (2, 3, 4, 5, 6):
        u = ortho.sample_haar(8, seed=k)
        z = 2 * rng.integers(0, 2, size=(k, 8)) - 1
        assert simulate_circuit(u, z).queries == query_count(k)


def test_non_power_of_two_rejected():
    # A 3x3 orthogonal matrix is fine to build but the circuit refuses it.
    theta = 0.3
    rot = np.array([
        [math.cos(theta), -math.sin(theta), 0.0],
        [math.sin(theta), math.cos(theta), 0.0],
        [0.0, 0.0, 1.0],
    ])
    u = ortho.OrthogonalMatrix(n=3, entries=rot, seed=None)
    with pytest.raises(ValueError):
        run_rorrelation_circuit(u, np.ones((2, 3)))


def test_dimension_and_value_validation():
    u = ortho.sample_haar(8, seed=0)
    with pytest.raises(ValueError):
        run_rorrelation_circuit(u, np.ones((2, 4)))
    bad = np.ones((2, 8))
    bad[0, 0] = 0.5
    with pytest.raises(ValueError):
        run_rorrelation_circuit(u, bad)
    # The circuit and phi share one shape check, so one message.
    for vectors in (np.ones(8), np.ones((1, 8)), np.ones((2, 7)), np.ones((2, 2, 8))):
        with pytest.raises(ValueError) as refused:
            rorrelation.phi(u, vectors)
        with pytest.raises(ValueError, match=re.escape(str(refused.value))):
            run_rorrelation_circuit(u, vectors)


def test_amplification_threshold():
    k = 2
    hi = (1 + 2.0**-k) / 2
    lo = (1 + 2.0 ** -(k + 1)) / 2
    assert amplification_threshold(k) == pytest.approx((hi + lo) / 2)


def test_amplified_yes_instance_always_accepts():
    # phi = 1 drives every repetition to success: accept rate 1.0 over
    # a thousand seeds at m = 100.
    eye = identity_matrix(8)
    accepted = sum(
        amplified_solver(eye, np.ones((2, 8)), repetitions=100, seed=seed).accept
        for seed in range(1000)
    )
    assert accepted == 1000


def test_amplified_no_instance_rejects():
    eye = identity_matrix(8)
    # phi = 0: half the coordinates disagree.
    z = np.array([[1, 1, 1, 1, -1, -1, -1, -1], [1, 1, -1, -1, 1, 1, -1, -1]])
    assert rorrelation.phi(eye, z) == 0.0
    reps = default_repetitions(2)
    rejected = sum(
        not amplified_solver(eye, z, repetitions=reps, seed=s).accept
        for s in range(30)
    )
    assert rejected >= 20  # spec asks for a 2/3 rejection rate


def test_amplified_single_repetition():
    eye = identity_matrix(4)
    decision = amplified_solver(eye, np.ones((2, 4)), repetitions=1, seed=0)
    # One success out of one exceeds m * alpha since alpha < 1.
    assert decision.successes == 1
    assert decision.accept
    with pytest.raises(ValueError):
        amplified_solver(eye, np.ones((2, 4)), repetitions=0, seed=0)


def test_amplified_determinism():
    u = ortho.sample_haar(8, seed=2)
    rng = np.random.default_rng(5)
    z = 2 * rng.integers(0, 2, size=(3, 8)) - 1
    a = amplified_solver(u, z, repetitions=500, seed=11)
    b = amplified_solver(u, z, repetitions=500, seed=11)
    assert a == b


def test_odd_and_even_k_split():
    # The acceptance identity holds on both parities of k, which exercises
    # the ceil(k/2) branch split.
    u = ortho.sample_haar(16, seed=9)
    rng = np.random.default_rng(6)
    for k in (2, 3):
        z = 2 * rng.integers(0, 2, size=(k, 16)) - 1
        run = simulate_circuit(u, z)
        assert run.acceptance_probability == pytest.approx(
            (1 + rorrelation.phi(u, z)) / 2, abs=1e-10
        )


@settings(max_examples=60, deadline=None)
@given(log_n=st.integers(0, 6), k=st.integers(2, 5), m=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
@example(log_n=11, k=3, m=3, seed=2026)
def test_batch_rows_match_one_row_calls(log_n, k, m, seed):
    n = 1 << log_n
    u = ortho.sample_haar(n, seed)
    rng = np.random.default_rng(seed)
    batch = (2 * rng.integers(0, 2, size=(m, k, n)) - 1).astype(np.int8)
    values = rorrelation.phi_batch(u, batch)
    prob, inner, drift = simulate_batch(u, batch)
    assert len(prob) == len(inner) == len(drift) == m
    for z, value, p, c, d in zip(batch, values, prob, inner, drift):
        one = simulate_circuit(u, z)
        assert value == rorrelation.phi(u, z)
        assert (p, c, d) == (one.acceptance_probability, one.branch_inner_product,
                             one.max_norm_drift)
        assert abs(p - (1.0 + value) / 2.0) <= 1e-10

    # Stretching one column by 1e-11 (inside the Gram tolerance) gives each
    # instance its own norm drift, so a drift shared across the batch would
    # miss the one-row value by far more than rounding.
    entries = u.entries.copy()
    entries[:, 0] *= 1.0 + 1e-11
    skew = ortho.OrthogonalMatrix(n=n, entries=entries, seed=None)
    for z, d in zip(batch, simulate_batch(skew, batch)[2]):
        one = simulate_circuit(skew, z)
        assert d == one.max_norm_drift
        assert one.queries == query_count(k)


@pytest.mark.parametrize("log_n", range(12))
def test_a_rows_values_do_not_depend_on_what_shares_its_call(log_n):
    # BLAS scores one row (gemv) or a few rows on kernels of their own, whose
    # last bits differ; rorrelation.check_batch pads every call to at least
    # 64 rows. So a row of this 100-row batch has the bits of the whole-batch
    # call alone, in short windows and in long ones that start elsewhere.
    n, k, m = 1 << log_n, (2, 3, 5)[log_n % 3], 100
    u = ortho.sample_haar(n, seed=log_n)
    rng = np.random.default_rng(log_n)
    batch = (2 * rng.integers(0, 2, size=(m, k, n)) - 1).astype(np.int8)
    whole = (rorrelation.phi_batch(u, batch), *simulate_batch(u, batch))
    for i in (0, 1, 63, 64, m - 1):
        start = max(i - 30, 0)
        for lo, hi in ((i, i + 1), (max(i - 2, 0), i + 3), (start, start + 70), (i, m)):
            part = batch[lo:hi]
            got = (rorrelation.phi_batch(u, part), *simulate_batch(u, part))
            assert [g[i - lo] for g in got] == [w[i] for w in whole], (lo, hi)
        one = simulate_circuit(u, batch[i])
        assert rorrelation.phi(u, batch[i]) == whole[0][i]
        assert [one.acceptance_probability, one.branch_inner_product,
                one.max_norm_drift] == [w[i] for w in whole[1:]]
