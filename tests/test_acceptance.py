"""Acceptance gate: every committed criterion at its stated tolerance.

Each test runs one criterion at the full sample counts and prints a
pass/fail line; stated runtime caps are asserted where the criterion
carries one.
"""
import json
from collections import Counter

import numpy as np
import pytest

from reference import sign_correlation_whole
from rorrlab import dtree, ortho, util, verify
from rorrlab.util import MC_CHUNK
from rorrlab.verify import (
    CheckResult,
    VerifyConfig,
    build_manifest,
    manifest_to_json,
    run_all,
    run_check,
    strip_timing,
)

FULL = VerifyConfig()


def report(number: int, result: CheckResult) -> None:
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {number:02d} {result.name} "
          f"({result.runtime_seconds:.2f}s)")


def test_criterion_01_quantum_identity():
    result = run_check("quantum_identity", FULL)
    report(1, result)
    assert result.details["trials"] == 200
    assert result.details["worst_abs_error"] <= 1e-10
    assert result.runtime_seconds < 10.0
    assert result.passed


def test_criterion_02_sign_correlation():
    result = run_check("sign_correlation", FULL)
    report(2, result)
    assert len(result.details["rows"]) == 7
    assert result.runtime_seconds < 30.0
    assert result.passed


@pytest.mark.parametrize("samples", [2, MC_CHUNK + 3], ids=["two", "one-chunk-and-three"])
def test_sign_correlation_in_chunks_equals_one_whole_draw(samples):
    result = run_check("sign_correlation", VerifyConfig(seed=4, sign_corr_samples=samples))
    for i, row in enumerate(result.details["rows"]):
        assert (row["estimate"], row["stderr"]) == sign_correlation_whole(4, samples, i, row["rho"])


def test_criterion_03_expected_phi():
    result = run_check("expected_phi", FULL)
    report(3, result)
    assert result.details["floor_satisfied"]
    assert all(row["passed"] for row in result.details["monte_carlo"])
    assert result.runtime_seconds < 300.0
    assert result.passed


def test_criterion_04_uniform_variance():
    result = run_check("uniform_variance", FULL)
    report(4, result)
    assert result.details["worst_exact_error"] <= 1e-9
    assert result.details["empirical_passed"]
    assert result.passed


def test_criterion_05_moment_structure():
    result = run_check("moment_structure", FULL)
    report(5, result)
    assert result.details["small_sets_exactly_zero"]
    assert result.details["odd_parity_exactly_zero"]
    assert all(row["violations"] == 0 for row in result.details["audits"])
    assert result.passed


def test_criterion_06_fourier_decomposition():
    result = run_check("fourier_decomposition", FULL)
    report(6, result)
    assert result.details["trees"] == 100
    assert result.details["worst_abs_gap"] <= 1e-9
    assert result.runtime_seconds < 60.0
    assert result.passed


def test_criterion_07_level_bounds():
    result = run_check("level_bounds", FULL)
    report(7, result)
    assert result.details["binom_bound_ok"]
    assert result.details["level1_ok"]
    assert result.details["level_ell_ok"]
    assert result.details["max_binom_ratio"] <= 1.0
    # The level-1 proof chain ran on every tree of depth >= 1 (all but const1).
    assert result.details["level1_chain_trees"] == result.details["trees"] - 1 == 108
    assert result.details["relabel_nonnegative_ok"]
    assert result.details["refined_dominates_level1_ok"]
    assert result.details["relabeled_level1_exact_ok"]
    assert result.details["refined_bound_ok"]
    assert result.details["max_level1_ratio"] <= result.details["max_refined_ratio"] <= 1.0
    assert result.passed


@pytest.mark.parametrize("seed", [*range(12), 2026])
def test_level_bounds_passes_at_every_reduced_seed(seed):
    result = run_check("level_bounds", VerifyConfig.reduced(seed))
    assert result.details["level1_chain_trees"] == 28
    assert result.passed, result.details


def test_level_bounds_fails_without_the_relabeling(monkeypatch):
    # A relabeling that changes nothing leaves negative next-variable
    # coefficients, so the proof chain must fail the check.
    monkeypatch.setattr(dtree, "relabel_nonnegative", lambda tree: tree)
    result = run_check("level_bounds", VerifyConfig.reduced())
    assert not result.details["relabel_nonnegative_ok"]
    assert not result.details["relabeled_level1_exact_ok"]
    assert not result.passed


def test_criterion_08_address_exactness():
    result = run_check("address_exactness", FULL)
    report(8, result)
    assert result.details["exact_equalities"]
    assert result.details["mismatches"] == []
    assert result.details["composition_best_ratio"] >= 1.2
    assert result.passed


def test_criterion_09_goodness():
    result = run_check("goodness", FULL)
    report(9, result)
    for row in result.details["haar"]:
        assert row["violations"] == 0
    assert result.details["hadamard_norm"] == 1.0
    assert result.details["hadamard_bound"] == pytest.approx(0.663, abs=0.001)
    assert result.details["identity_flagged"]
    assert result.passed


def test_criterion_10_tail_bounds():
    result = run_check("tail_bounds", FULL)
    report(10, result)
    assert result.details["trials"] == 10_000
    for row in result.details["rows"]:
        assert row["gaussian_passed"] and row["subgaussian_passed"]
    assert result.passed


def test_criterion_11_distinguishing_sanity():
    result = run_check("distinguishing_sanity", FULL)
    report(11, result)
    for row in result.details["null_trees"]:
        assert row["const_ok"] and row["dictator_ok"]
    for row in result.details["arcsine_tree"]:
        assert row["passed"]
    for row in result.details["envelope"]:
        assert row["passed"], row
    assert result.passed


def test_criterion_12_determinism():
    # Two full manifest builds from one config are byte-identical once
    # timing is excluded.
    cfg = VerifyConfig.reduced()
    names = ["quantum_identity", "sign_correlation", "expected_phi", "uniform_variance",
             "moment_structure", "goodness", "distinguishing_sanity", "determinism"]
    first = manifest_to_json(strip_timing(build_manifest(cfg, run_all(cfg, names))))
    second = manifest_to_json(strip_timing(build_manifest(cfg, run_all(cfg, names))))
    passed = first == second
    print(f"[{'PASS' if passed else 'FAIL'}] criterion 12 determinism")
    assert first.encode() == second.encode()
    in_process = run_check("determinism", cfg)
    report(12, in_process)
    assert in_process.passed


def test_reduced_manifest_does_not_depend_on_the_chunk_size(monkeypatch):
    # A row's phi and circuit values have the same bits in any block (the row
    # floor of rorrelation.check_batch) and the samplers' streams do not
    # depend on their blocks, so the reduced manifest is the same when
    # MC_CHUNK cuts every pass into blocks of 256 entries or of 2^21.
    cfg = VerifyConfig.reduced(3)

    def manifest() -> str:
        return manifest_to_json(strip_timing(build_manifest(cfg, run_all(cfg))))

    default = manifest()
    for chunk in (256, 1 << 21):
        monkeypatch.setattr(util, "MC_CHUNK", chunk)
        assert manifest() == default, chunk


def test_ephi_matrices_built_once_per_run(monkeypatch):
    # expected_phi and uniform_variance read the same (n, k, s) matrices;
    # one run builds each of them once.
    cfg = VerifyConfig.reduced()
    builds = Counter()
    sample_haar = ortho.sample_haar
    monkeypatch.setattr(ortho, "sample_haar",
                        lambda n, seed: builds.update([(n, seed)]) or sample_haar(n, seed))
    results = run_all(cfg, ["expected_phi", "uniform_variance"])
    assert all(r.passed for r in results)
    # 6 (n, k) cells of cfg.expected_phi_seeds matrices, plus the three
    # Monte-Carlo matrices (ephi-mc for k = 2, 3 and uvar-mc).
    assert len(builds) == 6 * cfg.expected_phi_seeds + 3
    assert set(builds.values()) == {1}
    # A second run in the same process computes afresh.
    builds.clear()
    run_all(cfg, ["uniform_variance"])
    assert len(builds) == 6 * cfg.expected_phi_seeds + 1


def test_run_all_refuses_an_unknown_check_before_running_any(monkeypatch):
    ran = []
    monkeypatch.setitem(verify.CHECK_NAMES, "quantum_identity",
                        lambda cfg, shared: ran.append(cfg) or (True, {}))
    with pytest.raises(ValueError, match="nope"):
        run_all(VerifyConfig.reduced(), ["quantum_identity", "nope"])
    assert ran == []


def test_run_check_names_times_and_converts_every_result(monkeypatch):
    # Checks return (passed, details); run_check names each result after
    # its CHECK_NAMES key, times it and converts numpy values to plain ones.
    for name in verify.CHECK_NAMES:
        monkeypatch.setitem(verify.CHECK_NAMES, name, lambda cfg, shared: (
            np.bool_(True), {"value": np.float64(0.5), "rows": (np.int64(1),)}))
    names = ["goodness", "quantum_identity", "determinism", "level_bounds"]
    results = run_all(VerifyConfig.reduced(), names)
    assert [r.name for r in results] == names
    assert list(build_manifest(VerifyConfig.reduced(), results)["timing"]["per_check"]) == names
    for r in results:
        assert r.passed is True and r.runtime_seconds >= 0.0
        assert r.details == {"value": 0.5, "rows": [1]}
        assert type(r.details["value"]) is float and type(r.details["rows"][0]) is int
