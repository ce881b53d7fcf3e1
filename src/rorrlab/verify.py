"""The acceptance suite: every quantitative claim the laboratory commits
to, as named checks shared by the CLI (verify-paper) and the test suite.

Each check returns a CheckResult with a verdict and the measured
quantities; sample counts and tolerances default to the committed
values. A reduced configuration exists for smoke runs and the
determinism check; it changes sample counts only, never tolerances.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import __version__, boolfn, dist, distinguish, dtree, ortho, qsim, rorrelation
from .boolfn import OutputConvention, binomial
from .util import derive_rng, json_int, mean_and_stderr, sub_seed, variance_and_stderr

__all__ = ["VerifyConfig", "CheckResult", "run_check", "run_all", "build_manifest",
           "manifest_to_json", "strip_timing", "CHECK_NAMES"]


# Counts behind a standard error need two samples; every other count one.
_MIN_COUNTS = {"uniform_var_samples": 2, "moment_mc_samples": 2, "advantage_samples": 2}


@dataclass(frozen=True)
class VerifyConfig:
    seed: int = 2026
    quantum_triples: int = 200
    sign_corr_samples: int = 1_000_000
    expected_phi_seeds: int = 100
    mc_mean_samples: int = 100_000
    uniform_var_samples: int = 100_000
    moment_sets: int = 200
    moment_mc_samples: int = 10_000
    decomposition_trees: int = 100
    corpus_random_trees: int = 100
    goodness_pairs: int = 10_000
    tail_trials: int = 10_000
    advantage_samples: int = 10_000

    def __post_init__(self):
        for f in fields(self):
            value = json_int(getattr(self, f.name), f"config key {f.name!r}")
            low = _MIN_COUNTS.get(f.name, 1)
            if f.name != "seed" and value < low:
                raise ValueError(f"config key {f.name!r} must be at least {low}, got {value}")

    def with_overrides(self, overrides) -> "VerifyConfig":
        """This configuration with fields replaced from a parsed JSON object."""
        if not isinstance(overrides, dict):
            raise ValueError("config must be a JSON object of field overrides")
        unknown = set(overrides) - set(asdict(self))
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        return replace(self, **overrides)

    @classmethod
    def reduced(cls, seed: int = 2026) -> "VerifyConfig":
        """Smaller sample counts for smoke and determinism runs."""
        return cls(
            seed=seed,
            quantum_triples=40,
            sign_corr_samples=50_000,
            expected_phi_seeds=10,
            mc_mean_samples=20_000,
            uniform_var_samples=20_000,
            moment_sets=30,
            moment_mc_samples=4_000,
            decomposition_trees=20,
            corpus_random_trees=20,
            goodness_pairs=1_000,
            tail_trials=2_000,
            advantage_samples=4_000,
        )

    def config_hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass
class CheckResult:
    name: str
    passed: bool
    runtime_seconds: float
    details: dict


def _plain(value):
    """Recursively convert numpy scalars/arrays to plain Python types."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    return value


def _result(name: str, passed: bool, started: float, **details) -> CheckResult:
    return CheckResult(
        name=name,
        passed=bool(passed),
        runtime_seconds=time.perf_counter() - started,
        details=_plain(details),
    )


# ---------------------------------------------------------------------------
# 1. Quantum identity: circuit acceptance equals (1 + phi)/2 to 1e-10
# ---------------------------------------------------------------------------

def check_quantum_identity(cfg: VerifyConfig) -> CheckResult:
    started = time.perf_counter()
    rng = derive_rng(cfg.seed, "accept-quantum")
    grid = list(itertools.product((8, 16, 32), (2, 3, 4, 5)))
    worst = 0.0
    trials = 0
    for trial in range(cfg.quantum_triples):
        n, k = grid[trial % len(grid)]
        u = ortho.sample_haar(n, sub_seed(cfg.seed, "q-matrix", trial))
        z = (2 * rng.integers(0, 2, size=(k, n)) - 1).astype(np.int8)
        prob = qsim.run_rorrelation_circuit(u, z)
        target = (1.0 + rorrelation.phi(u, z)) / 2.0
        worst = max(worst, abs(prob - target))
        trials += 1
    return _result(
        "quantum_identity", worst <= 1e-10, started,
        trials=trials, worst_abs_error=worst, tolerance=1e-10,
    )


# ---------------------------------------------------------------------------
# 2. Sign-correlation closed form at a correlation grid
# ---------------------------------------------------------------------------

def check_sign_correlation(cfg: VerifyConfig) -> CheckResult:
    started = time.perf_counter()
    rows = []
    ok = True
    for i, rho in enumerate((0.0, 0.3, -0.3, 0.7, -0.7, 0.95, -0.95)):
        rng = derive_rng(cfg.seed, "accept-signcorr", i)
        z1 = rng.standard_normal(cfg.sign_corr_samples)
        z2 = rng.standard_normal(cfg.sign_corr_samples)
        x = z1
        y = rho * z1 + math.sqrt(1.0 - rho * rho) * z2
        prods = np.where(x >= 0, 1.0, -1.0) * np.where(y >= 0, 1.0, -1.0)
        mean, stderr = mean_and_stderr(prods)
        target = rorrelation.sign_correlation(rho)
        passed = abs(mean - target) <= 4.0 * stderr
        ok &= passed
        rows.append({"rho": rho, "estimate": mean, "stderr": stderr,
                     "closed_form": target, "passed": passed})
    return _result("sign_correlation", ok, started, rows=rows)


# ---------------------------------------------------------------------------
# 3. Expected Rorrelation under the chain distribution
# ---------------------------------------------------------------------------

def check_expected_phi(cfg: VerifyConfig) -> CheckResult:
    started = time.perf_counter()
    floor_ok = True
    worst_gap = float("inf")
    for n, k in itertools.product((64, 128), (2, 3, 4)):
        floor = (2.0 / math.pi) ** (k - 1)
        for s in range(cfg.expected_phi_seeds):
            u = ortho.sample_haar(n, sub_seed(cfg.seed, "ephi", n, k, s))
            value = rorrelation.exact_expected_phi(u, k)
            worst_gap = min(worst_gap, value - floor)
            if value < floor:
                floor_ok = False
    mc_rows = []
    mc_ok = True
    for k in (2, 3):
        u = ortho.sample_haar(64, sub_seed(cfg.seed, "ephi-mc", k))
        exact = rorrelation.exact_expected_phi(u, k)
        batch = dist.sample_duk_batch(u, k, cfg.mc_mean_samples, sub_seed(cfg.seed, "ephi-mc-b", k))
        values = rorrelation.phi_batch(u, batch)
        mean, stderr = mean_and_stderr(values)
        passed = abs(mean - exact) <= 4.0 * stderr
        mc_ok &= passed
        mc_rows.append({"k": k, "exact": exact, "estimate": mean,
                        "stderr": stderr, "passed": passed})
    return _result(
        "expected_phi", floor_ok and mc_ok, started,
        floor_satisfied=floor_ok, worst_gap_above_floor=worst_gap, monte_carlo=mc_rows,
    )


# ---------------------------------------------------------------------------
# 4. Uniform variance is exactly 1/N, and empirically so
# ---------------------------------------------------------------------------

def check_uniform_variance(cfg: VerifyConfig) -> CheckResult:
    started = time.perf_counter()
    exact_ok = True
    worst = 0.0
    for n, k in itertools.product((64, 128), (2, 3, 4)):
        for s in range(cfg.expected_phi_seeds):
            u = ortho.sample_haar(n, sub_seed(cfg.seed, "ephi", n, k, s))
            err = abs(rorrelation.exact_uniform_variance(u, k) - 1.0 / n)
            worst = max(worst, err)
            if err > 1e-9:
                exact_ok = False
    u = ortho.sample_haar(64, sub_seed(cfg.seed, "uvar-mc"))
    batch = dist.sample_uniform_batch(2, 64, cfg.uniform_var_samples,
                                      sub_seed(cfg.seed, "uvar-mc-b"))
    values = rorrelation.phi_batch(u, batch)
    var, var_stderr = variance_and_stderr(values)
    empirical_ok = abs(var - 1.0 / 64) <= 4.0 * var_stderr
    return _result(
        "uniform_variance", exact_ok and empirical_ok, started,
        worst_exact_error=worst, empirical_variance=var,
        empirical_stderr=var_stderr, target=1.0 / 64, empirical_passed=empirical_ok,
    )


# ---------------------------------------------------------------------------
# 5. Moment structure: parity zeros and the good-matrix budget
# ---------------------------------------------------------------------------

def check_moment_structure(cfg: VerifyConfig) -> CheckResult:
    started = time.perf_counter()
    rng = derive_rng(cfg.seed, "accept-moments")
    u256 = {k: ortho.sample_haar(256, sub_seed(cfg.seed, "moments", k)) for k in (2, 3)}

    small_zero_ok = True
    for k in (2, 3):
        for _ in range(50):
            size = int(rng.integers(1, k))
            global_set = rng.choice(k * 256, size=size, replace=False) + 1
            parts = dist.split_global_set([int(g) for g in global_set], k, 256)
            est = dist.d_hat_product(u256[k], parts, seed=cfg.seed)
            if est.value != 0.0 or not est.exact:
                small_zero_ok = False

    odd_zero_ok = True
    for trial in range(25):
        sizes = (int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        if sum(sizes) % 2 == 0:
            sizes = (sizes[0], sizes[1] + 1)
        s = [int(v) + 1 for v in rng.choice(256, size=sizes[0], replace=False)]
        t = [int(v) + 1 for v in rng.choice(256, size=sizes[1], replace=False)]
        est = dist.u_tilde_mc(u256[2], s, t, 64, sub_seed(cfg.seed, "odd", trial))
        if est.value != 0.0 or est.stderr != 0.0:
            odd_zero_ok = False

    audit_ok = True
    audit_rows = []
    for k in (2, 3):
        report = dist.moment_bound_audit(
            u256[k], k, trials=cfg.moment_sets, max_size=2 * k,
            seed=sub_seed(cfg.seed, "audit", k), mc_samples=cfg.moment_mc_samples,
        )
        audit_ok &= not report.violations
        audit_rows.append({"k": k, "sets": len(report.rows),
                           "worst_margin": report.worst_margin,
                           "violations": len(report.violations)})
    return _result(
        "moment_structure", small_zero_ok and odd_zero_ok and audit_ok, started,
        small_sets_exactly_zero=small_zero_ok, odd_parity_exactly_zero=odd_zero_ok,
        audits=audit_rows,
    )


# ---------------------------------------------------------------------------
# 6. Decomposition identity on a random tree corpus
# ---------------------------------------------------------------------------

def check_fourier_decomposition(cfg: VerifyConfig) -> CheckResult:
    started = time.perf_counter()
    rng = derive_rng(cfg.seed, "accept-decomp")
    worst = 0.0
    checked = 0
    for t in range(cfg.decomposition_trees):
        n = int(rng.integers(4, 9))
        d = int(rng.integers(1, min(n, 6) + 1))
        tree = dtree.random_tree(n, d, sub_seed(cfg.seed, "decomp-tree", t))
        for bits in range(1, 1 << n):
            subset = tuple(i + 1 for i in range(n) if (bits >> i) & 1)
            lhs, rhs = dtree.decomposition_sides(tree, subset)
            worst = max(worst, abs(lhs - rhs))
            checked += 1
    return _result(
        "fourier_decomposition", worst <= 1e-9, started,
        trees=cfg.decomposition_trees, identities_checked=checked,
        worst_abs_gap=worst, tolerance=1e-9,
    )


# ---------------------------------------------------------------------------
# 7. Level bounds over the tree corpus
# ---------------------------------------------------------------------------

def _bound_corpus(cfg: VerifyConfig) -> list[tuple[str, dtree.DecisionTree]]:
    corpus: list[tuple[str, dtree.DecisionTree]] = [
        ("const1", dtree.make_constant(4, 1)),
        ("dictator", dtree.make_dictator(4, 1)),
        ("parity2", dtree.make_parity(4, [1, 2])),
        ("parity4", dtree.make_parity(4, [1, 2, 3, 4])),
        ("maj3", dtree.make_majority(3)),
        ("maj5", dtree.make_majority(5)),
        ("addr2", dtree.make_address(2)),
        ("addr3", dtree.make_address(3)),
        ("addr-maj3", dtree.make_address_of_majority(3)),
    ]
    rng = derive_rng(cfg.seed, "accept-corpus")
    for t in range(cfg.corpus_random_trees):
        n = int(rng.integers(4, 9))
        d = int(rng.integers(1, min(n, 6) + 1))
        corpus.append(
            (f"random-{t}", dtree.random_tree(n, d, sub_seed(cfg.seed, "corpus-tree", t)))
        )
    return corpus


def check_level_bounds(cfg: VerifyConfig) -> CheckResult:
    started = time.perf_counter()
    binom_ok = level1_ok = levelell_ok = True
    worst_binom = worst_l1 = worst_lell = 0.0
    trees = 0
    for name, tree in _bound_corpus(cfg):
        trees += 1
        spec = dtree.sparse_fourier(tree, OutputConvention.ZERO_ONE)
        p = dtree.acceptance_probability(tree)
        d = tree.depth
        for ell in range(0, tree.n + 1):
            l1 = boolfn.l1_level(spec, ell)
            cap = binomial(d, ell)
            if l1 > cap + 1e-9:
                binom_ok = False
            if cap > 0:
                worst_binom = max(worst_binom, l1 / cap)
            if ell == 1:
                bound = dtree.level1_bound(d, p, constant=10.0)
                if l1 > bound + 1e-12:
                    level1_ok = False
                if bound > 0:
                    worst_l1 = max(worst_l1, l1 / bound)
            if 1 <= ell <= d:
                bound = dtree.level_ell_bound(d, tree.n, p, ell, constant=32.0)
                if l1 > bound + 1e-12:
                    levelell_ok = False
                if bound > 0:
                    worst_lell = max(worst_lell, l1 / bound)
    return _result(
        "level_bounds", binom_ok and level1_ok and levelell_ok, started,
        trees=trees, binom_bound_ok=binom_ok, max_binom_ratio=worst_binom,
        level1_ok=level1_ok, max_level1_ratio=worst_l1,
        level_ell_ok=levelell_ok, max_level_ell_ratio=worst_lell,
    )


# ---------------------------------------------------------------------------
# 8. Address exactness and the composition's sqrt(d) excess
# ---------------------------------------------------------------------------

def check_address_exactness(cfg: VerifyConfig) -> CheckResult:
    started = time.perf_counter()
    exact_ok = True
    rows = []
    for d in (1, 2, 3):
        tree = dtree.make_address(d)
        spec = dtree.sparse_fourier(tree, OutputConvention.PLUS_MINUS_ONE)
        for ell in range(0, tree.n + 1):
            measured = boolfn.l1_level(spec, ell)
            target = binomial(d, ell - 1)
            if measured != target:
                exact_ok = False
                rows.append({"d": d, "ell": ell, "measured": measured, "target": target})
    composed = dtree.make_address_of_majority(3)
    spec = dtree.sparse_fourier(composed, OutputConvention.PLUS_MINUS_ONE)
    best_ratio = 0.0
    for ell in range(1, composed.n + 1):
        target = binomial(3, ell - 1)
        if target > 0:
            best_ratio = max(best_ratio, boolfn.l1_level(spec, ell) / target)
    ratio_ok = best_ratio >= 1.2
    return _result(
        "address_exactness", exact_ok and ratio_ok, started,
        exact_equalities=exact_ok, mismatches=rows,
        composition_best_ratio=best_ratio, ratio_threshold=1.2,
    )


# ---------------------------------------------------------------------------
# 9. Goodness of Haar samples; Hadamard and identity counterexamples
# ---------------------------------------------------------------------------

def check_goodness(cfg: VerifyConfig) -> CheckResult:
    started = time.perf_counter()
    haar_ok = True
    haar_rows = []
    for n in (64, 128, 256):
        u = ortho.sample_haar(n, sub_seed(cfg.seed, "good", n))
        report = ortho.check_goodness(u, sampled_pairs=cfg.goodness_pairs,
                                      max_block=8, seed=sub_seed(cfg.seed, "good-pairs", n))
        haar_ok &= report.violation_count == 0
        haar_rows.append({"n": n, "checked_pairs": report.checked_pairs,
                          "worst_ratio": report.worst_ratio,
                          "violations": report.violation_count,
                          "matrix_sha256": hashlib.sha256(u.entries.tobytes()).hexdigest()})
    norm, bound = ortho.hadamard_counterexample(26)
    hadamard_ok = norm == 1.0 and norm > bound and abs(bound - 0.663) < 0.01
    identity = ortho.OrthogonalMatrix(n=2048, entries=np.eye(2048), seed=None)
    id_report = ortho.check_goodness(identity, sampled_pairs=100, max_block=4,
                                     seed=sub_seed(cfg.seed, "good-id"))
    identity_ok = id_report.violation_count > 0
    return _result(
        "goodness", haar_ok and hadamard_ok and identity_ok, started,
        haar=haar_rows, hadamard_norm=norm, hadamard_bound=bound,
        hadamard_flagged=hadamard_ok, identity_flagged=identity_ok,
    )


# ---------------------------------------------------------------------------
# 10. Bilinear tails against the Gaussian-limit oracle
# ---------------------------------------------------------------------------

def check_tail_bounds(cfg: VerifyConfig) -> CheckResult:
    started = time.perf_counter()
    report = ortho.bilinear_tail_check(256, cfg.tail_trials, sub_seed(cfg.seed, "tails"))
    ok = True
    rows = []
    for row in report.rows:
        oracle = row["gaussian_tail"]
        sigma = math.sqrt(max(oracle * (1.0 - oracle), 1e-12) / cfg.tail_trials)
        passed = abs(row["frequency"] - oracle) <= 4.0 * sigma
        subg = row["frequency"] <= row["subgaussian_bound"] + 3.0 * row["stderr"]
        ok &= passed and subg
        rows.append({**row, "oracle_sigma": sigma, "gaussian_passed": passed,
                     "subgaussian_passed": subg})
    return _result("tail_bounds", ok, started, n=256, trials=cfg.tail_trials, rows=rows)


# ---------------------------------------------------------------------------
# 11. Distinguishing sanity: null trees, the arcsine tree, the envelope
# ---------------------------------------------------------------------------

def check_distinguishing(cfg: VerifyConfig) -> CheckResult:
    started = time.perf_counter()
    k = 2
    ok = True
    envelope_rows = []
    null_rows = []
    arcsine_rows = []
    for n in (64, 256):
        u = ortho.sample_haar(n, sub_seed(cfg.seed, "dist", n))
        uniform = dist.sample_uniform_batch(k, n, cfg.advantage_samples,
                                            sub_seed(cfg.seed, "dist-u", n))
        chained = dist.sample_duk_batch(u, k, cfg.advantage_samples,
                                        sub_seed(cfg.seed, "dist-d", n))
        flat_u = uniform.reshape(cfg.advantage_samples, -1)
        flat_d = chained.reshape(cfg.advantage_samples, -1)

        corpus = distinguish.standard_corpus(u, k, cfg.seed)
        est, _ = distinguish.two_arm_advantage(dict(corpus)["const1"], flat_u, flat_d)
        const_ok = est == 0.0
        dict_est, dict_err = distinguish.two_arm_advantage(
            distinguish.dictator_tree(k, n, 1, 1), flat_u, flat_d)
        dict_ok = abs(dict_est) <= 4.0 * max(dict_err, 1e-12)
        ok &= const_ok and dict_ok
        null_rows.append({"n": n, "const_advantage": est, "const_ok": const_ok,
                          "dictator_advantage": dict_est, "dictator_stderr": dict_err,
                          "dictator_ok": dict_ok})

        tree = distinguish.cross_block_parity_tree(k, n, 1, 1)
        est, stderr = distinguish.two_arm_advantage(tree, flat_u, flat_d)
        closed = -0.5 * rorrelation.sign_correlation(u.entries[0, 0])
        parity_ok = abs(est - closed) <= 4.0 * stderr
        ok &= parity_ok
        arcsine_rows.append({"n": n, "estimate": est, "stderr": stderr,
                             "closed_form": closed, "passed": parity_ok})

        for name, tree in corpus:
            est, stderr = distinguish.two_arm_advantage(tree, flat_u, flat_d)
            bound = distinguish.thm_main_bound(max(tree.depth, 1), k, n)
            passed = abs(est) <= 10.0 * bound
            ok &= passed
            envelope_rows.append({"n": n, "tree": name, "advantage": est,
                                  "stderr": stderr, "bound": bound, "passed": passed})
    return _result(
        "distinguishing_sanity", ok, started,
        null_trees=null_rows, arcsine_tree=arcsine_rows, envelope=envelope_rows,
    )


# ---------------------------------------------------------------------------
# 12. Determinism of the reporting pipeline
# ---------------------------------------------------------------------------

def check_determinism(cfg: VerifyConfig) -> CheckResult:
    """Re-run a representative slice of the suite and compare serialized
    results byte for byte. The full-manifest determinism test lives in
    the test suite, which builds two complete manifests."""
    started = time.perf_counter()

    def slice_once() -> str:
        u = ortho.sample_haar(32, sub_seed(cfg.seed, "det"))
        z = dist.sample_duk_batch(u, 3, 100, sub_seed(cfg.seed, "det-b"))
        values = rorrelation.phi_batch(u, z)
        est = dist.u_tilde_mc(u, [1], [2], 2000, sub_seed(cfg.seed, "det-mc"))
        tree = dtree.random_tree(8, 4, sub_seed(cfg.seed, "det-tree"))
        spec = dtree.sparse_fourier(tree, OutputConvention.ZERO_ONE)
        return json.dumps({
            "phi_sum": float(values.sum()),
            "moment": [est.value, est.stderr],
            "spectrum": sorted((list(s), c) for s, c in spec.coeffs.items()),
        }, sort_keys=True)

    first, second = slice_once(), slice_once()
    return _result("determinism", first == second, started,
                   slices_match=first == second)


CHECK_NAMES = {
    "quantum_identity": check_quantum_identity,
    "sign_correlation": check_sign_correlation,
    "expected_phi": check_expected_phi,
    "uniform_variance": check_uniform_variance,
    "moment_structure": check_moment_structure,
    "fourier_decomposition": check_fourier_decomposition,
    "level_bounds": check_level_bounds,
    "address_exactness": check_address_exactness,
    "goodness": check_goodness,
    "tail_bounds": check_tail_bounds,
    "distinguishing_sanity": check_distinguishing,
    "determinism": check_determinism,
}


def run_check(name: str, cfg: VerifyConfig) -> CheckResult:
    return CHECK_NAMES[name](cfg)


def run_all(cfg: VerifyConfig, names: list[str] | None = None) -> list[CheckResult]:
    selected = names or list(CHECK_NAMES)
    return [run_check(name, cfg) for name in selected]


def build_manifest(cfg: VerifyConfig, results: list[CheckResult]) -> dict:
    matrix_hashes = {}
    for r in results:
        for row in r.details.get("haar", []):
            if "matrix_sha256" in row:
                matrix_hashes[f"haar-{row['n']}"] = row["matrix_sha256"]
    return {
        "artifact_version": __version__,
        "config": asdict(cfg),
        "config_hash": cfg.config_hash(),
        "matrix_hashes": matrix_hashes,
        "checks": [
            {"name": r.name, "passed": r.passed, "details": r.details}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
        "timing": {
            "per_check": {r.name: r.runtime_seconds for r in results},
            "total_seconds": sum(r.runtime_seconds for r in results),
        },
    }


def strip_timing(manifest: dict) -> dict:
    return {k: v for k, v in manifest.items() if k != "timing"}


def manifest_to_json(manifest: dict) -> str:
    return json.dumps(manifest, sort_keys=True, indent=2)
