"""The acceptance suite: every quantitative claim the laboratory commits
to, as named checks shared by the CLI (verify-paper) and the test suite.

Every check is a function check(cfg, shared) -> (passed, details):
a verdict and the measured quantities. `run_check` is the one place
that times a check, names its CheckResult and converts its details to
plain JSON types; `shared` holds the values several checks of one run
read. Sample counts and tolerances default to the committed values.
A reduced configuration exists for smoke runs and the determinism
check; it changes sample counts only, never tolerances.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import __version__, boolfn, dist, distinguish, dtree, ortho, qsim, rorrelation
from .boolfn import OutputConvention, binomial
from .util import chunk_spans, derive_rng, json_int, mean_and_stderr, sub_seed, variance_and_stderr

__all__ = ["VerifyConfig", "CheckResult", "run_check", "run_all", "build_manifest",
           "manifest_to_json", "manifest_from_json", "report_rows", "strip_timing",
           "CHECK_NAMES"]


# Counts behind a standard error need two samples (moment_mc_samples two
# antithetic pairs, so four); every other count one.
_MIN_COUNTS = {"sign_corr_samples": 2, "mc_mean_samples": 2, "uniform_var_samples": 2,
               "moment_mc_samples": 4, "advantage_samples": 2}


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


# ---------------------------------------------------------------------------
# 1. Quantum identity: circuit acceptance equals (1 + phi)/2 to 1e-10
# ---------------------------------------------------------------------------

def check_quantum_identity(cfg: VerifyConfig, shared: dict) -> tuple[bool, dict]:
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
    return worst <= 1e-10, dict(
        trials=trials, worst_abs_error=worst, tolerance=1e-10,
    )


# ---------------------------------------------------------------------------
# 2. Sign-correlation closed form at a correlation grid
# ---------------------------------------------------------------------------

def check_sign_correlation(cfg: VerifyConfig, shared: dict) -> tuple[bool, dict]:
    rows = []
    ok = True
    for i, rho in enumerate((0.0, 0.3, -0.3, 0.7, -0.7, 0.95, -0.95)):
        rng = derive_rng(cfg.seed, "accept-signcorr", i)
        # The stream holds all of z1 before z2: z1 is drawn whole, z2 in the
        # samplers' sub-blocks of about MC_CHUNK // 8 entries, and
        # sgn(x) sgn(y) is built up in int8.
        z1 = rng.standard_normal(cfg.sign_corr_samples)
        prods = dist.sgn(z1)
        for start, stop in chunk_spans(cfg.sign_corr_samples, 8):
            # y = rho x + sqrt(1 - rho^2) z2, formed in z2's buffer.
            y = rng.standard_normal(stop - start)
            y *= math.sqrt(1.0 - rho * rho)
            y += rho * z1[start:stop]
            prods[start:stop] *= dist.sgn(y)
        del z1, y  # mean_and_stderr takes its own float copy of prods
        mean, stderr = mean_and_stderr(prods)
        target = rorrelation.sign_correlation(rho)
        passed = abs(mean - target) <= 4.0 * stderr
        ok &= passed
        rows.append({"rho": rho, "estimate": mean, "stderr": stderr,
                     "closed_form": target, "passed": passed})
    return ok, dict(rows=rows)


# ---------------------------------------------------------------------------
# 3. Expected Rorrelation under the chain distribution
# ---------------------------------------------------------------------------

_EPHI_GRID = tuple(itertools.product((64, 128), (2, 3, 4)))


def _ephi_exact(cfg: VerifyConfig, shared: dict) -> dict:
    """(exact E[phi], exact uniform variance) of every `ephi` matrix, keyed
    by (n, k, s). Each matrix is built once and dropped after both values
    are read; `shared` keeps the values (never the matrices) for the other
    check of the same run."""
    key = ("ephi", cfg.seed, cfg.expected_phi_seeds)
    if key not in shared:
        values = {}
        for n, k in _EPHI_GRID:
            for s in range(cfg.expected_phi_seeds):
                u = ortho.sample_haar(n, sub_seed(cfg.seed, "ephi", n, k, s))
                values[n, k, s] = (rorrelation.exact_expected_phi(u, k),
                                   rorrelation.exact_uniform_variance(u, k))
        shared[key] = values
    return shared[key]


def check_expected_phi(cfg: VerifyConfig, shared: dict) -> tuple[bool, dict]:
    table = _ephi_exact(cfg, shared)
    floor_ok = True
    worst_gap = float("inf")
    for n, k in _EPHI_GRID:
        floor = (2.0 / math.pi) ** (k - 1)
        for s in range(cfg.expected_phi_seeds):
            value = table[n, k, s][0]
            worst_gap = min(worst_gap, value - floor)
            if value < floor:
                floor_ok = False
    mc_rows = []
    mc_ok = True
    for k in (2, 3):
        u = ortho.sample_haar(64, sub_seed(cfg.seed, "ephi-mc", k))
        exact = rorrelation.exact_expected_phi(u, k)
        values = np.concatenate([
            rorrelation.phi_batch(u, chunk) for chunk in
            dist.duk_chunks(u, k, cfg.mc_mean_samples, sub_seed(cfg.seed, "ephi-mc-b", k))])
        mean, stderr = mean_and_stderr(values)
        passed = abs(mean - exact) <= 4.0 * stderr
        mc_ok &= passed
        mc_rows.append({"k": k, "exact": exact, "estimate": mean,
                        "stderr": stderr, "passed": passed})
    return floor_ok and mc_ok, dict(
        floor_satisfied=floor_ok, worst_gap_above_floor=worst_gap, monte_carlo=mc_rows,
    )


# ---------------------------------------------------------------------------
# 4. Uniform variance is exactly 1/N, and empirically so
# ---------------------------------------------------------------------------

def check_uniform_variance(cfg: VerifyConfig, shared: dict) -> tuple[bool, dict]:
    table = _ephi_exact(cfg, shared)
    exact_ok = True
    worst = 0.0
    for n, k in _EPHI_GRID:
        for s in range(cfg.expected_phi_seeds):
            err = abs(table[n, k, s][1] - 1.0 / n)
            worst = max(worst, err)
            if err > 1e-9:
                exact_ok = False
    u = ortho.sample_haar(64, sub_seed(cfg.seed, "uvar-mc"))
    values = np.concatenate([
        rorrelation.phi_batch(u, chunk) for chunk in
        dist.uniform_chunks(2, 64, cfg.uniform_var_samples, sub_seed(cfg.seed, "uvar-mc-b"))])
    var, var_stderr = variance_and_stderr(values)
    empirical_ok = abs(var - 1.0 / 64) <= 4.0 * var_stderr
    return exact_ok and empirical_ok, dict(
        worst_exact_error=worst, empirical_variance=var,
        empirical_stderr=var_stderr, target=1.0 / 64, empirical_passed=empirical_ok,
    )


# ---------------------------------------------------------------------------
# 5. Moment structure: parity zeros and the good-matrix budget
# ---------------------------------------------------------------------------

def check_moment_structure(cfg: VerifyConfig, shared: dict) -> tuple[bool, dict]:
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
    return small_zero_ok and odd_zero_ok and audit_ok, dict(
        small_sets_exactly_zero=small_zero_ok, odd_parity_exactly_zero=odd_zero_ok,
        audits=audit_rows,
    )


# ---------------------------------------------------------------------------
# 6. Decomposition identity on a random tree corpus
# ---------------------------------------------------------------------------

def check_fourier_decomposition(cfg: VerifyConfig, shared: dict) -> tuple[bool, dict]:
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
    return worst <= 1e-9, dict(
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


def _level1_chain(tree: dtree.DecisionTree, p: float, l1: float,
                  bound: float) -> tuple[float, dict]:
    """The proof steps of the level-1 bound on a tree of depth >= 1, in the
    {0,1} convention, given its acceptance probability p, its L_{1,1} and
    its level-1 bound: relabeling R makes every next-variable coefficient
    nonnegative and keeps p; the layered sum over all layers dominates
    L_{1,1}, equals sum_i R_hat({i}) exactly (all terms are dyadic) and
    is within the bound. Returns the layered sum and the four verdicts."""
    relabeled = dtree.relabel_nonnegative(tree)
    spec = dtree.sparse_fourier(relabeled)
    refined = dtree.refined_level1_sum(tree, 0, tree.depth)
    return refined, dict(
        relabel_nonnegative_ok=all(
            a_hat >= 0 for a_hat in dtree.next_var_coefficients(relabeled).values())
        and dtree.acceptance_probability(relabeled) == p,
        refined_dominates_level1_ok=l1 <= refined,
        relabeled_level1_exact_ok=refined == sum(
            spec.coefficient((i,)) for i in range(1, tree.n + 1)),
        refined_bound_ok=refined <= bound + 1e-12,
    )


def check_level_bounds(cfg: VerifyConfig, shared: dict) -> tuple[bool, dict]:
    binom_ok = level1_ok = levelell_ok = True
    worst_binom = worst_l1 = worst_lell = worst_refined = 0.0
    trees = chain_trees = 0
    chain_ok = dict.fromkeys(("relabel_nonnegative_ok", "refined_dominates_level1_ok",
                              "relabeled_level1_exact_ok", "refined_bound_ok"), True)
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
                if d >= 1:
                    refined, verdicts = _level1_chain(tree, p, l1, bound)
                    chain_trees += 1
                    for key, ok in verdicts.items():
                        chain_ok[key] = chain_ok[key] and ok
                    if bound > 0:
                        worst_refined = max(worst_refined, refined / bound)
            if 1 <= ell <= d:
                bound = dtree.level_ell_bound(d, tree.n, p, ell, constant=32.0)
                if l1 > bound + 1e-12:
                    levelell_ok = False
                if bound > 0:
                    worst_lell = max(worst_lell, l1 / bound)
    passed = binom_ok and level1_ok and levelell_ok and all(chain_ok.values())
    return passed, dict(
        trees=trees, binom_bound_ok=binom_ok, max_binom_ratio=worst_binom,
        level1_ok=level1_ok, max_level1_ratio=worst_l1,
        level_ell_ok=levelell_ok, max_level_ell_ratio=worst_lell,
        level1_chain_trees=chain_trees, max_refined_ratio=worst_refined, **chain_ok,
    )


# ---------------------------------------------------------------------------
# 8. Address exactness and the composition's sqrt(d) excess
# ---------------------------------------------------------------------------

def check_address_exactness(cfg: VerifyConfig, shared: dict) -> tuple[bool, dict]:
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
    return exact_ok and ratio_ok, dict(
        exact_equalities=exact_ok, mismatches=rows,
        composition_best_ratio=best_ratio, ratio_threshold=1.2,
    )


# ---------------------------------------------------------------------------
# 9. Goodness of Haar samples; Hadamard and identity counterexamples
# ---------------------------------------------------------------------------

def check_goodness(cfg: VerifyConfig, shared: dict) -> tuple[bool, dict]:
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
                          "matrix_sha256": ortho.matrix_sha256(u)})
    norm, bound = ortho.hadamard_counterexample(26)
    hadamard_ok = norm == 1.0 and norm > bound and abs(bound - 0.663) < 0.01
    id_report = ortho.check_goodness(ortho.identity(2048), sampled_pairs=100, max_block=4,
                                     seed=sub_seed(cfg.seed, "good-id"))
    identity_ok = id_report.violation_count > 0
    return haar_ok and hadamard_ok and identity_ok, dict(
        haar=haar_rows, hadamard_norm=norm, hadamard_bound=bound,
        hadamard_flagged=hadamard_ok, identity_flagged=identity_ok,
    )


# ---------------------------------------------------------------------------
# 10. Bilinear tails against the Gaussian-limit oracle
# ---------------------------------------------------------------------------

def check_tail_bounds(cfg: VerifyConfig, shared: dict) -> tuple[bool, dict]:
    ok = True
    rows = []
    for row in ortho.bilinear_tail_check(256, cfg.tail_trials, sub_seed(cfg.seed, "tails")):
        oracle = row["gaussian_tail"]
        sigma = math.sqrt(max(oracle * (1.0 - oracle), 1e-12) / cfg.tail_trials)
        passed = abs(row["frequency"] - oracle) <= 4.0 * sigma
        subg = row["frequency"] <= row["subgaussian_bound"] + 3.0 * row["stderr"]
        ok &= passed and subg
        rows.append({**row, "oracle_sigma": sigma, "gaussian_passed": passed,
                     "subgaussian_passed": subg})
    return ok, dict(n=256, trials=cfg.tail_trials, rows=rows)


# ---------------------------------------------------------------------------
# 11. Distinguishing sanity: null trees, the arcsine tree, the envelope
# ---------------------------------------------------------------------------

def check_distinguishing(cfg: VerifyConfig, shared: dict) -> tuple[bool, dict]:
    k = 2
    ok = True
    envelope_rows = []
    null_rows = []
    arcsine_rows = []
    for n in (64, 256):
        u = ortho.sample_haar(n, sub_seed(cfg.seed, "dist", n))
        reports = distinguish.advantage_corpus(
            distinguish.standard_corpus(u, k, cfg.seed), u, k, cfg.advantage_samples,
            sub_seed(cfg.seed, "dist-arms", n))
        by_tree = {r.tree_id: r for r in reports}

        const, dictator = by_tree["const1"], by_tree["dictator-b1"]
        const_ok = const.estimate == 0.0
        dict_ok = abs(dictator.estimate) <= 4.0 * max(dictator.stderr, 1e-12)
        ok &= const_ok and dict_ok
        null_rows.append({"n": n, "const_advantage": const.estimate, "const_ok": const_ok,
                          "dictator_advantage": dictator.estimate,
                          "dictator_stderr": dictator.stderr, "dictator_ok": dict_ok})

        # parity-cross is the parity of z^(1)_1 and z^(2)_1: arcsine law of U_11.
        parity = by_tree["parity-cross"]
        closed = -0.5 * rorrelation.sign_correlation(u.entries[0, 0])
        parity_ok = abs(parity.estimate - closed) <= 4.0 * parity.stderr
        ok &= parity_ok
        arcsine_rows.append({"n": n, "estimate": parity.estimate, "stderr": parity.stderr,
                             "closed_form": closed, "passed": parity_ok})

        for r in reports:
            passed = abs(r.estimate) <= 10.0 * r.theory_bound
            ok &= passed
            envelope_rows.append({"n": n, "tree": r.tree_id, "advantage": r.estimate,
                                  "stderr": r.stderr, "bound": r.theory_bound,
                                  "passed": passed})
    return ok, dict(
        null_trees=null_rows, arcsine_tree=arcsine_rows, envelope=envelope_rows,
    )


# ---------------------------------------------------------------------------
# 12. Determinism of the reporting pipeline
# ---------------------------------------------------------------------------

def check_determinism(cfg: VerifyConfig, shared: dict) -> tuple[bool, dict]:
    """Re-run a representative slice of the suite and compare serialized
    results byte for byte. The full-manifest determinism test lives in
    the test suite, which builds two complete manifests."""

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
    return first == second, dict(slices_match=first == second)


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


def run_check(name: str, cfg: VerifyConfig, shared: dict | None = None) -> CheckResult:
    """Run and time one check; `shared` holds values that several checks of
    one run read, so they are computed once per run."""
    check = CHECK_NAMES[name]
    started = time.perf_counter()
    passed, details = check(cfg, {} if shared is None else shared)
    return CheckResult(name=name, passed=bool(passed),
                       runtime_seconds=time.perf_counter() - started, details=_plain(details))


def run_all(cfg: VerifyConfig, names: list[str] | None = None) -> list[CheckResult]:
    """Run the named checks (all by default) in order, sharing one run's values."""
    selected = names or list(CHECK_NAMES)
    unknown = [name for name in selected if name not in CHECK_NAMES]
    if unknown:
        raise ValueError(f"unknown checks {unknown}")
    shared: dict = {}
    return [run_check(name, cfg, shared) for name in selected]


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


def manifest_from_json(text: str) -> dict:
    """Parse a manifest and check its shape: an object whose `checks` is a
    list of objects with a string `name`, a boolean `passed` and an object
    `details`; report_rows alone checks the tabulated fields."""
    manifest = json.loads(text)
    checks = manifest.get("checks") if isinstance(manifest, dict) else None
    if not isinstance(checks, list):
        raise ValueError("manifest must be an object with a list of checks")
    for check in checks:
        if not (isinstance(check, dict) and isinstance(check.get("name"), str)
                and isinstance(check.get("passed"), bool)
                and isinstance(check.get("details"), dict)):
            raise ValueError("each manifest check needs a string name, a boolean "
                             "passed and an object details")
    return manifest


def _detail_rows(name: str, details: dict, key: str) -> list[dict]:
    rows = details.get(key, [])
    if not (isinstance(rows, list) and all(isinstance(row, dict) for row in rows)):
        raise ValueError(f"manifest check {name}: {key} must be a list of objects")
    return rows


def _fields(name: str, row: dict, numbers: tuple, present: tuple = ()) -> list:
    """The values of `numbers`, each a number a double holds (no booleans,
    NaN, infinities or huge integers), then of `present`, each any value."""
    for key in numbers:
        value = row.get(key)
        if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
            raise ValueError(f"manifest check {name}: {key} must be a finite number")
    missing = [key for key in present if key not in row]
    if missing:
        raise ValueError(f"manifest check {name}: missing {missing}")
    return [row[key] for key in numbers + present]


def report_rows(manifest: dict) -> list[dict]:
    """The rows `rorrlab report` tabulates from a manifest of the shape
    manifest_from_json checks; refuses (ValueError) a tabulated field that
    is missing or not a finite number."""
    rows = []
    for check in manifest["checks"]:
        name, details = check["name"], check["details"]
        if name == "expected_phi":
            for row in _detail_rows(name, details, "monte_carlo"):
                estimate, exact, k, passed = _fields(name, row, ("estimate", "exact"),
                                                     ("k", "passed"))
                rows.append({"check": name, "quantity": f"E[phi] k={k}",
                             "measured": estimate, "reference": exact, "passed": passed})
        elif name == "uniform_variance":
            variance, target, passed = _fields(name, details, ("empirical_variance", "target"),
                                               ("empirical_passed",))
            rows.append({"check": name, "quantity": "Var[phi] uniform",
                         "measured": variance, "reference": target, "passed": passed})
        elif name == "level_bounds":
            keys = ("max_binom_ratio", "max_level1_ratio", "max_level_ell_ratio")
            for key, ratio in zip(keys, _fields(name, details, keys)):
                rows.append({"check": name, "quantity": key, "measured": ratio,
                             "reference": 1.0, "passed": ratio <= 1.0})
        elif name == "distinguishing_sanity":
            for row in _detail_rows(name, details, "envelope"):
                advantage, bound, tree, n, passed = _fields(
                    name, row, ("advantage", "bound"), ("tree", "n", "passed"))
                rows.append({"check": name, "quantity": f"advantage {tree} N={n}",
                             "measured": advantage, "reference": bound, "passed": passed})
        else:
            rows.append({"check": name, "quantity": "passed",
                         "measured": float(check["passed"]), "reference": 1.0,
                         "passed": check["passed"]})
    return rows
