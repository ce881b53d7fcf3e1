"""The four workloads: inputs, warm-up, timed operations and output checks.

Each workload has four parts, run in two processes:

- make_inputs (benchmark process): writes the input files into the work
  directory from the seed and returns the parameters the others need;
- warmup (workload process): one tiny call into each public function the
  timed operations reach, so lazy imports and the first BLAS call are
  paid before timing; counted in setup_s;
- ops (workload process): the timed operations, each one in-process
  `rorrlab.cli.main` call;
- check (benchmark process): compares the recorded outputs of the first
  round with computations from oracles.py or with properties the method
  must have, and returns a list of problems. It skips the operations
  that failed (they are counted in `failed`) and checks all the others.

A record is the outcome of one operation: argv, exit code, stdout,
stderr, the exception that escaped `cli.main`, if any, and whether the
operation failed (`op_failed`).
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

VERIFY_CHECK_COUNT = 12
ADVANTAGE_N = 256
ADVANTAGE_SAMPLES = 20_000
FOURIER_VARS = 16
FOURIER_DEPTHS = (8, 9, 10, 11)
PIPELINE_N = 2048
PIPELINE_K = 3
PIPELINE_COUNT = 200
PIPELINE_PAIRS = 10_000
PIPELINE_TRIALS = 20

# Malformed inputs for pipeline-2048. Each should end with exit code 2
# and a one-line error; the contents do not depend on the seed.
TRUNCATED_MATRIX = b"RORU\x01"
TRUNCATED_INSTANCES = b"RORI\x03\x00"
BAD_CHILD_TREE = {"n": 4, "root": 0, "nodes": [
    {"q": 0, "lo": 1, "hi": 7, "out": None},
    {"q": None, "lo": None, "hi": None, "out": 1},
]}


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    expect: str = "ok"  # "ok": exit 0; "usage_error": exit 2 with one line
    manifest: str | None = None  # a file that fingerprints the op instead of stdout


def op_failed(op: Op, record: dict) -> bool:
    """An operation fails when an exception escapes `cli.main`, when a
    normal operation is refused with exit code 2, or when a malformed
    input does not end with exit code 2 and a single `error:` line."""
    if record["error"] is not None:
        return True
    if op.expect == "usage_error":
        lines = record["stderr"].splitlines()
        return not (record["rc"] == 2 and len(lines) == 1 and lines[0].startswith("error:"))
    return record["rc"] == 2


def fingerprint(op: Op, record: dict) -> str:
    """What must repeat exactly between rounds of one run."""
    if op.manifest is not None and record["error"] is None:
        doc = json.loads(Path(op.manifest).read_text())
        doc.pop("timing", None)
        body = json.dumps(doc, sort_keys=True)
    else:
        body = json.dumps([record["rc"], record["stdout"], record["error"]])
    return hashlib.sha256(body.encode()).hexdigest()


def _require(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _warm_matrix(work: Path, seed: int) -> str:
    import oracles

    path = work / "warm.mat"
    oracles.write_matrix(path, oracles.haar(4, oracles.rng_for(seed, 0)), seed)
    return str(path)


# ---------------------------------------------------------------------------
# verify-full: the whole acceptance suite, as every user runs it
# ---------------------------------------------------------------------------

class VerifyFull:
    name = "verify-full"

    def make_inputs(self, work: Path, seed: int) -> dict:
        return {"seed": seed, "manifest": str(work / "manifest.json")}

    def ops(self, inputs: dict) -> list[Op]:
        return [Op(("verify-paper", "--seed", str(inputs["seed"]),
                    "--out", inputs["manifest"]), manifest=inputs["manifest"])]

    def warmup(self, inputs: dict) -> None:
        import numpy as np
        from rorrlab import cli, dist, distinguish, dtree, ortho, qsim, rorrelation

        u = ortho.sample_haar(4, 0)
        z = np.ones((3, 4), dtype=np.int8)
        ortho.check_goodness(u, sampled_pairs=2, max_block=2)
        ortho.bilinear_tail_check(4, 10, 0)
        qsim.run_rorrelation_circuit(u, z)
        rorrelation.phi(u, z)
        rorrelation.exact_expected_phi(u, 3)
        rorrelation.exact_uniform_variance(u, 3)
        batch = dist.sample_duk_batch(u, 2, 4, 0)
        rorrelation.phi_batch(u, dist.sample_uniform_batch(2, 4, 4, 0))
        dist.u_tilde_mc(u, [1], [2], 4, 0)
        dist.moment_bound_audit(u, 2, trials=2, max_size=2, seed=0, mc_samples=4)
        tree = dtree.random_tree(4, 2, 0)
        dtree.decomposition_sides(tree, (1,))
        distinguish.evaluate_batch(distinguish.standard_corpus(u, 2, 0)[2][1],
                                   batch.reshape(4, -1))
        cli.build_parser()

    def check(self, inputs: dict, records: list[dict]) -> list[str]:
        import oracles

        problems: list[str] = []
        record = records[0]
        if record["failed"]:
            return problems
        _require(problems, record["rc"] == 0, f"verify-paper exit code {record['rc']}")
        passes = [line for line in record["stdout"].splitlines() if line.startswith("[PASS]")]
        _require(problems, len(passes) == VERIFY_CHECK_COUNT,
                 f"{len(passes)} of {VERIFY_CHECK_COUNT} checks passed")
        manifest = json.loads(Path(inputs["manifest"]).read_text())
        checks = {c["name"]: c for c in manifest["checks"]}
        _require(problems, manifest["all_passed"] and len(checks) == VERIFY_CHECK_COUNT
                 and all(c["passed"] for c in checks.values()), "manifest reports failures")
        _require(problems, manifest["config"]["seed"] == inputs["seed"], "manifest seed")
        if problems:
            return problems
        config = manifest["config"]

        m = config["sign_corr_samples"]
        for row in checks["sign_correlation"]["details"]["rows"]:
            law = oracles.arcsine_law(row["rho"])
            sigma = math.sqrt((1.0 - law * law) / m)
            _require(problems, abs(row["closed_form"] - law) <= 1e-12,
                     f"sign_correlation closed form at rho={row['rho']}")
            _require(problems, abs(row["estimate"] - law) <= 4.0 * sigma,
                     f"sign_correlation estimate at rho={row['rho']} off the arcsine law")

        trials = checks["tail_bounds"]["details"]["trials"]
        for row in checks["tail_bounds"]["details"]["rows"]:
            tail = oracles.gaussian_tail(row["t"])
            sigma = math.sqrt(tail * (1.0 - tail) / trials)
            _require(problems, oracles.close(row["gaussian_tail"], tail, 1e-12),
                     f"tail_bounds Gaussian tail at t={row['t']}")
            _require(problems, abs(row["frequency"] - tail) <= 4.0 * sigma,
                     f"tail_bounds frequency at t={row['t']} off the Gaussian tail")
            _require(problems, oracles.close(row["subgaussian_bound"],
                                             2.0 * math.exp(-row["t"] ** 2 / 8.0)),
                     f"tail_bounds sub-Gaussian budget at t={row['t']}")

        uvar = checks["uniform_variance"]["details"]
        _require(problems, uvar["target"] == 1.0 / 64, "uniform_variance target is not 1/N")
        _require(problems, uvar["worst_exact_error"] <= 1e-9,
                 "uniform_variance exact variance is not 1/N")
        _require(problems, abs(uvar["empirical_variance"] - 1.0 / 64)
                 <= 4.0 * uvar["empirical_stderr"], "uniform_variance estimate off 1/N")

        ephi = checks["expected_phi"]["details"]
        _require(problems, ephi["worst_gap_above_floor"] >= 0.0, "expected_phi below floor")
        for row in ephi["monte_carlo"]:
            _require(problems, row["exact"] >= (2.0 / math.pi) ** (row["k"] - 1),
                     f"expected_phi exact value below (2/pi)^(k-1) at k={row['k']}")
            _require(problems, abs(row["estimate"] - row["exact"]) <= 4.0 * row["stderr"],
                     f"expected_phi estimate off the exact value at k={row['k']}")

        good = checks["goodness"]["details"]
        half = 2.0 ** 13
        bound = math.sqrt(100.0 * 2.0 * half * math.log(2.0 ** 26) / 2.0 ** 26)
        _require(problems, good["hadamard_norm"] == 1.0
                 and oracles.close(good["hadamard_bound"], bound), "goodness Hadamard bound")
        _require(problems, all(row["worst_ratio"] < 1.0 for row in good["haar"]),
                 "goodness worst ratio")

        sanity = checks["distinguishing_sanity"]["details"]
        _require(problems, all(row["const_advantage"] == 0.0 for row in sanity["null_trees"]),
                 "constant tree advantage is not exactly 0")
        _require(problems, all(abs(row["advantage"]) <= 10.0 * row["bound"]
                               for row in sanity["envelope"]), "advantage envelope")
        levels = checks["level_bounds"]["details"]
        _require(problems, max(levels["max_binom_ratio"], levels["max_level1_ratio"],
                               levels["max_level_ell_ratio"]) <= 1.0 + 1e-9, "level bounds")
        _require(problems, checks["quantum_identity"]["details"]["worst_abs_error"] <= 1e-10,
                 "quantum identity")
        return problems


# ---------------------------------------------------------------------------
# advantage-corpus: the standard tree corpus against the hard distribution
# ---------------------------------------------------------------------------

CORPUS_DEPTHS = {"const0": 0, "const1": 0, "dictator-b1": 1, "dictator-b2": 1,
                 "parity-within": 2, "parity-cross": 2, "greedy-1": 2, "greedy-3": 6,
                 "random-d6-0": 6, "random-d6-1": 6, "random-d6-2": 6}


class AdvantageCorpus:
    name = "advantage-corpus"

    def make_inputs(self, work: Path, seed: int) -> dict:
        import oracles

        path = work / "matrix.mat"
        oracles.write_matrix(path, oracles.haar(ADVANTAGE_N, oracles.rng_for(seed, 1)), seed)
        return {"seed": seed, "matrix": str(path), "warm_matrix": _warm_matrix(work, seed)}

    def ops(self, inputs: dict) -> list[Op]:
        return [Op(("advantage", "--matrix", inputs["matrix"], "--k", "2",
                    "--samples", str(ADVANTAGE_SAMPLES), "--seed", str(inputs["seed"])))]

    def warmup(self, inputs: dict) -> None:
        from rorrlab import cli, distinguish, ortho

        u = ortho.load_matrix(inputs["warm_matrix"])
        for _, tree in distinguish.standard_corpus(u, 2, 0)[2:4]:
            distinguish.advantage(tree, u, 2, 4, 0)
        cli.build_parser()

    def check(self, inputs: dict, records: list[dict]) -> list[str]:
        import oracles

        problems: list[str] = []
        record = records[0]
        if record["failed"]:
            return problems
        _require(problems, record["rc"] == 0, f"advantage exit code {record['rc']}")
        rows = {row["tree"]: row for row in map(json.loads, record["stdout"].splitlines())}
        _require(problems, set(rows) == set(CORPUS_DEPTHS), f"corpus trees {sorted(rows)}")
        if problems:
            return problems
        _, u = oracles.read_matrix(inputs["matrix"])
        m = ADVANTAGE_SAMPLES
        for name, row in rows.items():
            bound = oracles.advantage_bound(max(CORPUS_DEPTHS[name], 1), 2, ADVANTAGE_N)
            _require(problems, (row["N"], row["k"], row["samples"], row["d"])
                     == (ADVANTAGE_N, 2, m, CORPUS_DEPTHS[name]), f"{name}: shape fields")
            _require(problems, oracles.close(row["theory_bound"], bound), f"{name}: bound")
            _require(problems, abs(row["estimate"]) <= 10.0 * bound,
                     f"{name}: |advantage| above 10x the bound")
        for name in ("const0", "const1"):
            _require(problems, rows[name]["estimate"] == 0.0, f"{name}: advantage is not 0")
        for name in ("dictator-b1", "dictator-b2"):
            # Every coordinate of both arms is an unbiased sign: variance 1/4 per arm.
            _require(problems, abs(rows[name]["estimate"]) <= 4.0 * math.sqrt(0.5 / m),
                     f"{name}: advantage beyond 4 sigma of 0")
        # Parity of z1_1 z2_1: 1/2 under uniform, (1 + (2/pi) asin U11)/2 under the chain.
        p = 0.5 * (1.0 + oracles.arcsine_law(float(u[0, 0])))
        sigma = math.sqrt((0.25 + p * (1.0 - p)) / m)
        closed = -math.asin(float(u[0, 0])) / math.pi
        _require(problems, abs(rows["parity-cross"]["estimate"] - closed) <= 4.0 * sigma,
                 "parity-cross: advantage beyond 4 sigma of -(1/pi) asin(U11)")
        return problems


# ---------------------------------------------------------------------------
# fourier-deep: exact spectra of deep random trees
# ---------------------------------------------------------------------------

class FourierDeep:
    name = "fourier-deep"

    def make_inputs(self, work: Path, seed: int) -> dict:
        import oracles

        trees = []
        for depth in FOURIER_DEPTHS:
            path = work / f"tree-d{depth}.json"
            arena = oracles.complete_tree(FOURIER_VARS, depth, oracles.rng_for(seed, 2, depth))
            path.write_text(json.dumps(arena))
            trees.append(str(path))
        warm = work / "warm-tree.json"
        warm.write_text(json.dumps(oracles.complete_tree(4, 3, oracles.rng_for(seed, 0))))
        return {"seed": seed, "trees": trees, "warm_tree": str(warm)}

    def ops(self, inputs: dict) -> list[Op]:
        return [Op(("fourier", "--tree", path, "--convention", convention))
                for path in inputs["trees"] for convention in ("01", "pm1")]

    def warmup(self, inputs: dict) -> None:
        from rorrlab import boolfn, cli, dtree

        tree = dtree.tree_from_json(Path(inputs["warm_tree"]).read_text())
        for convention in boolfn.OutputConvention:
            boolfn.spectrum_to_json(dtree.sparse_fourier(tree, convention))
        cli.build_parser()

    def check(self, inputs: dict, records: list[dict]) -> list[str]:
        import oracles

        problems: list[str] = []
        for index, path in enumerate(inputs["trees"]):
            arena = json.loads(Path(path).read_text())
            table = oracles.tree_table(arena).astype(float)
            dense = {"01": oracles.fourier_coefficients(table),
                     "pm1": oracles.fourier_coefficients(2.0 * table - 1.0)}
            got = {}
            for offset, convention in enumerate(("01", "pm1")):
                record = records[2 * index + offset]
                if record["failed"]:
                    continue
                _require(problems, record["rc"] == 0, f"{path} {convention}: exit code")
                if record["rc"] != 0:
                    continue
                doc = json.loads(record["stdout"])
                got[convention] = {sum(1 << i for i in entry["S"]): entry["coeff"]
                                   for entry in doc["coefficients"]}
                _require(problems, doc["n"] == FOURIER_VARS
                         and got[convention] == dense[convention],
                         f"{Path(path).name} {convention}: spectrum differs from the "
                         f"dense transform")
            if len(got) < 2:
                continue
            _require(problems, all(got["pm1"].get(mask, 0.0) == 2.0 * coeff
                                   for mask, coeff in got["01"].items() if mask)
                     and all(mask in got["01"] for mask in got["pm1"] if mask),
                     f"{Path(path).name}: pm1 coefficients are not twice the 01 ones")
        return problems


# ---------------------------------------------------------------------------
# pipeline-2048: a command chain through the file formats at N = 2048
# ---------------------------------------------------------------------------

class Pipeline2048:
    name = "pipeline-2048"

    def make_inputs(self, work: Path, seed: int) -> dict:
        import oracles

        path = work / "matrix.mat"
        oracles.write_matrix(path, oracles.haar(PIPELINE_N, oracles.rng_for(seed, 3)), seed)
        (work / "truncated.mat").write_bytes(TRUNCATED_MATRIX)
        (work / "truncated.inst").write_bytes(TRUNCATED_INSTANCES)
        (work / "bad-child.json").write_text(json.dumps(BAD_CHILD_TREE))
        warm_tree = work / "warm-tree.json"
        warm_tree.write_text(json.dumps(oracles.complete_tree(4, 2, oracles.rng_for(seed, 0))))
        return {"seed": seed, "matrix": str(path), "work": str(work),
                "warm_matrix": _warm_matrix(work, seed), "warm_tree": str(warm_tree)}

    def ops(self, inputs: dict) -> list[Op]:
        work, matrix, seed = Path(inputs["work"]), inputs["matrix"], str(inputs["seed"])
        k, count = str(PIPELINE_K), str(PIPELINE_COUNT)
        return [
            Op(("sample-matrix", "--n", str(PIPELINE_N), "--seed", seed,
                "--out", str(work / "sampled.mat"))),
            Op(("check-good", "--matrix", matrix, "--pairs", str(PIPELINE_PAIRS),
                "--seed", seed)),
            Op(("sample-dist", "--dist", "duk", "--matrix", matrix, "--k", k,
                "--count", count, "--seed", seed, "--out", str(work / "chain.inst"))),
            Op(("sample-dist", "--dist", "uniform", "--n", str(PIPELINE_N), "--k", k,
                "--count", count, "--seed", seed, "--out", str(work / "uniform.inst"))),
            Op(("classify", "--matrix", matrix, "--instances", str(work / "chain.inst"))),
            Op(("rorrelate", "--matrix", matrix, "--instances", str(work / "uniform.inst"))),
            Op(("qsim", "--matrix", matrix, "--instances", str(work / "chain.inst"),
                "--seed", seed)),
            Op(("moments", "--matrix", matrix, "--k", k, "--audit",
                "--trials", str(PIPELINE_TRIALS), "--seed", seed)),
            Op(("check-good", "--matrix", str(work / "truncated.mat")), "usage_error"),
            Op(("rorrelate", "--matrix", matrix, "--instances",
                str(work / "truncated.inst")), "usage_error"),
            Op(("fourier", "--tree", str(work / "bad-child.json")), "usage_error"),
        ]

    def warmup(self, inputs: dict) -> None:
        from rorrlab import cli, dist, dtree, ortho, qsim, rorrelation

        work = Path(inputs["work"])
        u = ortho.load_matrix(inputs["warm_matrix"])
        ortho.save_matrix(work / "warm-out.mat", ortho.sample_haar(4, 0))
        ortho.check_goodness(u, sampled_pairs=2, max_block=2)
        batch = dist.sample_duk_batch(u, 3, 2, 0)
        dist.sample_uniform_batch(3, 4, 2, 0)
        rorrelation.save_instances(work / "warm.inst", [
            rorrelation.RorrelationInstance(k=3, vectors=z) for z in batch])
        instances, _, _ = rorrelation.load_instances(work / "warm.inst")
        rorrelation.classify(u, instances[0].vectors)
        qsim.amplified_solver(u, instances[0].vectors, 4, 0)
        dist.moment_bound_audit(u, 3, trials=2, max_size=3, seed=0, mc_samples=4)
        dtree.tree_from_json(Path(inputs["warm_tree"]).read_text())
        cli.build_parser()

    def check(self, inputs: dict, records: list[dict]) -> list[str]:
        import numpy as np
        import oracles

        problems: list[str] = []
        work = Path(inputs["work"])
        live = [None if record["failed"] else record for record in records[:8]]
        for record in filter(None, live):
            _require(problems, record["rc"] == 0,
                     f"{record['argv'][0]}: exit code {record['rc']}")
        if problems:
            return problems
        sampled, good, chain_made, flat_made, classified, uniform, simulated, audit = live
        n, k, count = PIPELINE_N, PIPELINE_K, PIPELINE_COUNT

        if sampled:
            doc = json.loads(sampled["stdout"])
            seed, q = oracles.read_matrix(work / "sampled.mat")
            digest = hashlib.sha256((work / "sampled.mat").read_bytes()).hexdigest()
            _require(problems, doc["sha256"] == digest,
                     "sample-matrix: sha256 differs from file")
            _require(problems, doc["n"] == n and seed == inputs["seed"],
                     "sample-matrix: header")
            gram_error = float(np.max(np.abs(q.T @ q - np.eye(n))))
            _require(problems, gram_error <= 1e-10,
                     f"sample-matrix: not orthogonal ({gram_error:.2e})")
            del q

        _, u = oracles.read_matrix(inputs["matrix"])
        if good:
            report = json.loads(good["stdout"])
            rows, cols = report["worst_pair"]
            block = u[np.ix_(np.array(rows) - 1, np.array(cols) - 1)]
            ratio = float(np.linalg.svd(block, compute_uv=False)[0]) / oracles.goodness_bound(
                len(rows), len(cols), n)
            _require(problems, oracles.close(ratio, report["worst_ratio"], 1e-9),
                     "check-good: worst ratio differs from the SVD of its block")
            _require(problems, report["checked_pairs"] == n * n + PIPELINE_PAIRS
                     and report["violation_count"] == 0, "check-good: pair count or violations")

        # An instance file is read when its writer or a reader of it succeeded.
        chain = flat = None
        if chain_made or classified or simulated:
            chain = oracles.read_instances(work / "chain.inst")
            _require(problems, chain.shape == (count, k, n), "sample-dist: chain shape")
        if flat_made or uniform:
            flat = oracles.read_instances(work / "uniform.inst")
            _require(problems, flat.shape == (count, k, n), "sample-dist: uniform shape")
        if problems:
            return problems
        chain_phi = oracles.phi_chain(u, chain) if classified or simulated else None

        if classified:
            labels = [json.loads(line) for line in classified["stdout"].splitlines()]
            _require(problems, len(labels) == count, "classify: line count")
            yes, no = 2.0 ** -k, 2.0 ** -(k + 1)
            for row, value in zip(labels, chain_phi):
                _require(problems, abs(row["phi"] - value) <= 1e-9, "classify: phi differs")
                if min(abs(value - yes), abs(abs(value) - no)) > 1e-9:
                    label = ("YES" if value >= yes else "NO" if abs(value) <= no
                             else "AMBIGUOUS")
                    _require(problems, row["label"] == label, "classify: label differs")
            values = np.array([row["phi"] for row in labels])
            expected = oracles.expected_chain_phi(u, k)
            sigma = float(values.std(ddof=1)) / math.sqrt(count)
            _require(problems, abs(float(values.mean()) - expected) <= 4.0 * sigma,
                     "classify: mean chain phi beyond 4 sigma of (1/N) 1^T M^2 1")

        if uniform:
            flat_phi = oracles.phi_chain(u, flat)
            lines = [json.loads(line) for line in uniform["stdout"].splitlines()]
            _require(problems, len(lines) == count and all(
                abs(row["phi"] - value) <= 1e-9 for row, value in zip(lines, flat_phi)),
                "rorrelate: phi differs")

        if simulated:
            runs = [json.loads(line) for line in simulated["stdout"].splitlines()]
            _require(problems, len(runs) == count, "qsim: line count")
            for row, value in zip(runs, chain_phi):
                _require(problems, abs(row["phi"] - value) <= 1e-9
                         and abs(row["p_accept"] - (1.0 + value) / 2.0) <= 1e-9,
                         "qsim: phi or acceptance probability differs")
                _require(problems, row["queries"] == (k + 1) // 2
                         and row["repetitions"] == math.ceil(64 * 4 ** k),
                         "qsim: query counts")

        if audit:
            doc = json.loads(audit["stdout"])
            _require(problems, (doc["n"], doc["k"], len(doc["rows"]), doc["violations"])
                     == (n, k, PIPELINE_TRIALS, []), "moments: audit shape or violations")
            for row in doc["rows"]:
                size = sum(len(part) for part in row["S"])
                _require(problems, size == row["size"]
                         and oracles.close(row["bound"], oracles.moment_bound(size, n, k)),
                         f"moments: bound for |S|={row['size']}")
        # Each message once, so a systematic fault reads as one line.
        return list(dict.fromkeys(problems))


WORKLOADS = {w.name: w for w in (VerifyFull(), AdvantageCorpus(), FourierDeep(),
                                 Pipeline2048())}
