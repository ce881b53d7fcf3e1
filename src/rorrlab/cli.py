"""Experiment command line: sampling, checking, simulating, reporting.

Subcommands: sample-matrix, check-good, rorrelate, classify, sample-dist,
moments, qsim, fourier, tree-corpus, advantage, verify-paper, report.
Every command validates its inputs before any file is written and writes
output files atomically. Randomness is controlled by --seed everywhere.
A refused input (a ValueError or OSError from any layer) ends in exit
code 2 and one `error:` line on stderr, printed by `main` alone.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import __version__, boolfn, dist, distinguish, dtree, ortho, qsim, rorrelation
from .verify import (
    VerifyConfig,
    build_manifest,
    manifest_to_json,
    run_all,
    CHECK_NAMES,
)


def _atomic_write(path: str | Path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _emit(text: str, out: str | None) -> None:
    """Write `text` to --out (atomically) when given, and echo it to stdout
    ending with one newline."""
    if out:
        _atomic_write(out, text)
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def cmd_sample_matrix(args) -> int:
    u = ortho.sample_haar(args.n, args.seed)
    digest = ortho.save_matrix(args.out, u)
    if args.csv:
        ortho.save_matrix_csv(args.csv, u)
    print(json.dumps({"n": args.n, "seed": args.seed, "path": args.out,
                      "sha256": digest}))
    return 0


def cmd_check_good(args) -> int:
    u = ortho.load_matrix(args.matrix)
    report = ortho.check_goodness(u, sampled_pairs=args.pairs,
                                  max_block=args.max_block, seed=args.seed)
    _emit(report.to_json(), args.out)
    return 0 if report.violation_count == 0 else 1


def _per_instance(args, row) -> int:
    """One sorted JSON line per instance of --instances, row(u, index, instance)
    giving its fields, with U read from --matrix."""
    u = ortho.load_matrix(args.matrix)
    instances, _, _ = rorrelation.load_instances(args.instances)
    lines = [json.dumps(row(u, i, inst), sort_keys=True) for i, inst in enumerate(instances)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_rorrelate(args) -> int:
    return _per_instance(args, lambda u, _, inst: {
        "k": inst.k, "N": inst.n, "phi": rorrelation.phi(u, inst.vectors)})


def cmd_classify(args) -> int:
    def row(u, _, inst):
        label = rorrelation.classify(u, inst.vectors)
        return {"k": inst.k, "N": inst.n, "phi": label.phi, "label": label.tag.value}
    return _per_instance(args, row)


def cmd_sample_dist(args) -> int:
    if args.count < 1:
        raise ValueError("count must be positive")
    if args.dist == "duk":
        if not args.matrix:
            raise ValueError("--matrix required for the chain distribution")
        u = ortho.load_matrix(args.matrix)
        batch = dist.sample_duk_batch(u, args.k, args.count, args.seed)
        matrix_path = args.matrix
        matrix_hash = ortho.file_sha256(args.matrix)
        n = u.n
    else:
        if not args.n:
            raise ValueError("--n required for the uniform distribution")
        batch = dist.sample_uniform_batch(args.k, args.n, args.count, args.seed)
        matrix_path = ""
        matrix_hash = ""
        n = args.n
    instances = [
        rorrelation.RorrelationInstance(k=args.k, vectors=batch[i],
                                        matrix_ref=matrix_hash)
        for i in range(args.count)
    ]
    rorrelation.save_instances(args.out, instances, matrix_path=matrix_path,
                               matrix_hash=matrix_hash)
    print(json.dumps({"dist": args.dist, "k": args.k, "N": n,
                      "count": args.count, "path": args.out}))
    return 0


def _parse_parts(text: str) -> list[tuple[int, ...]]:
    """Block parts like '1,2;;3' -> [(1,2), (), (3,)] (1-based, ; between blocks)."""
    return [tuple(int(v) for v in chunk.split(",") if v.strip()) for chunk in text.split(";")]


def cmd_moments(args) -> int:
    u = ortho.load_matrix(args.matrix)
    if args.audit:
        report = dist.moment_bound_audit(
            u, args.k, trials=args.trials, max_size=args.max_size,
            seed=args.seed, mc_samples=args.mc_samples,
        )
        _emit(report.to_json(), args.out)
        return 0 if not report.violations else 1
    if not args.set:
        raise ValueError("provide --set or --audit")
    parts = _parse_parts(args.set)
    if len(parts) != args.k:
        raise ValueError(f"--set must list exactly k={args.k} blocks")
    est = dist.d_hat_product(u, parts, method=args.method,
                             samples=args.mc_samples, seed=args.seed)
    size = sum(len(p) for p in parts)
    doc = {
        "parts": [list(p) for p in parts],
        "estimate": est.value,
        "stderr": est.stderr,
        "exact": est.exact,
        "bound": dist.duk_moment_bound(size, u.n, args.k) if size >= 1 else None,
    }
    _emit(json.dumps(doc, sort_keys=True), args.out)
    return 0


def cmd_qsim(args) -> int:
    def row(u, i, inst):
        run = qsim.simulate_circuit(u, inst.vectors)
        reps = args.repetitions or qsim.default_repetitions(inst.k)
        decision = qsim.amplify(run, reps, seed=args.seed + i)
        return {
            "phi": run.branch_inner_product,
            "p_accept": run.acceptance_probability,
            "queries": run.queries,
            "repetitions": reps,
            "verdict": "accept" if decision.accept else "reject",
        }
    return _per_instance(args, row)


def cmd_fourier(args) -> int:
    if args.tree:
        tree = dtree.tree_from_json(Path(args.tree).read_text())
        spec = dtree.sparse_fourier(tree, boolfn.OutputConvention(args.convention))
    elif args.table:
        if args.table.endswith(".csv"):
            values = boolfn.read_truth_table_csv(args.table).astype(float)
        else:
            values = boolfn.read_truth_table_bytes(args.table).astype(float)
        # Both readers refuse tables whose length is not a power of two.
        spec = boolfn.fourier_from_truth_table(values, values.size.bit_length() - 1)
    else:
        raise ValueError("provide --table or --tree")
    _emit(boolfn.spectrum_to_json(spec), args.out)
    return 0


def cmd_tree_corpus(args) -> int:
    out_dir = Path(args.out_dir)
    if args.count < 1:
        raise ValueError("count must be positive")
    if args.d > args.n:
        raise ValueError("depth cannot exceed variable count")
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_lines = []
    for i in range(args.count):
        tree = dtree.random_tree(args.n, args.d, args.seed + i)
        text = dtree.tree_to_json(tree)
        name = f"tree_{i:04d}.json"
        _atomic_write(out_dir / name, text)
        manifest_lines.append(json.dumps({
            "file": name,
            "n": args.n,
            "d": args.d,
            "seed": args.seed + i,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
        }, sort_keys=True))
    _atomic_write(out_dir / "corpus.jsonl", "\n".join(manifest_lines) + "\n")
    print(json.dumps({"count": args.count, "dir": str(out_dir)}))
    return 0


def cmd_advantage(args) -> int:
    u = ortho.load_matrix(args.matrix)
    if args.tree:
        tree = dtree.tree_from_json(Path(args.tree).read_text())
        pairs = [(Path(args.tree).stem, tree)]
    else:
        pairs = distinguish.standard_corpus(u, args.k, args.seed)
    reports = distinguish.advantage_corpus(pairs, u, args.k, args.samples, args.seed)
    worst = max(
        (abs(r.estimate) / max(r.theory_bound, 1e-300) for r in reports),
        default=0.0,
    )
    _emit("\n".join(r.to_json() for r in reports) + "\n", args.out)
    print(f"# max |advantage| / bound = {worst:.4f}", file=sys.stderr)
    return 0


def cmd_verify_paper(args) -> int:
    cfg = VerifyConfig.reduced() if args.reduced else VerifyConfig()
    if args.config:
        cfg = cfg.with_overrides(json.loads(Path(args.config).read_text()))
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    names = args.checks.split(",") if args.checks else None
    if names:
        bad = [n for n in names if n not in CHECK_NAMES]
        if bad:
            raise ValueError(f"unknown checks {bad}")
    started = time.perf_counter()
    results = run_all(cfg, names)
    manifest = build_manifest(cfg, results)
    text = manifest_to_json(manifest)
    if args.out:
        _atomic_write(args.out, text)
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name} ({r.runtime_seconds:.2f}s)")
    print(f"total {time.perf_counter() - started:.2f}s; "
          f"{'all passed' if manifest['all_passed'] else 'FAILURES PRESENT'}")
    return 0 if manifest["all_passed"] else 1


def _report_rows(manifest: dict) -> list[dict]:
    rows = []
    for check in manifest["checks"]:
        name, details = check["name"], check["details"]
        if name == "expected_phi":
            for row in details.get("monte_carlo", []):
                rows.append({"check": name, "quantity": f"E[phi] k={row['k']}",
                             "measured": row["estimate"],
                             "reference": row["exact"], "passed": row["passed"]})
        elif name == "uniform_variance":
            rows.append({"check": name, "quantity": "Var[phi] uniform",
                         "measured": details["empirical_variance"],
                         "reference": details["target"],
                         "passed": details["empirical_passed"]})
        elif name == "level_bounds":
            for key in ("max_binom_ratio", "max_level1_ratio", "max_level_ell_ratio"):
                rows.append({"check": name, "quantity": key,
                             "measured": details[key], "reference": 1.0,
                             "passed": details[key] <= 1.0})
        elif name == "distinguishing_sanity":
            for row in details.get("envelope", []):
                rows.append({"check": name,
                             "quantity": f"advantage {row['tree']} N={row['n']}",
                             "measured": row["advantage"],
                             "reference": row["bound"], "passed": row["passed"]})
        else:
            rows.append({"check": name, "quantity": "passed",
                         "measured": float(check["passed"]), "reference": 1.0,
                         "passed": check["passed"]})
    return rows


def _write_csv(path: Path, fieldnames: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def cmd_report(args) -> int:
    manifests = [json.loads(Path(path).read_text()) for path in args.manifests]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    all_rows = []
    for path, manifest in zip(args.manifests, manifests):
        for row in _report_rows(manifest):
            all_rows.append({"manifest": Path(path).name, **row})

    csv_path = out_dir / "report.csv"
    _write_csv(csv_path, ["manifest", "check", "quantity", "measured", "reference",
                          "passed"], all_rows)
    shape_path = out_dir / "advantage_vs_bound.csv"
    _write_csv(shape_path, ["manifest", "quantity", "measured", "reference"],
               [r for r in all_rows if r["check"] == "distinguishing_sanity"])

    lines = ["# Verification report", ""]
    lines.append("| manifest | check | quantity | measured | reference | passed |")
    lines.append("|---|---|---|---|---|---|")
    for r in all_rows:
        lines.append(
            f"| {r['manifest']} | {r['check']} | {r['quantity']} "
            f"| {r['measured']:.6g} | {r['reference']:.6g} | {r['passed']} |"
        )
    lines.append("")
    lines.append(f"Plot data: `{shape_path.name}` (advantage vs bound shape).")
    md_path = out_dir / "report.md"
    _atomic_write(md_path, "\n".join(lines) + "\n")
    print(json.dumps({"csv": str(csv_path), "markdown": str(md_path),
                      "sidecar": str(shape_path), "rows": len(all_rows)}))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rorrlab",
        description="Rorrelation laboratory: sample, simulate, verify, report.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample-matrix", help="sample a Haar orthogonal matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", help="also export entries as CSV")
    p.set_defaults(func=cmd_sample_matrix)

    p = sub.add_parser("check-good", help="goodness certificate for a matrix file")
    p.add_argument("--matrix", required=True)
    p.add_argument("--pairs", type=int, default=10_000)
    p.add_argument("--max-block", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_check_good)

    p = sub.add_parser("rorrelate", help="phi values for stored instances")
    p.add_argument("--matrix", required=True)
    p.add_argument("--instances", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_rorrelate)

    p = sub.add_parser("classify", help="YES/NO/AMBIGUOUS labels for instances")
    p.add_argument("--matrix", required=True)
    p.add_argument("--instances", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sample-dist", help="draw instances from a distribution")
    p.add_argument("--dist", choices=["duk", "uniform"], required=True)
    p.add_argument("--matrix")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample_dist)

    p = sub.add_parser("moments", help="moment estimates and bound audits")
    p.add_argument("--matrix", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--set", help="block parts, e.g. '1,2;3' (k blocks, ';' separated)")
    p.add_argument("--method", choices=["exact-when-1x1", "mc"],
                   default="exact-when-1x1")
    p.add_argument("--audit", action="store_true")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--max-size", type=int, default=6)
    p.add_argument("--mc-samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("qsim", help="simulate the quantum circuit on instances")
    p.add_argument("--matrix", required=True)
    p.add_argument("--instances", required=True)
    p.add_argument("--repetitions", type=int, default=0,
                   help="amplification repetitions (default 64*4^k)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_qsim)

    p = sub.add_parser("fourier", help="spectrum of a truth table or tree file")
    p.add_argument("--table", help="truth table (.csv of +-1 or raw 0/1 bytes)")
    p.add_argument("--tree", help="tree JSON file")
    p.add_argument("--convention", choices=["01", "pm1"], default="01")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fourier)

    p = sub.add_parser("tree-corpus", help="generate a random tree corpus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_tree_corpus)

    p = sub.add_parser("advantage", help="distinguishing advantage of trees")
    p.add_argument("--matrix", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--tree", help="tree JSON file (default: standard corpus)")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_advantage)

    p = sub.add_parser("verify-paper", help="run the acceptance suite")
    p.add_argument("--config", help="JSON file overriding config fields")
    p.add_argument("--reduced", action="store_true",
                   help="reduced sample counts (smoke/determinism runs)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--checks", help="comma-separated subset of checks")
    p.add_argument("--out", help="manifest JSON path")
    p.set_defaults(func=cmd_verify_paper)

    p = sub.add_parser("report", help="aggregate manifests into CSV + Markdown")
    p.add_argument("manifests", nargs="+")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
