"""Experiment command line: sampling, checking, simulating, reporting.

Subcommands: sample-matrix, check-good, rorrelate, classify, sample-dist,
moments, qsim, fourier, tree-corpus, advantage, verify-paper, report.
Every command validates its inputs before any file is written and writes
output files atomically; a command that writes several files writes them
as one set (util.file_set), so a failure leaves every target as it was.
Randomness is controlled by --seed everywhere.
A refused input or usage (a ValueError or OSError from any layer) ends
in exit code 2 and one `error:` line on stderr, printed by `main` alone.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__, boolfn, dist, distinguish, dtree, ortho, qsim, rorrelation
from .util import atomic_write, chunk_spans, derive_rng, file_set
from .verify import (
    VerifyConfig,
    build_manifest,
    manifest_from_json,
    manifest_to_json,
    report_rows,
    run_all,
)


def _emit(text: str, out: str | None) -> None:
    """Write `text` to --out (atomically) when given, and echo it to stdout
    ending with one newline unless it is empty, without copying it."""
    if out:
        atomic_write(out, text)
    sys.stdout.write(text)
    if text and not text.endswith("\n"):
        sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def cmd_sample_matrix(args) -> int:
    # Refused before anything is allocated: the 8 n^2 entry bytes are the
    # budget, and the seed is stored as the file's unsigned 64-bit field.
    limit = math.isqrt(ortho.MAX_MATRIX_BYTES // 8)
    if args.n < 1:
        raise ValueError(f"--n {args.n} is not a positive dimension")
    if args.n > limit:
        raise ValueError(f"--n {args.n} is over the limit of {limit}: its entries would take "
                         f"more than {ortho.MAX_MATRIX_BYTES} bytes")
    if not 0 <= args.seed < 1 << 64:
        raise ValueError(f"--seed {args.seed} does not fit the unsigned 64-bit seed field "
                         "of a matrix file")
    u = ortho.sample_haar(args.n, args.seed)
    with file_set() as stage:
        digest = ortho.save_matrix(stage(args.out), u)
        if args.csv:
            ortho.save_matrix_csv(stage(args.csv), u)
    print(json.dumps({"n": args.n, "seed": args.seed, "path": args.out,
                      "sha256": digest}))
    return 0


def cmd_check_good(args) -> int:
    # Refused before the matrix file is read.
    if args.pairs < 0:
        raise ValueError(f"--pairs {args.pairs} is a negative count")
    if args.max_block < 1:
        raise ValueError(f"--max-block {args.max_block} is below 1, the least block size")
    u = ortho.load_matrix(args.matrix)
    report = ortho.check_goodness(u, sampled_pairs=args.pairs,
                                  max_block=args.max_block, seed=args.seed)
    _emit(report.to_json(), args.out)
    return 0 if report.violation_count == 0 else 1


def _per_instance(args, rows) -> int:
    """One sorted JSON line per instance of --instances; rows(u, block) gives
    the fields of every instance of an (m, k, N) block of the batch, in
    order, with U read from --matrix. The instance file is read first, so a
    malformed one, or one that stores another matrix file's sha256, is
    refused before U is Gram-checked. The blocks are chunk_spans' spans of
    at most MC_CHUNK entries; an instance's values do not depend on its
    block (the row floor of rorrelation.check_batch). The lines are written
    once all blocks are scored, so a refused block prints nothing."""
    batch, _, matrix_hash = rorrelation.load_instance_batch(args.instances)
    u = ortho.load_matrix(args.matrix, sha256=matrix_hash)
    count, k, n = batch.shape
    lines = [json.dumps(row, sort_keys=True) for start, stop in chunk_spans(count, k * n)
             for row in rows(u, batch[start:stop])]
    if lines:
        lines.append("")  # the last line's newline, without copying the joined text
    _emit("\n".join(lines), args.out)
    return 0


def cmd_rorrelate(args) -> int:
    return _per_instance(args, lambda u, batch: [
        {"k": batch.shape[1], "N": u.n, "phi": float(value)}
        for value in rorrelation.phi_batch(u, batch)])


def cmd_classify(args) -> int:
    def rows(u, batch):
        k = batch.shape[1]
        return [{"k": k, "N": u.n, "phi": float(value),
                 "label": rorrelation.classify_value(float(value), k).value}
                for value in rorrelation.phi_batch(u, batch)]
    return _per_instance(args, rows)


def cmd_sample_dist(args) -> int:
    # Every option is refused before the matrix file is read.
    if args.k < 2:
        raise ValueError(f"--k {args.k} is below 2, the least fold count")
    if args.count < 1:
        raise ValueError(f"--count {args.count} is not a positive count")
    if args.dist == "duk":
        if args.n is not None:
            raise ValueError("--n cannot be used with --dist duk, which takes N from --matrix")
        if not args.matrix:
            raise ValueError("--matrix required for the chain distribution")
        u = ortho.load_matrix(args.matrix)
        batch = dist.sample_duk_batch(u, args.k, args.count, args.seed)
        matrix_path, matrix_hash = args.matrix, ortho.matrix_sha256(u)
    else:
        if args.matrix is not None:
            raise ValueError("--matrix cannot be used with --dist uniform")
        if args.n is None:
            raise ValueError("--n required for the uniform distribution")
        if args.n < 1:
            raise ValueError(f"--n {args.n} is not a positive dimension")
        batch = dist.sample_uniform_batch(args.k, args.n, args.count, args.seed)
        matrix_path = matrix_hash = ""
    rorrelation.save_instance_batch(args.out, batch, matrix_path=matrix_path,
                                    matrix_hash=matrix_hash)
    print(json.dumps({"dist": args.dist, "k": args.k, "N": batch.shape[2],
                      "count": args.count, "path": args.out}))
    return 0


def _parse_parts(text: str) -> list[tuple[int, ...]]:
    """Block parts like '1,2;;3' -> [(1,2), (), (3,)] (1-based, ; between blocks)."""
    try:
        return [tuple(int(v) for v in chunk.split(",") if v.strip())
                for chunk in text.split(";")]
    except ValueError as exc:  # int() names the bad entry
        raise ValueError(f"--set {text!r}: {exc}") from None


def cmd_moments(args) -> int:
    # Options of the mode that does not run are refused, and the options of
    # the one that does are checked in full, before the matrix file is read.
    if args.k < 2:
        raise ValueError(f"--k {args.k} is below 2, the least fold count")
    if args.audit:
        if args.set is not None:
            raise ValueError("--set cannot be used with --audit")
        trials = 200 if args.trials is None else args.trials
        max_size = 6 if args.max_size is None else args.max_size
        if trials < 1:
            raise ValueError(f"--trials {trials} is not a positive count")
        if max_size < args.k:
            raise ValueError(f"--max-size {max_size} is below --k {args.k}: a set has at "
                             "least one index per block")
        report = dist.moment_bound_audit(ortho.load_matrix(args.matrix), args.k, trials=trials,
                                         max_size=max_size, seed=args.seed,
                                         mc_samples=args.mc_samples)
        _emit(report.to_json(), args.out)
        return 0 if not report.violations else 1
    for flag, value in (("--trials", args.trials), ("--max-size", args.max_size)):
        if value is not None:
            raise ValueError(f"{flag} needs --audit")
    if not args.set:
        raise ValueError("provide --set or --audit")
    parts = _parse_parts(args.set)
    if len(parts) != args.k:
        raise ValueError(f"--set must list exactly k={args.k} blocks")
    u = ortho.load_matrix(args.matrix)
    est = dist.d_hat_product(u, parts, samples=args.mc_samples, seed=args.seed)
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
    if args.repetitions < 0:
        raise ValueError(f"--repetitions {args.repetitions} is negative; give a positive "
                         "count, or 0 for 64*4^k")
    rng = None  # one verdict stream for the file, drawn in instance order across blocks

    def rows(u, batch):
        nonlocal rng
        k = batch.shape[1]
        reps = args.repetitions or qsim.default_repetitions(k)
        if rng is None:
            rng = derive_rng(args.seed, "amplify", u.n, k, reps)
        prob, inner, _ = qsim.simulate_batch(u, batch)
        accept = qsim.amplify(prob, reps, rng) > reps * qsim.amplification_threshold(k)
        return [{"phi": float(c), "p_accept": float(p), "queries": qsim.query_count(k),
                 "repetitions": reps, "verdict": "accept" if a else "reject"}
                for p, c, a in zip(prob, inner, accept)]
    return _per_instance(args, rows)


def cmd_fourier(args) -> int:
    if args.tree:
        # No name holds the tree, so it and its cached spectrum go before encoding.
        spec = dtree.sparse_fourier(dtree.tree_from_json(Path(args.tree).read_text()),
                                    boolfn.OutputConvention(args.convention or "01"))
    elif args.table:
        if args.table.endswith(".csv"):
            values, native = boolfn.read_truth_table_csv(args.table), "pm1"
        else:
            values, native = boolfn.read_truth_table_bytes(args.table), "01"
        # Both readers refuse tables whose length is not a power of two.
        spec = boolfn.fourier_from_truth_table(values, values.size.bit_length() - 1)
        if args.convention and args.convention != native:
            spec = boolfn.convert_spectrum(spec, boolfn.OutputConvention(args.convention))
    else:
        raise ValueError("provide --table or --tree")
    _emit(boolfn.spectrum_to_json(spec), args.out)
    return 0


def cmd_tree_corpus(args) -> int:
    out_dir = Path(args.out_dir)
    if args.count < 1:
        raise ValueError(f"--count {args.count} is not a positive count")
    dtree.check_random_tree_shape(args.n, args.d)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_lines = []
    with file_set() as stage:
        for i in range(args.count):
            tree = dtree.random_tree(args.n, args.d, args.seed + i)
            text = dtree.tree_to_json(tree)
            name = f"tree_{i:04d}.json"
            atomic_write(stage(out_dir / name), text)
            manifest_lines.append(json.dumps({
                "file": name,
                "n": args.n,
                "d": args.d,
                "seed": args.seed + i,
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
            }, sort_keys=True))
        atomic_write(stage(out_dir / "corpus.jsonl"), "\n".join(manifest_lines) + "\n")
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
    results = run_all(cfg, names)
    manifest = build_manifest(cfg, results)
    text = manifest_to_json(manifest)
    if args.out:
        atomic_write(args.out, text)
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name} ({r.runtime_seconds:.2f}s)")
    print(f"total {manifest['timing']['total_seconds']:.2f}s; "
          f"{'all passed' if manifest['all_passed'] else 'FAILURES PRESENT'}")
    return 0 if manifest["all_passed"] else 1


def _write_csv(path: Path, fieldnames: list[str], rows: list[dict]) -> None:
    text = io.StringIO(newline="")
    writer = csv.DictWriter(text, fieldnames=fieldnames, extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)
    atomic_write(path, text.getvalue())


def cmd_report(args) -> int:
    all_rows = []
    for path in args.manifests:
        manifest = manifest_from_json(Path(path).read_text())
        for row in report_rows(manifest):
            all_rows.append({"manifest": Path(path).name, **row})
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with file_set() as stage:
        csv_path = out_dir / "report.csv"
        _write_csv(stage(csv_path), ["manifest", "check", "quantity", "measured",
                                     "reference", "passed"], all_rows)
        shape_path = out_dir / "advantage_vs_bound.csv"
        _write_csv(stage(shape_path), ["manifest", "quantity", "measured", "reference"],
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
        atomic_write(stage(md_path), "\n".join(lines) + "\n")
    print(json.dumps({"csv": str(csv_path), "markdown": str(md_path),
                      "sidecar": str(shape_path), "rows": len(all_rows)}))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # subparsers inherit it; main prints one line
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--audit", action="store_true")
    p.add_argument("--trials", type=int, help="audit only (default 200)")
    p.add_argument("--max-size", type=int, help="audit only (default 6)")
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
    p.add_argument("--convention", choices=["01", "pm1"],
                   help="output convention (default: 01 for a tree, the table's own "
                        "alphabet for a table)")
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
    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:
            raise ValueError(f"rorrlab {args.command}: unrecognized arguments: {' '.join(extra)}")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
