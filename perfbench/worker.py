"""The workload process: warm up, signal READY, run rounds on request.

Started by run.py, never by hand:

    worker.py WORKLOAD WORK_DIR TRACE      run the workload
    worker.py WORKLOAD WORK_DIR --probe    warm up and exit

The process prints `READY` on stdout once rorrlab is imported and warmed
up; run.py times setup_s up to that line. It then reads one line per
round from stdin: `round` runs every operation of the workload once and
prints that round's figures as one JSON line; anything else ends the
process, which then prints a last JSON line with the operation count
and the peak resident set. The first round's records are written to
WORK_DIR/op-<i>.json. run.py decides how many rounds fit, and launches
set-up probes between them.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


def run_op(cli, op) -> tuple[dict, float, float]:
    """(record, wall seconds, CPU seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    cpu0 = time.process_time()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a fault of the program: the operation failed
            kind = type(exc)
            name = kind.__qualname__ if kind.__module__ == "builtins" else (
                f"{kind.__module__}.{kind.__qualname__}")
            error = f"{name}: {exc}"
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    record = {"argv": list(op.argv), "expect": op.expect, "rc": rc,
              "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error}
    return record, wall, cpu


def main(argv: list[str]) -> int:
    import rorrlab

    if Path(rorrlab.__file__).resolve().parent != ROOT / "src" / "rorrlab":
        print(f"error: rorrlab imported from {rorrlab.__file__}", file=sys.stderr)
        return 2
    from rorrlab import cli

    import workloads

    workload = workloads.WORKLOADS[argv[0]]
    work = Path(argv[1])
    inputs = json.loads((work / "inputs.json").read_text())
    workload.warmup(inputs)
    print("READY", flush=True)
    if argv[2] == "--probe":
        return 0
    trace = argv[2] == "1"

    ops = workload.ops(inputs)
    tracer = None
    if trace:
        import layers
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, layers.LAYERS, tracing.package_modules("rorrlab"))

    peak_mb = None
    for line in sys.stdin:
        if line.strip() != "round":
            break
        gc.collect()
        if tracer is not None:
            tracer.reset()
        walls = []
        cpu = 0.0
        failed = 0
        digest = hashlib.sha256()
        for index, op in enumerate(ops):
            record, op_wall, op_cpu = run_op(cli, op)
            walls.append(op_wall)
            cpu += op_cpu
            record["failed"] = workloads.op_failed(op, record)
            failed += record["failed"]
            digest.update(workloads.fingerprint(op, record).encode())
            if peak_mb is None:
                (work / f"op-{index}.json").write_text(json.dumps(record))
        figures = {"op_wall_s": walls, "cpu_s": cpu, "failed": failed,
                   "digest": digest.hexdigest()}
        if tracer is not None:
            figures["layers"] = tracing.summarize(tracer.spans, layers.LAYERS)
            figures["layers"]["proc.cpu_s"] = cpu
        if peak_mb is None:
            # Later rounds reuse what the first one allocated; the peak of
            # the first round does not depend on how many rounds fit.
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(figures), flush=True)
    print(json.dumps({"ops": len(ops), "peak_rss_mb": peak_mb}), flush=True)
    return 0

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
