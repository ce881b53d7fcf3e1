"""Benchmark for rorrlab: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ./src.
The benchmark makes the workload's inputs from the seed, starts fresh
workload processes with a fixed BLAS thread count, checks the outputs of
the first round against its own computations, and prints as its last
line `{"correct", "attempted", "failed", "metrics"}`. With --trace 0
the metrics are the end-to-end ones (wall_s, setup_s, peak_rss_mb);
with --trace 1 they are the per-layer ones from a traced process.
Workloads, metrics and bounds are defined in spec.py; see README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

# Every process must end well inside the 180 s a run may take.
DEADLINE_S = 160.0


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(spec.BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["RORRLAB_WORKERS"] = "1"
    env.pop("PYTHONPATH", None)
    return env


class Worker:
    """A workload process (worker.py), killed at the deadline.

    setup_s is the time from starting the interpreter until its READY line.
    """

    def __init__(self, args: list[str], deadline: float):
        started = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT, env=worker_env())
        self.watchdog = threading.Timer(max(deadline - started, 1.0), self.proc.kill)
        self.watchdog.start()
        ready = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - started
        if ready.strip() != "READY":
            raise RuntimeError(f"workload process exited with code {self.stop()} before READY")

    def request(self, line: str) -> dict:
        """Send one line; the JSON line the process answers with."""
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"workload process exited with code {self.stop()}")
        return json.loads(reply)

    def stop(self) -> int:
        """Close its stdin, give it a few seconds to end, then kill it; its exit code."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            code = self.proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.watchdog.cancel()
        self.proc.stdout.close()
        return code


def probe(workload: str, work: Path, deadline: float) -> float:
    """Seconds until READY of a workload process that warms up and exits."""
    process = Worker([workload, str(work), "--probe"], deadline)
    code = process.stop()
    if code != 0:
        raise RuntimeError(f"set-up probe exited with code {code}")
    return process.setup_s


def median_wall(rounds: list[dict]) -> float:
    """Each operation's median wall time over the rounds, summed.

    Unlike the median of the round totals, this also sets aside a slow
    stretch of the machine that spans parts of two rounds.
    """
    return sum(statistics.median(walls) for walls in zip(*(r["op_wall_s"] for r in rounds)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w for w, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind through the `finally` blocks that stop the
    # workload process and remove the work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "rorrlab" / "__init__.py").is_file():
        print(f"error: no rorrlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S

    # Inputs and checks run here, so the workload process holds only the
    # program's own memory; this process gets the same thread count.
    os.environ.update({k: v for k, v in worker_env().items() if k.endswith("_THREADS")})
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = workload.make_inputs(work, args.seed)
        (work / "inputs.json").write_text(json.dumps(inputs))
        # setup_s is the median over spec.SETUP_LAUNCHES launches: the
        # workload process and probes that warm up and exit, a few before
        # it, between its rounds and after. The machine's slow stretches
        # last seconds, so launches spread over the run sample more of them
        # than back-to-back ones.
        launches = 1 if args.trace else spec.SETUP_LAUNCHES
        setups = [probe(args.workload, work, deadline)
                  for _ in range(min(spec.PROBES_PER_GAP, launches - 1))]
        worker = Worker([args.workload, str(work), str(args.trace)], deadline)
        try:
            setups.append(worker.setup_s)
            rounds = []
            active = 0.0
            while True:
                started = time.perf_counter()
                rounds.append(worker.request("round"))
                active += time.perf_counter() - started
                last = active + active / len(rounds) > args.seconds
                gap = launches - len(setups) if last else spec.PROBES_PER_GAP
                setups += [probe(args.workload, work, deadline)
                           for _ in range(min(gap, launches - len(setups)))]
                if last:
                    break
            summary = worker.request("end")
        finally:
            code = worker.stop()
        if code != 0:
            raise RuntimeError(f"workload process exited with code {code}")
        records = [json.loads((work / f"op-{i}.json").read_text())
                   for i in range(summary["ops"])]
        # The checks skip the failed operations and check all the others.
        try:
            problems = workload.check(inputs, records)
        except Exception as exc:  # output the checks cannot read is wrong output
            problems = [f"checking the outputs raised {type(exc).__name__}: {exc}"]
        if len({r["digest"] for r in rounds}) > 1:
            problems.append("outputs differ between rounds of one run")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for record in records:
        if record["failed"]:
            print(f"operation failed: {record['argv'][0]}: "
                  f"{record['error'] or record['stderr'].strip()[:200]}", file=sys.stderr)
    walls = [sum(r["op_wall_s"]) for r in rounds]
    print(f"rounds={len(rounds)} wall_s={[round(w, 4) for w in walls]} "
          f"cpu_s={[round(r['cpu_s'], 4) for r in rounds]} "
          f"setup_s={[round(s, 4) for s in setups]}", file=sys.stderr)
    if args.trace:
        names = [name for name, _, _ in spec.per_layer_metrics()]
        units = {name: unit for name, unit, _ in spec.per_layer_metrics()}
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in rounds),
                          "unit": units[name]} for name in names}
    else:
        metrics = {"wall_s": {"value": median_wall(rounds), "unit": "s"},
                   "setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"}}
    print(json.dumps({
        "correct": not problems,
        "attempted": len(rounds) * summary["ops"],
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
