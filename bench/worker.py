"""One workload in one single-threaded process: set up, run timed rounds, check.

Started by ``run.py``; prints one JSON object on its last stdout line.  Run
from the repository root with ``PYTHONPATH=src``:

    python3 bench/worker.py --workload curve-algebra --seed 1 --seconds 5
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from reference import CheckFailed
from tracing import MODULES, Tracer
from workloads import CliSession, CurveAlgebra, OracleCrosscheck, ReservoirPipeline

MIN_OPS = 100  # enough for ten samples beyond the 90th percentile
ROOT = Path.cwd()
OUT_DIR = ROOT / ".bench_out"


def make_workload(name: str, seed: int, traced: bool):
    if name == "cli-session":
        env = dict(os.environ)
        return CliSession(OUT_DIR / f"cli-{os.getpid()}", env, seed, in_process=traced)
    return {w.name: w for w in (ReservoirPipeline(), CurveAlgebra(), OracleCrosscheck())}[name]


def import_program() -> SimpleNamespace:
    """Import every thermomajor module and check it is this checkout's."""
    package = importlib.import_module("thermomajor")
    expected = (ROOT / "src" / "thermomajor").resolve()
    if Path(package.__file__).resolve().parent != expected:
        raise SystemExit(f"thermomajor imported from {package.__file__}, not {expected}")
    for short in MODULES:
        importlib.import_module("thermomajor." + short)
    return SimpleNamespace(package=package, **{m: getattr(package, m) for m in MODULES})


def run_op(workload, tm, op, errors: list):
    """Run one operation; returns (latency in s, output or None if it failed)."""
    start = time.perf_counter()
    try:
        out = workload.run(tm, op)
    except Exception as exc:  # a failing operation is counted, not fatal
        out = None
        errors.append(f"{type(exc).__name__}: {exc}".strip().splitlines()[-1])
    return time.perf_counter() - start, out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = make_workload(args.workload, args.seed, args.trace)
    try:
        return measure(workload, args)
    finally:
        if isinstance(workload, CliSession):
            shutil.rmtree(workload.dir, ignore_errors=True)


def measure(workload, args) -> int:
    ops = workload.make_round(random.Random(args.seed))
    warm = workload.warmup(ops)

    start = time.perf_counter()
    tm = import_program()
    warm_out = [run_op(workload, tm, op, [])[1] for op in warm]
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    latencies: list[float] = []
    errors: list[str] = []
    failures: list[str] = []
    for op, out in zip(warm, warm_out):
        try:
            if out is not None:
                workload.check(op, out)
        except CheckFailed as exc:
            failures.append(f"warm-up {op[0]}: {exc}")

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(tm.package)
        for op in warm:
            run_op(workload, tm, op, [])
        tracer.reset()

    attempted = 0
    busy = 0.0
    loop_start = time.perf_counter()
    while time.perf_counter() - loop_start < args.seconds or attempted < MIN_OPS:
        for op in ops:
            if tracer is not None:
                tracer.op = attempted
            attempted += 1
            latency, out = run_op(workload, tm, op, errors)
            busy += latency
            if out is None:
                continue
            latencies.append(latency)
            try:
                workload.check(op, out)
            except CheckFailed as exc:
                failures.append(f"{op[0]}: {exc}")
    wall = time.perf_counter() - loop_start

    result = {
        "attempted": attempted,
        "failed": attempted - len(latencies),
        "correct": not failures,
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / busy,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1e3,
        "samples": len(latencies),
        "errors": sorted(set(errors)),
        "check_failures": failures[:5],
    }
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli-session" else resource.RUSAGE_SELF
    result["peak_rss_mib"] = resource.getrusage(usage).ru_maxrss / 1024.0
    if tracer is not None:
        metrics = tracer.metrics(wall)
        metrics["trace.ops_per_s"] = (result["ops_per_s"], "op/s")
        result["per_layer"] = metrics
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
