"""Run one benchmark workload and print its metrics as one JSON line.

From the repository root:

    python3 bench/run.py --workload reservoir-pipeline --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics of a separate traced run.  The last stdout line is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

The work runs in a child process (``worker.py``) that imports the program
from ``src/`` of the current directory; with tracing off, five more child
processes only set up, and ``setup_s`` is the median of all ten set-ups.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import selftest

WORKLOADS = ("reservoir-pipeline", "curve-algebra", "oracle-crosscheck", "cli-session")
SETUP_PROBES = 9
STARTUP_PROBES = 5
CHILD_TIMEOUT_S = 150
HERE = Path(__file__).resolve().parent


class BenchError(Exception):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def python(argv: list[str], env: dict, root: Path) -> str:
    """Run the interpreter on ``argv`` and return its last stdout line."""
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, cwd=root,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[:3])} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return lines[-1] if lines else ""


def startup_metrics(env: dict, root: Path) -> dict:
    """Median wall time of a bare interpreter, and of importing the CLI module."""
    bare, imports = [], []
    for _ in range(STARTUP_PROBES):
        start = time.perf_counter()
        python(["-c", "pass"], env, root)
        bare.append(time.perf_counter() - start)
        code = ("import time; t = time.perf_counter(); import thermomajor.cli; "
                "print(time.perf_counter() - t)")
        imports.append(float(python(["-c", code], env, root)))
    return {
        "cli.interpreter_ms": (statistics.median(bare) * 1e3, "ms"),
        "cli.import_ms": (statistics.median(imports) * 1e3, "ms"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "thermomajor" / "__init__.py").is_file():
        print(f"no program to measure: {root / 'src' / 'thermomajor'} is missing", file=sys.stderr)
        return 2
    bad = [name for name, passed, caught in selftest.run(root / ".bench_out" / f"selftest-{os.getpid()}")
           if not (passed and caught)]
    if bad:
        print(f"self-test of the checks failed: {', '.join(bad)}", file=sys.stderr)
        return 1

    env = child_env(root)
    worker = [str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
    try:
        python(["-c", "import thermomajor.cli"], env, root)  # compile bytecode once, untimed
        if args.trace:
            result = json.loads(python([*worker, "--seconds", str(args.seconds), "--trace"], env, root))
            metrics = result["per_layer"]
            if args.workload == "cli-session":
                metrics.update(startup_metrics(env, root))
            else:
                metrics.update({"cli.interpreter_ms": (0.0, "ms"), "cli.import_ms": (0.0, "ms")})
        else:
            setups = [json.loads(python([*worker, "--setup-only"], env, root))["setup_s"]
                      for _ in range(SETUP_PROBES)]
            result = json.loads(python([*worker, "--seconds", str(args.seconds)], env, root))
            setups.append(result["setup_s"])
            metrics = {
                "ops_per_s": (result["ops_per_s"], "op/s"),
                "op_p50_ms": (result["op_p50_ms"], "ms"),
                "op_p90_ms": (result["op_p90_ms"], "ms"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mib": (result["peak_rss_mib"], "MiB"),
            }
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    for line in result["errors"] + result["check_failures"]:
        print(line, file=sys.stderr)
    print(f"{args.workload}: {result['samples']} timed operations", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
