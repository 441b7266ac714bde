"""Steadiness command: repeat each workload over seeds and report its spread.

From the repository root:

    python3 bench/steady.py                       # every workload, seeds 1..10
    python3 bench/steady.py --workloads cli-session --seeds 1,2,3,4,5

For every end-to-end metric it prints the median and quartiles of the runs,
as ``statistics.quantiles(values, n=4)`` gives them, the spread (distance
between the quartiles as a share of the median) and the metric's bound in
BENCHMARK.json, and the share of failed operations of every run.  Raw
results are kept in ``.bench_out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    out_dir = Path.cwd() / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds.split(","):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", seed,
                    "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            runs[-1]["seed"] = int(seed)
        (out_dir / f"steady-{workload}.json").write_text(json.dumps(runs, indent=1))
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
        fractions = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {len(runs)} runs, correct {all(r['correct'] for r in runs)}, "
              f"failed shares {shares} ({'equal' if len(fractions) == 1 else 'DIFFER'})")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) < 2:
                print(f"  {name:14s} {units[name]:5s} {values[0]:11.4f}")
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            if name != "setup_s" and spread > bound:
                steady = False
            print(f"  {name:14s} {units[name]:5s} median {median:11.4f}  q1 {q1:11.4f}  q3 {q3:11.4f}  "
                  f"spread {spread:6.3f}  bound {bound}  {verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
