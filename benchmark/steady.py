"""Steadiness check: run each workload repeatedly and compare the spread of
every end-to-end metric with its bound from BENCHMARK.json.

    python3 benchmark/steady.py [--runs 10] [--first-seed 1]

Each workload of BENCHMARK.json runs `--runs` times, each a `--trace 0` run
with its own seed and the run length from BENCHMARK.json.  Per workload and
metric it prints the median, the quartiles (statistics.quantiles, n=4), the
spread (q3 - q1) / median and the bound; a spread that is not below a third
of the bound is marked.  It also prints attempted and failed operations and
the failed share.  Exit code 1 if any run failed or any marked spread
remains.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {len(runs)} runs, attempted {attempted}, failed {failed}, "
              f"failed shares {sorted(shares)}")
        steady &= failed == 0 and all(r["correct"] for r in runs)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            mark = ""
            if spread >= bound / 3:
                mark, steady = "  <-- not below bound/3", False
            print(f"  {name:12s} median {med:10.4f} q1 {q1:10.4f} q3 {q3:10.4f} "
                  f"spread {spread:6.3f} bound {bound:.2f}{mark}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
