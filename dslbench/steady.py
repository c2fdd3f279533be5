"""Steadiness check: run each workload with several seeds and print, for
every end-to-end metric, the median, the quartiles and their spread.

Usage, from the repository root::

    python3 dslbench/steady.py --runs 10 [--workloads explore-50k,...]
        [--seconds 20] [--first-seed 1]

Each run is a fresh ``run.py`` process with its own seed, one after the
other.  The workloads take turns, one run each per seed, so a slow
stretch of the host is shared among them rather than charged to one
workload's whole set.  The spread is ``(q3 - q1) / median`` with the
quartiles of ``statistics.quantiles(values, n=4)``; a metric is flagged
when its spread exceeds a third of its bound in ``BENCHMARK.json``.
The share of failed operations is printed too.  Exits 1 when a metric
is flagged or a run is not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, object]:
    """One ``run.py`` process; returns its result object."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=REPO, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv: List[str]) -> int:
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fp:
        spec = json.load(fp)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"]
                                         for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")
    results: Dict[str, List[Dict[str, object]]] = {w: [] for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in workloads:
            started = time.monotonic()
            result = run_once(workload, seed, args.seconds)
            results[workload].append(result)
            print(f"  {workload} seed {seed} "
                  f"({time.monotonic() - started:.0f} s): " + ", ".join(
                f"{name} {m['value']:.4g}"
                for name, m in result["metrics"].items()), flush=True)
    steady = True
    for workload in workloads:
        runs = results[workload]
        correct = all(r["correct"] for r in runs)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        steady &= correct
        print(f"{workload}: {args.runs} runs, correct {correct}, "
              f"failed shares {shares}")
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            flagged = stats["spread"] > bound / 3
            steady &= not flagged
            print(f"  {name:<18} median {stats['median']:12.4f}  "
                  f"q1 {stats['q1']:12.4f}  q3 {stats['q3']:12.4f}  "
                  f"spread {stats['spread']:.4f}  bound {bound}"
                  f"{'  > bound/3' if flagged else ''}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
