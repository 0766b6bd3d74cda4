#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Runs perfbench/run.py once per seed for each workload and prints, per
end-to-end metric, the median and the interquartile range as a share of
the median (statistics.quantiles(values, n=4)), next to the metric's
bound from BENCHMARK.json. Run from the checkout root:

    python3 perfbench/spread.py --seeds 10 [--workload store_churn]
                                [--first-seed 1] [--seconds N]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root, workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({out.returncode}):\n"
                         f"{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(root, workload, seed, args.seconds)
            assert result["correct"] and result["failed"] == 0, result
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {args.seeds} seeds x {args.seconds}s")
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            worst = max(worst, spread / bounds[name])
            print(f"  {name:28s} median {median:12.4f}  spread "
                  f"{spread * 100:6.2f}%  bound {bounds[name] * 100:5.1f}%")
    print(f"worst spread/bound: {worst:.2f}")


if __name__ == "__main__":
    main()
