#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

For every workload and metric it prints the median over the seeds and the
distance between the first and third quartiles as a share of the median
(`statistics.quantiles(values, n=4)`), next to the metric's bound from
BENCHMARK.json. Run it from the root of the repository:

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --workloads fleet-miss --seeds 1-5 --trace 1

Every run's result line is appended to perfbench/out/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seed_list(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main():
    spec = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs("perfbench/out", exist_ok=True)
    log = open("perfbench/out/spread.jsonl", "a")
    failures = 0
    for workload in args.workloads.split(","):
        values = {}
        walls = []
        for seed in seed_list(args.seeds):
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            started = time.monotonic()
            done = subprocess.run(command, capture_output=True, text=True, check=False)
            walls.append(time.monotonic() - started)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                failures += 1
                continue
            result = json.loads(lines[-1])
            log.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect ({result['failed']} failed)")
                failures += 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"\n{workload}: {len(walls)} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        for name, series in values.items():
            med = statistics.median(series)
            if len(series) >= 2 and med:
                q1, _, q3 = statistics.quantiles(series, n=4)
                spread = f"{(q3 - q1) / abs(med):.4f}"
            else:
                spread = "-"
            bound = bounds.get(name)
            print(f"  {name:34s} median {med:14.6g}  spread {spread:>7s}  bound {bound}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
