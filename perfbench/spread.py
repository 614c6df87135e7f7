#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload <name> [--seeds 1,2,3] [--trace 0|1]

Runs the workload once per seed (in sequence) and prints, for each metric,
its median and the distance between its first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median, next to
the metric's bound from `BENCHMARK.json` and a third of it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds.split(","):
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", seed,
            "--seconds", str(bench["run_seconds"]),
            "--trace", args.trace,
        ]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = f"bound {bound}, third {bound / 3:.4f}" + (
                "" if spread < bound / 3 else "  <-- too wide")
        print(f"{name:28} median {med:12.6g}  spread {spread:.4f}  {verdict}")


if __name__ == "__main__":
    main()
