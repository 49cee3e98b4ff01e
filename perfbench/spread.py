#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload calibrated_windows --seeds 5 [--trace 0] [--seconds 50]

For every metric: the median of its values over the seeds and the
distance between their first and third quartiles as a share of that
median (statistics.quantiles(values, n=4)), which is the steadiness
figure BENCHMARK.json's bounds are judged against. Run from the
repository root, after one build (`cargo build --release --manifest-path
perfbench/Cargo.toml`).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        run = subprocess.run(cmd, capture_output=True, text=True)
        last = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else "{}"
        result = json.loads(last)
        if run.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: exit {run.returncode}\n{run.stdout}{run.stderr}", file=sys.stderr)
            sys.exit(1)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        spread = (q[2] - q[0]) / med if med else float("inf")
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if spread < bound / 3 else ("  WITHIN BOUND" if spread < bound else "  OVER BOUND"))
        print(f"{name:<28} median {med:14.4f}  spread {spread:7.3f}  bound {bound}{flag}")


if __name__ == "__main__":
    main()
