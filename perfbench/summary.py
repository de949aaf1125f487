"""Every workload's metrics in one table.

    python3 perfbench/summary.py --seed 1 --seconds 30 [--trace 1]

Runs perfbench/run.py once per workload of BENCHMARK.json, one after the
other, and prints each metric by name with its unit: the end-to-end
metrics, or with --trace 1 the per-layer metrics, among them the
tracing overhead (trace.overhead_s).  Exits 1 if any run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    status = 0
    for name in names:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            print(f"{name}: failed: {done.stderr.strip()}")
            status = 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:34s} {m['value']:>16.6g} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
