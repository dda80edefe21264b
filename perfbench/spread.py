#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds 12] [--verbose]

Runs the benchmark once per seed on each workload (untraced) and prints,
per metric, the median and the interquartile range as a share of the
median (`statistics.quantiles(values, n=4)`), next to the metric's bound
from BENCHMARK.json. Also reports whether every run was correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import parse_seeds  # noqa: E402


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--verbose", action="store_true", help="print every run's metrics")
    args = ap.parse_args()
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        ok = True
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
            last = json.loads(done.stdout.strip().splitlines()[-1])
            ok &= done.returncode == 0 and last["correct"] and last["failed"] == 0
            for name, m in last["metrics"].items():
                values[name].append(m["value"])
            if args.verbose:
                row = " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items())
                print(f"  seed {seed}: {row}", flush=True)
        print(f"{workload}: {'all runs correct' if ok else 'SOME RUNS FAILED'}")
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / med
            if m["name"] != "setup_s":
                worst = max(worst, share / m["bound"])
            print(f"  {m['name']:<26} median {med:12.6g} {m['unit']:<4} IQR/median {share:6.3f} (bound {m['bound']})")
    print(f"largest spread / bound outside setup_s: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
