#!/usr/bin/env python3
"""Self-test of the benchmark: short runs of every workload.

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json it checks that an untraced run emits
exactly the end-to-end metrics with their units, that a traced run emits
exactly the per-layer metrics with their units and a Chrome trace, and
that a deliberately wrong expected fingerprint is reported as failed
operations (error rate > 0) in a normal result line, not as a crash.
Exits 1 on the first violation.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def result(args):
    cmd = [sys.executable, os.path.join(HERE, "run.py")] + args
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600, cwd=ROOT)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(args)}: exit {done.returncode}")
    last = json.loads(done.stdout.strip().splitlines()[-1])
    if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"{' '.join(args)}: result keys {sorted(last)}")
    if not isinstance(last["attempted"], int) or last["attempted"] < 1:
        raise AssertionError(f"{' '.join(args)}: attempted {last['attempted']}")
    return last


def check_metrics(what, got, spec, nonzero):
    want = {m["name"]: m["unit"] for m in spec}
    have = {name: m["unit"] for name, m in got["metrics"].items()}
    if have != want:
        missing = sorted(set(want) - set(have))
        extra = sorted(set(have) - set(want))
        wrong = sorted(n for n in set(want) & set(have) if want[n] != have[n])
        raise AssertionError(f"{what}: missing {missing}, unexpected {extra}, wrong units {wrong}")
    for name, m in got["metrics"].items():
        v = m["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v) or (nonzero and v <= 0):
            raise AssertionError(f"{what}: {name} = {v!r}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    short = ["--seconds", "1", "--min-passes", "1"]
    for w in (w["name"] for w in bench["workloads"]):
        base = ["--workload", w, "--seed", "1"]
        plain = result(base + short + ["--trace", "0"])
        check_metrics(f"{w} untraced", plain, bench["end_to_end"], nonzero=True)
        if not plain["correct"] or plain["failed"]:
            raise AssertionError(f"{w}: untraced run failed {plain['failed']}/{plain['attempted']}")
        traced = result(base + ["--seconds", "1", "--trace", "1"])
        check_metrics(f"{w} traced", traced, bench["per_layer"], nonzero=False)
        if not traced["correct"] or traced["failed"]:
            raise AssertionError(f"{w}: traced run failed {traced['failed']}/{traced['attempted']}")
        wrong = result(base + short + ["--trace", "0", "--expect", "0"])
        if wrong["correct"] or not wrong["failed"] / wrong["attempted"] > 0:
            raise AssertionError(f"{w}: a wrong fingerprint did not surface as failures")
        print(f"{w}: ok ({plain['attempted']} ops; wrong print failed {wrong['failed']}/{wrong['attempted']})")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"selftest FAILED: {e}", file=sys.stderr)
        sys.exit(1)
