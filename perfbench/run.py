#!/usr/bin/env python3
"""Build and run the Fleet host-time benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --bless SEEDS [--workload NAME]   # re-pin fingerprints

Run from the repository root. The benchmark is built from source with
`cargo build --release --offline` into $CARGO_TARGET_DIR (default
`.bench_build`). The last line of stdout is the JSON result; build output
and the human-readable report go to stderr. Flags this script does not know
are passed to the `perfbench` binary unchanged.

When `expected.json` pins a fingerprint for the workload and seed, the
binary checks every pass against it; otherwise passes are checked against
each other.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "expected.json")
WORKLOADS = ["idle_switch", "pressure_launch", "cohort", "mechanisms"]
# The simulator sources the benchmark builds against.
SOURCES = ["Cargo.toml", "crates/core/Cargo.toml", "crates/kernel/Cargo.toml", "vendor/serde_json/Cargo.toml"]


def build():
    """Builds the binary; returns its path, or None when the build fails."""
    missing = [p for p in SOURCES if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: simulator sources missing: {', '.join(missing)}", file=sys.stderr)
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, env=env, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        return None
    return os.path.join(target, "release", "perfbench")


def load_pins():
    with open(PINS) as f:
        return json.load(f)


def run(exe, workload, seed, seconds, trace, extra, capture=False, pinned=True):
    pins = load_pins()["fingerprints"].get(workload, {}) if pinned else {}
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if str(seed) in pins and "--expect" not in extra:
        cmd += ["--expect", pins[str(seed)]]
    if trace:
        out_dir = os.path.join(os.path.dirname(os.path.dirname(exe)), "perfbench")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(out_dir, f"trace_{workload}_seed{seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd + extra, timeout=170, stdout=subprocess.PIPE if capture else None, text=True)


def bless(exe, seeds, workloads):
    """Re-pins the fingerprint of each of `workloads` at each seed."""
    pins = load_pins()
    for workload in workloads:
        for seed in seeds:
            done = run(exe, workload, seed, 0.001, 0, ["--min-passes", "2"], capture=True, pinned=False)
            lines = [json.loads(l) for l in done.stdout.splitlines() if l.startswith("{")]
            if done.returncode != 0 or not lines[-1]["correct"]:
                print(f"perfbench: {workload} seed {seed} is not deterministic", file=sys.stderr)
                return 1
            fingerprint = lines[-2]["provenance"]["fingerprint"]
            pins["fingerprints"].setdefault(workload, {})[str(seed)] = fingerprint
            print(f"{workload} seed {seed}: {fingerprint}", file=sys.stderr)
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--bless", metavar="SEEDS", help="re-pin fingerprints at SEEDS, e.g. 0-20,9001")
    args, extra = ap.parse_known_args()
    if not args.bless and args.workload is None:
        ap.error("--workload is required")
    exe = build()
    if exe is None:
        return 1
    if args.bless:
        return bless(exe, parse_seeds(args.bless), [args.workload] if args.workload else WORKLOADS)
    seed = load_pins()["default_seed"] if args.seed is None else args.seed
    try:
        return run(exe, args.workload, seed, args.seconds, args.trace, extra).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
