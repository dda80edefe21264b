#!/usr/bin/env python3
"""Check that the quick `repro` exports and stdout match a base revision byte for byte.

    python3 tools/export_diff.py BASE [--work DIR]

BASE is any git revision. The script exports it with `git archive`, builds
`repro` there and in the working tree (each into its own target directory
under DIR), runs `repro --quick --threads 1 all --export OUT` on both at
once, and compares every export file and every stdout line, with the
export directory normalised to `<export>` in stdout. On two cores the two
sweeps take about 3 minutes, after two release builds.

DIR defaults to a fresh temporary directory. Passing the same DIR again
reuses both builds (the base checkout is keyed by its commit hash).

Exit status: 0 when everything matches, 1 naming every differing export
file and stdout line, 2 when a build or a run fails.
"""

import argparse
import difflib
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = ["cargo", "build", "--release", "--offline", "--locked", "-p", "fleet-bench", "--bin", "repro"]
# Differing lines shown per export file; every differing file is named.
MAX_LINES = 12


def fail(msg):
    print(f"export_diff: {msg}", file=sys.stderr)
    sys.exit(2)


def git(*args):
    done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True)
    if done.returncode != 0:
        fail(f"git {' '.join(args)}: {done.stderr.decode().strip()}")
    return done.stdout


def checkout(sha, work):
    """Extracts `sha` into WORK/<sha>/src once; returns the source directory."""
    src = os.path.join(work, sha, "src")
    marker = os.path.join(work, sha, "extracted")
    if not os.path.exists(marker):
        os.makedirs(src, exist_ok=True)
        proc = subprocess.Popen(["git", "-C", ROOT, "archive", "--format=tar", sha], stdout=subprocess.PIPE)
        with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
            tar.extractall(src)
        if proc.wait() != 0:
            fail(f"git archive {sha} failed")
        open(marker, "w").close()
    return src


def build(label, src, target):
    print(f"export_diff: building {label} ...", file=sys.stderr)
    start = time.time()
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(BUILD, cwd=src, env=env, stdout=sys.stderr).returncode != 0:
        fail(f"build of {label} failed")
    print(f"export_diff: built {label} in {time.time() - start:.0f} s", file=sys.stderr)
    return os.path.join(target, "release", "repro")


def start_run(exe, out):
    """Starts `repro` writing OUT/export, OUT/stdout.txt and OUT/stderr.txt."""
    export = os.path.join(out, "export")
    shutil.rmtree(export, ignore_errors=True)
    os.makedirs(export)
    cmd = [exe, "--quick", "--threads", "1", "all", "--export", export]
    with open(os.path.join(out, "stdout.txt"), "wb") as so, open(os.path.join(out, "stderr.txt"), "wb") as se:
        return subprocess.Popen(cmd, stdout=so, stderr=se)


def files(export):
    found = set()
    for d, _, names in os.walk(export):
        found.update(os.path.relpath(os.path.join(d, n), export) for n in names)
    return found


def read(path):
    with open(path, "rb") as f:
        return f.read()


def line_diff(a, b):
    """The differing lines of two texts, `-` for base and `+` for the tree."""
    diff = list(difflib.unified_diff(a.splitlines(), b.splitlines(), lineterm="", n=0))
    # Past the two file headers, n=0 leaves only hunk headers and changed lines.
    return [l for l in diff[2:] if not l.startswith("@@")]


def compare(base_out, tree_out):
    """Prints every difference; returns how many files and stdout lines differ."""
    bad = 0
    base_ex, tree_ex = os.path.join(base_out, "export"), os.path.join(tree_out, "export")
    base_files, tree_files = files(base_ex), files(tree_ex)
    for name in sorted(base_files - tree_files):
        print(f"export only in base: {name}")
        bad += 1
    for name in sorted(tree_files - base_files):
        print(f"export only in working tree: {name}")
        bad += 1
    for name in sorted(base_files & tree_files):
        a, b = read(os.path.join(base_ex, name)), read(os.path.join(tree_ex, name))
        if a != b:
            bad += 1
            lines = line_diff(a.decode(errors="replace"), b.decode(errors="replace"))
            print(f"export differs: {name} ({len(lines)} lines)")
            for l in lines[:MAX_LINES]:
                print(f"    {l}")
            if len(lines) > MAX_LINES:
                print(f"    ... {len(lines) - MAX_LINES} more")
    stdout = [
        read(os.path.join(out, "stdout.txt")).decode(errors="replace").replace(ex, "<export>")
        for out, ex in ((base_out, base_ex), (tree_out, tree_ex))
    ]
    lines = line_diff(*stdout)
    for l in lines:
        print(f"stdout {l}")
    bad += len(lines)
    print(f"export_diff: {len(base_files | tree_files)} export files compared")
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="git revision to compare against")
    ap.add_argument("--work", help="directory for checkouts, builds and outputs (default: a new temp dir)")
    args = ap.parse_args()

    sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}").decode().strip()
    work = os.path.abspath(args.work or tempfile.mkdtemp(prefix="export_diff-"))
    print(f"export_diff: base {sha[:12]}, work dir {work}", file=sys.stderr)
    base_exe = build(f"base {sha[:12]}", checkout(sha, work), os.path.join(work, sha, "target"))
    tree_exe = build("working tree", ROOT, os.path.join(work, "tree", "target"))

    start = time.time()
    outs = [os.path.join(work, sha), os.path.join(work, "tree")]
    runs = [start_run(exe, out) for exe, out in zip((base_exe, tree_exe), outs)]
    codes = [proc.wait() for proc in runs]
    for code, out in zip(codes, outs):
        if code != 0:
            fail(f"repro exited {code}; see {os.path.join(out, 'stderr.txt')}")
    print(f"export_diff: ran both in {time.time() - start:.0f} s", file=sys.stderr)

    bad = compare(*outs)
    if bad:
        print(f"export_diff: {bad} differences against {sha[:12]}")
        sys.exit(1)
    print(f"export_diff: exports and stdout byte-identical to {sha[:12]}")


if __name__ == "__main__":
    main()
