#!/usr/bin/env python3
"""Count the non-test lines of each crate's Rust source.

    python3 tools/loc.py [BASE]

Counts every `.rs` file under `crates/*/src`, each up to its first
`#[cfg(test)]` line, and prints the count per crate and the total for the
working tree. With BASE (any git revision) it also counts the same files
at BASE through `git` and prints each crate's delta.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def non_test_lines(text):
    """The number of lines before the first `#[cfg(test)]` line."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.strip().startswith("#[cfg(test)]"):
            return i
    return len(lines)


def crate_of(path):
    """The crate of `crates/<crate>/src/**.rs`, or None for any other path."""
    parts = path.split("/")
    if len(parts) >= 4 and parts[0] == "crates" and parts[2] == "src" and path.endswith(".rs"):
        return parts[1]
    return None


def count_tree():
    counts = {}
    for d, _, names in os.walk(os.path.join(ROOT, "crates")):
        for name in names:
            path = os.path.join(d, name)
            crate = crate_of(os.path.relpath(path, ROOT).replace(os.sep, "/"))
            if crate:
                with open(path, encoding="utf-8") as f:
                    counts[crate] = counts.get(crate, 0) + non_test_lines(f.read())
    return counts


def git(*args):
    done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True)
    if done.returncode != 0:
        sys.exit(f"loc: git {' '.join(args)}: {done.stderr.decode().strip()}")
    return done.stdout.decode()


def count_rev(rev):
    counts = {}
    for path in git("ls-tree", "-r", "--name-only", rev, "crates").splitlines():
        crate = crate_of(path)
        if crate:
            counts[crate] = counts.get(crate, 0) + non_test_lines(git("show", f"{rev}:{path}"))
    return counts


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", nargs="?", help="git revision to compare against")
    args = ap.parse_args()

    tree = count_tree()
    if args.base is None:
        for crate in sorted(tree):
            print(f"{crate:<8} {tree[crate]:>7}")
        print(f"{'total':<8} {sum(tree.values()):>7}")
        return

    base = count_rev(args.base)
    label = args.base[:12]
    print(f"{'crate':<8} {label:>12} {'tree':>7} {'delta':>7}")
    for crate in sorted(set(base) | set(tree)):
        b, t = base.get(crate, 0), tree.get(crate, 0)
        print(f"{crate:<8} {b:>12} {t:>7} {t - b:>+7}")
    b, t = sum(base.values()), sum(tree.values())
    print(f"{'total':<8} {b:>12} {t:>7} {t - b:>+7}")


if __name__ == "__main__":
    main()
