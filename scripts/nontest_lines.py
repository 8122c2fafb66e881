#!/usr/bin/env python3
"""Count the workspace's non-test source lines.

Counts every line of every `.rs` and `.py` file under `crates/*/src`,
`vendor` and `ci`, cutting each file at its first `#[cfg(test)]` line
whose next line declares a module (`mod ...` or `pub mod ...`): the
in-file unit tests. Blank and comment lines count. Integration tests
(`tests/`, `crates/*/tests`) and `benchmark/` are outside the count.

Usage: python3 scripts/nontest_lines.py [--by-file] [ROOT]

ROOT defaults to the repository this script lives in, so one copy of
the script measures two checkouts the same way.
"""

import pathlib
import re
import sys

MOD_LINE = re.compile(r"\s*(pub(\([^)]*\))?\s+)?mod\s")


def nontest_lines(path):
    lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
    for i, line in enumerate(lines[:-1]):
        if line.strip() == "#[cfg(test)]" and MOD_LINE.match(lines[i + 1]):
            return i
    return len(lines)


def source_files(root):
    trees = sorted(root.glob("crates/*/src")) + [root / "vendor", root / "ci"]
    for tree in trees:
        for path in sorted(tree.rglob("*")):
            if path.suffix in (".rs", ".py") and path.is_file():
                yield path


def main(argv):
    by_file = "--by-file" in argv
    args = [a for a in argv if a != "--by-file"]
    root = pathlib.Path(args[0]) if args else pathlib.Path(__file__).resolve().parent.parent
    total = 0
    for path in source_files(root):
        n = nontest_lines(path)
        total += n
        if by_file:
            print(f"{n:7d} {path.relative_to(root)}")
    print(total)


if __name__ == "__main__":
    main(sys.argv[1:])
