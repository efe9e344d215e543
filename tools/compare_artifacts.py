#!/usr/bin/env python3
"""Byte-compare two run output trees.

Usage::

    python tools/compare_artifacts.py A B

Walks both directories, compares every regular file by content, and
prints one line per difference: ``differs <path>`` for files present in
both trees with different bytes, ``only in A <path>`` / ``only in B
<path>`` for files present on one side only.  Paths are relative to the
tree roots.  Exit status is 0 when the trees are byte-identical, 1 when
anything differs, and 2 when an argument is not a directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def tree_files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def compare_trees(a: Path, b: Path) -> list[str]:
    """Difference lines between trees ``a`` and ``b``; empty when identical."""
    files_a, files_b = tree_files(a), tree_files(b)
    lines = [f"only in A {name}" for name in sorted(files_a - files_b)]
    lines += [f"only in B {name}" for name in sorted(files_b - files_a)]
    lines += [
        f"differs {name}"
        for name in sorted(files_a & files_b)
        if (a / name).read_bytes() != (b / name).read_bytes()
    ]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Byte-compare two run output trees.")
    parser.add_argument("a", type=Path, help="first output directory")
    parser.add_argument("b", type=Path, help="second output directory")
    args = parser.parse_args(argv)
    for root in (args.a, args.b):
        if not root.is_dir():
            print(f"error: {root} is not a directory", file=sys.stderr)
            return 2
    lines = compare_trees(args.a, args.b)
    for line in lines:
        print(line)
    n_files = len(tree_files(args.a) | tree_files(args.b))
    print(f"{'identical' if not lines else f'{len(lines)} difference(s)'}: {n_files} file(s) compared")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
