#!/usr/bin/env python3
"""Byte-compare two run output trees.

Usage::

    python tools/compare_artifacts.py A B

Walks both directories, compares every regular file by content, and
prints one line per difference: ``differs <path>`` for files present in
both trees with different bytes, ``only in A <path>`` / ``only in B
<path>`` for files present on one side only.  Paths are relative to the
tree roots.  For a differing ``.json`` file, the path of its first
differing value (for example ``layers[1].u_c[37]``) goes to stderr; for
any other differing file that decodes as UTF-8 (a help page, say), the
first 40 lines of a unified diff go there.  Exit status is 0 when the trees
are byte-identical, 1 when anything differs, and 2 when an argument is not
a directory.
"""

from __future__ import annotations

import argparse
import difflib
import itertools
import json
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


def first_json_difference(a, b, where: str = "") -> str | None:
    """Path of the first value, in document order, that differs between two JSON values.

    Scalars compare by type and ``repr``, so ``1`` differs from ``1.0`` and
    NaN equals NaN.  Returns None when the values are the same.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        for key in list(a) + [k for k in b if k not in a]:
            inner = f"{where}.{key}" if where else str(key)
            if key not in a or key not in b:
                return inner
            found = first_json_difference(a[key], b[key], inner)
            if found is not None:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for index, (x, y) in enumerate(zip(a, b)):
            found = first_json_difference(x, y, f"{where}[{index}]")
            if found is not None:
                return found
        return None if len(a) == len(b) else f"{where}[{min(len(a), len(b))}]"
    same = type(a) is type(b) and repr(a) == repr(b)
    return None if same else where or "(root)"


def json_difference(path_a: Path, path_b: Path) -> str | None:
    """First differing value path of two JSON files, or None if either is not JSON."""
    try:
        doc_a, doc_b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    except ValueError:  # also undecodable bytes
        return None
    return first_json_difference(doc_a, doc_b)


def text_difference(path_a: Path, path_b: Path, name: str, limit: int = 40) -> list[str]:
    """At most ``limit`` lines of a unified diff of two text files; none if either is not UTF-8."""
    try:
        text_a, text_b = path_a.read_text(encoding="utf-8"), path_b.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        return []
    diff = difflib.unified_diff(text_a.splitlines(), text_b.splitlines(), f"A/{name}", f"B/{name}", lineterm="")
    return list(itertools.islice(diff, limit))


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
        name = line.removeprefix("differs ")
        if name == line:
            continue
        where = json_difference(args.a / name, args.b / name) if name.endswith(".json") else None
        if where is not None:
            print(f"{name}: first difference at {where}", file=sys.stderr)
        else:
            for diff_line in text_difference(args.a / name, args.b / name, name):
                print(diff_line, file=sys.stderr)
    n_files = len(tree_files(args.a) | tree_files(args.b))
    print(f"{'identical' if not lines else f'{len(lines)} difference(s)'}: {n_files} file(s) compared")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
