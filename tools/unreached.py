#!/usr/bin/env python3
"""List the statements of a checkout's package that its Tier-1 suite never runs.

Usage::

    python tools/unreached.py CHECKOUT

Runs CHECKOUT's Tier-1 suite (``pytest -q -p no:cacheprovider
--continue-on-collection-errors`` in CHECKOUT, in this process, with
CHECKOUT's ``src/`` first on the import path) under a ``sys.settrace`` line
tracer that follows only code in ``src/cryptoforecast``.  Then it prints
each statement there that never ran as ``path:line: text``, and a count.
Definitions, imports and docstrings are not listed: they run when their
module loads.  Code run in a child process (the CLI's ``__main__`` line,
say) is not seen.  The tracer makes the suite take about 1.4 times as
long (102 s against 73 s on a 2-vCPU x86-64 machine).  Exit status is
pytest's, or 2 on a bad argument.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

PACKAGE = Path("src/cryptoforecast")
_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)  # the nodes that take a docstring
_LOADED = (*_SCOPES[1:], ast.Import, ast.ImportFrom)  # statements that run when their module loads


def statements(source: str) -> list[int]:
    """The first line of every statement in ``source`` but definitions, imports and docstrings, ascending."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None
    }
    return sorted(
        {
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and not isinstance(node, _LOADED) and id(node) not in docstrings
        }
    )


def line_tracer(root: str, hits: set):
    """A ``sys.settrace`` function that adds ``(filename, line)`` to ``hits`` for each line run under ``root``."""

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def follow(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(root) else None

    return follow


def unreached(path: Path, hits: set) -> list[tuple[int, str]]:
    """``(line, text)`` of each statement of the file at ``path`` whose first line is not in ``hits``."""
    source = path.read_text()
    lines = source.splitlines()
    return [(n, lines[n - 1].strip()) for n in statements(source) if (str(path), n) not in hits]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    checkout = Path(args[0]).resolve()
    package = checkout / PACKAGE
    if not package.is_dir():
        print(f"error: {checkout} has no {PACKAGE}", file=sys.stderr)
        return 2

    src = str(checkout / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    os.chdir(checkout)
    hits: set = set()
    sys.settrace(line_tracer(str(package) + os.sep, hits))
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)

    found = [(path, n, text) for path in sorted(package.glob("*.py")) for n, text in unreached(path, hits)]
    for path, n, text in found:
        print(f"{path.relative_to(checkout)}:{n}: {text}")
    print(f"{len(found)} statement(s) unreached")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
