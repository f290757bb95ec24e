"""Line reach of the tier-1 tests over ``src/sullivan``.

Runs the tier-1 suite in this process with a ``sys.settrace`` line
recorder installed, then lists every statement in a function or method
body of ``src/sullivan`` whose first line never ran.  Docstrings are not
statements here.  Exits 1 if the list is not empty, and with pytest's own
code if the suite fails.

    python tests/reach.py [extra pytest arguments]

Its name does not match ``test_*.py``, so pytest does not collect it.  Code
that runs only in a subprocess, as the console-script tests do, is not seen.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "sullivan"


def _first_lines(stmt: ast.stmt) -> range:
    """The lines of a statement before its body: the whole of a simple
    statement, the header (decorators included) of a compound one."""
    start = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return range(start, max(body[0].lineno, stmt.lineno + 1))
    return range(start, stmt.end_lineno + 1)


def _body_statements(body: List[ast.stmt], in_function: bool) -> Iterator[ast.stmt]:
    """Every statement nested in ``body``; those outside any function body
    are walked through but not yielded."""
    for i, stmt in enumerate(body):
        docstring = (
            i == 0
            and isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
        )
        if in_function and not docstring:
            yield stmt
        inner = in_function or isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        for field in ("body", "orelse", "finalbody"):
            yield from _body_statements(getattr(stmt, field, []), inner)
        for handler in getattr(stmt, "handlers", []):
            yield from _body_statements(handler.body, inner)
        for case in getattr(stmt, "cases", []):
            yield from _body_statements(case.body, inner)


def statements() -> Dict[str, List[ast.stmt]]:
    """Every statement in a function body, per source file of the package."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        out[str(path)] = list(_body_statements(tree.body, False))
    return out


def _record(seen: Set[Tuple[str, int]], prefix: str):
    """Start recording each executed (file, line) of the package into
    ``seen``; returns the function that stops it."""

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(call)
    return lambda: sys.settrace(None)


def main(argv: List[str]) -> int:
    import pytest

    sys.path.insert(0, str(SRC))
    seen: Set[Tuple[str, int]] = set()
    stop = _record(seen, str(PACKAGE) + "/")
    try:
        code = pytest.main(
            ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
             str(ROOT / "tests"), *argv]
        )
    finally:
        stop()
    unreached = 0
    for path, stmts in statements().items():
        lines = Path(path).read_text().splitlines()
        for stmt in stmts:
            if not any((path, line) in seen for line in _first_lines(stmt)):
                unreached += 1
                rel = Path(path).relative_to(ROOT)
                print(f"{rel}:{stmt.lineno}: {lines[stmt.lineno - 1].strip()}")
    print(f"{unreached} unreached statements in function bodies of src/sullivan")
    if code != 0:
        return int(code)
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
