"""List the statements of src/weierstrass that no test executes.

Usage: python tests/line_coverage.py [pytest arguments]

Runs pytest (over tests/ when no argument is given) under a sys.settrace
collector that records line events in src/weierstrass only, then prints one
`path:line: source` row for every statement none of whose lines ran. Only
statements the compiler gives bytecode count, so a docstring or a bare
`try:` is never listed. It writes no file; the exit status is pytest's. A full
run over tests/ is far slower than tier-1, so this is not one of its tests.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "weierstrass"


def _bytecode_lines(code: CodeType) -> set[int]:
    """Lines with bytecode in `code` and in every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _bytecode_lines(const)
    return lines


def _span(node: ast.AST) -> range:
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    return range(first, node.end_lineno + 1)


def statements(source: str, filename: str) -> list[tuple[int, set[int]]]:
    """(first line, own lines with bytecode) of each statement that has any.

    A statement's own lines are its span less the spans of the statements and
    except clauses nested in it, so a compound statement owns its header.
    """
    tree = ast.parse(source, filename)
    with_code = _bytecode_lines(compile(tree, filename, "exec"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            own = set(_span(node))
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.stmt, ast.excepthandler)):
                    own -= set(_span(child))
            if own & with_code:
                found.append((_span(node).start, own & with_code))
    return sorted(found)


def main(args: list[str]) -> int:
    prefix = str(PACKAGE) + "/"
    executed: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def collector(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(collector)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(args or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)

    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        rows = source.splitlines()
        filename = str(path)
        for first, own in statements(source, filename):
            if not any((filename, line) in executed for line in own):
                print(f"{path.relative_to(ROOT)}:{first}: {rows[first - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
