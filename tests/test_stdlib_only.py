"""The package imports nothing outside the standard library.

numpy and the like may serve as comparison points in benchmarks, never as a
runtime dependency of `src/weierstrass`.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "weierstrass").glob("*.py"))


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "operator.py"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_are_stdlib_only(path):
    outside = sorted(
        name
        for name in _absolute_imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names
    )
    assert outside == []
