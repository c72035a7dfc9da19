"""`weierstrass.__all__` lists exactly the public names `__init__.py` imports.

An export deleted from the import list but left in `__all__` (or the other
way round) fails here, not in a user's `from weierstrass import *`.
"""

import ast
from pathlib import Path

import weierstrass

INIT = Path(__file__).resolve().parent.parent / "src" / "weierstrass" / "__init__.py"


def _imported_public_names() -> list[str]:
    tree = ast.parse(INIT.read_text(), filename=str(INIT))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]


def test_every_export_resolves():
    assert [name for name in weierstrass.__all__ if not hasattr(weierstrass, name)] == []


def test_exports_equal_the_imported_public_names():
    assert sorted(weierstrass.__all__) == sorted(_imported_public_names())
