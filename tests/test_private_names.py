"""Only `hermitian` knows its walks: no other module of the package imports
a `_`-prefixed name from it, so the trie key format stays in one place."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sparse_duals"


def _names_from_hermitian(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            (node.level == 1 and node.module == "hermitian")
            or (node.level == 0 and node.module == "sparse_duals.hermitian")
        ):
            yield from (alias.name for alias in node.names)


def test_no_module_imports_a_private_hermitian_name():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 7
    private = {
        (path.name, name)
        for path in modules if path.name != "hermitian.py"
        for name in _names_from_hermitian(ast.parse(path.read_text(encoding="utf-8")))
        if name.startswith("_")
    }
    assert private == set()
