"""Each kernel has one implementation: no module of the package imports
a JIT compiler, so the code that runs is the code that is tested."""

import ast
from pathlib import Path

import pytest

import ggsc

MODULES = sorted(Path(ggsc.__file__).parent.glob("*.py"))


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return names


def test_modules_found():
    assert {p.name for p in MODULES} >= {"codec.py", "geom_codec.py", "spectral.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_numba_import(path):
    imported = _imported(ast.parse(path.read_text(), filename=str(path)))
    assert not {n for n in imported if n.split(".")[0] == "numba"}
