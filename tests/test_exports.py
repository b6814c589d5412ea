"""Every exported name resolves: each conelab module's __all__, and the names
the package's __init__ re-exports from its modules."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import conelab

MODULES = sorted(m.name for m in pkgutil.iter_modules(conelab.__path__))


def _init_exports() -> list:
    """The names bound by the package __init__'s relative imports."""
    tree = ast.parse(Path(conelab.__file__).read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"conelab.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_resolve():
    names = _init_exports()
    assert "project" in names and "vec_to_sym" in names
    assert [n for n in names if not hasattr(conelab, n)] == []
