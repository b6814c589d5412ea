"""Every exported name resolves: each conelab module's __all__, and the names
the package's __init__ re-exports from its modules. Every defaulted parameter
of an exported function is passed by some call in src/, bench/ or tests/."""
import ast
import importlib
import inspect
import pkgutil
from functools import lru_cache
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


ROOT = Path(__file__).resolve().parents[1]


@lru_cache(maxsize=1)
def _calls() -> dict:
    """Every call in src/, bench/ and tests/, keyed by the called name: the
    name itself, or the last attribute of a dotted call."""
    calls = {}
    for path in sorted(p for d in ("src", "bench", "tests") for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, index: int, param: inspect.Parameter) -> bool:
    """Whether the call passes the parameter at this index by keyword or by
    position; a forwarded *args or **kwargs names no parameter."""
    if any(k.arg == param.name for k in call.keywords):
        return True
    plain = [a for a in call.args if not isinstance(a, ast.Starred)]
    return param.kind in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD) and len(plain) > index


@pytest.mark.parametrize("name", MODULES)
def test_every_default_is_passed_somewhere(name):
    # a default that no call overrides is a knob nobody turns: inline it or
    # make it a module constant
    module = importlib.import_module(f"conelab.{name}")
    unset = []
    for fname in module.__all__:
        func = getattr(module, fname)
        if not inspect.isfunction(func):
            continue
        for i, param in enumerate(inspect.signature(func).parameters.values()):
            if param.default is param.empty:
                continue
            if not any(_passes(call, i, param) for call in _calls().get(fname, ())):
                unset.append(f"{fname}({param.name}={param.default!r})")
    assert unset == []
