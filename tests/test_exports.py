import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gaussapprox

MODULES = sorted(info.name for info in pkgutil.iter_modules(gaussapprox.__path__))

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _traced_names():
    """``WRAPPED`` of the benchmark tracer, read from its source as a literal."""
    tree = ast.parse(LAYERTRACE.read_text(encoding="utf-8"))
    for node in tree.body:
        targets = getattr(node, "targets", [])
        if any(isinstance(t, ast.Name) and t.id == "WRAPPED" for t in targets):
            wrapped = ast.literal_eval(node.value)
            return [(layer, name) for layer, names in wrapped.items() for name in names]
    raise AssertionError("perfbench/layertrace.py defines no WRAPPED literal")


def test_package_exports_resolve():
    missing = [name for name in gaussapprox.__all__ if not hasattr(gaussapprox, name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"gaussapprox.{name}")
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("layer, name", _traced_names())
def test_traced_function_resolves(layer, name):
    # The tracer wraps these by name; a rename or deletion would otherwise
    # leave a traced run silently without that layer.
    module = importlib.import_module(f"gaussapprox.{layer}")
    assert callable(getattr(module, name, None))
