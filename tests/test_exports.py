import importlib
import pkgutil

import pytest

import gaussapprox

MODULES = sorted(info.name for info in pkgutil.iter_modules(gaussapprox.__path__))


def test_package_exports_resolve():
    missing = [name for name in gaussapprox.__all__ if not hasattr(gaussapprox, name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"gaussapprox.{name}")
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
