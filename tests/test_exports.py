"""Public names: every entry of a module's __all__ is defined there."""

import importlib
import pkgutil

import pytest

import tracestab

MODULES = ["tracestab"] + [f"tracestab.{m.name}" for m in pkgutil.iter_modules(tracestab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"

