"""Every exported name resolves, in the package and in each module."""

import importlib
import pkgutil

import pytest

import conekit

MODULES = sorted(m.name for m in pkgutil.iter_modules(conekit.__path__))


def test_package_exports_resolve():
    missing = [name for name in conekit.__all__ if not hasattr(conekit, name)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"conekit.{name}")
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert not missing, missing
