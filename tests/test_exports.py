"""Every exported name resolves, in the package and in each module."""

import ast
import importlib
import pathlib
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


def _defined_names(name):
    """The names a module's own top level defines: functions, classes and assignments."""
    tree = ast.parse((pathlib.Path(conekit.__file__).parent / f"{name}.py").read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_each_export_is_defined_where_it_is_listed():
    # A name in a module's __all__ is that module's own, and no other
    # module lists it: no module re-exports what another defines.
    owner, wrong = {}, []
    for name in MODULES:
        exported = getattr(importlib.import_module(f"conekit.{name}"), "__all__", ())
        defined = _defined_names(name)
        wrong += [f"{name}.{entry} is not defined there" for entry in exported if entry not in defined]
        for entry in exported:
            if entry in owner:
                wrong.append(f"{entry} is listed by {owner[entry]} and {name}")
            owner[entry] = name
    assert not wrong, wrong
