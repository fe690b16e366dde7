"""Every exported name resolves, in the package and in each module."""

import ast
import importlib
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

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


def test_each_package_name_is_its_module_object():
    # conekit's names, eager or resolved on first use, are the objects
    # their own modules define.
    defined = {name: _defined_names(name) for name in MODULES}
    wrong = []
    for entry in conekit.__all__:
        owners = [name for name in MODULES if entry in defined[name]]
        if len(owners) != 1 or getattr(conekit, entry) is not getattr(
                importlib.import_module(f"conekit.{owners[0]}"), entry):
            wrong.append((entry, owners))
    assert not wrong, wrong


CORE = ("errors", "geometry", "bessel", "spectrum", "resolvent")
LAZY_LAYERS = ("riesz", "lpcheck", "verify", "cli", "specfile")


def _imported_modules(name):
    """Every conekit module that an import statement anywhere in ``name``'s source names."""
    found = set()
    for node in ast.walk(ast.parse((pathlib.Path(conekit.__file__).parent / f"{name}.py").read_text())):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("conekit."))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").startswith("conekit."):
                found.add(node.module.split(".")[1])
            elif node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1 or node.module == "conekit":  # from . import x, from conekit import x
                found.update(a.name for a in node.names)
    return found


def test_the_kernel_core_imports_no_lazy_layer():
    # A kernel value compiles only the core: no core module imports the
    # Riesz, L^p, verify, CLI or spectrum-file layers, at module level or
    # inside a function.
    assert set(CORE) | set(LAZY_LAYERS) == set(MODULES)
    wrong = {name: sorted(_imported_modules(name) & set(LAZY_LAYERS)) for name in CORE}
    assert not any(wrong.values()), wrong


def test_the_resolvent_knows_no_growth_schedule():
    # The growth schedule and the read schedule live in spectrum
    # (CrossSectionSpectrum.chunks): resolvent names none of its constants,
    # fields or the cutoff, in code or in text, and yields no chunks of its own.
    # Off and on r = r' it reads its modes only from chunks: its code names no
    # table, pair function or grown table (its text may say "table").
    source = (pathlib.Path(conekit.__file__).parent / "resolvent.py").read_text()
    schedule = {"_GROWTH", "TABLE_CEILING", "mu_cutoff", "grow", "table", "pairs", "grown", "pair_table"}
    named = set()
    for node in ast.walk(ast.parse(source)):
        assert not isinstance(node, (ast.Yield, ast.YieldFrom)), node.lineno
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.asname or node.name)
    assert not named & schedule, named & schedule
    assert "chunks" in named
    assert not re.findall(r"_GROWTH|TABLE_CEILING|mu_cutoff|\.grow\b|yield", source)


def test_the_tau_rule_reads_no_modes():
    # At r = r' the resolvent reaches the modes only through
    # CrossSectionSpectrum.node_sums: resolvent names none of the node cut's
    # constants, and _heat_diagonal reads no chunk, no mu and no pair row
    # and runs no Bessel pass of its own.
    source = (pathlib.Path(conekit.__file__).parent / "resolvent.py").read_text()
    tree = ast.parse(source)
    named = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)}
    assert not named & {"_DIAG_MU_SLOPE", "_DIAG_MU_FLOOR"}
    assert not re.findall(r"_DIAG_MU_SLOPE|_DIAG_MU_FLOOR", source)
    body, = (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "_heat_diagonal")
    named = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(body)}
    reads = named & {"chunks", "log_scaled", "mu", "pair", "pair_rows"}
    assert not reads, reads
    assert "node_sums" in named


def test_every_mode_sum_reads_the_chunks():
    # One read path: only spectrum.py calls a table's pair functions (in
    # CrossSectionSpectrum.chunks), and no module names the base-table-only
    # read pair_values, in code or in text.
    wrong = []
    for name in MODULES:
        source = (pathlib.Path(conekit.__file__).parent / f"{name}.py").read_text()
        wrong += [f"{name}.py:{node.lineno} calls pairs" for node in ast.walk(ast.parse(source))
                  if name != "spectrum" and isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute) and node.func.attr == "pairs"]
        wrong += [f"{name}.py names pair_values"] if "pair_values" in source else []
    assert not wrong, wrong


def test_the_p_range_is_checked_once():
    # lpcheck's two p entry points read one check (_check_p): the p-range
    # message is raised in exactly one place in the package.
    root = pathlib.Path(conekit.__file__).parent
    raised = [f"{name}.py:{node.lineno}" for name in MODULES
              for node in ast.walk(ast.parse((root / f"{name}.py").read_text()))
              if isinstance(node, ast.Raise) and "p must lie in (1, inf)" in ast.unparse(node)]
    assert len(raised) == 1, raised


def test_the_tau_rule_has_no_overflow_branch():
    # ResolventRequest refuses lambda r from 2**52 on, so (lam r)^2 stays
    # finite: _heat_diagonal compares nothing with math.inf.
    tree = ast.parse((pathlib.Path(conekit.__file__).parent / "resolvent.py").read_text())
    body, = (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "_heat_diagonal")
    compared = [node.lineno for node in ast.walk(body) if isinstance(node, ast.Compare)
                and "math.inf" in {ast.unparse(side) for side in (node.left, *node.comparators)}]
    assert not compared, compared


def test_lazy_names_in_a_fresh_interpreter():
    # Before any lazy module loads, dir() lists every exported name, and
    # `from conekit import *` binds each.
    code = "\n".join([
        "import sys",
        "import conekit",
        "assert 'conekit.lpcheck' not in sys.modules",
        "missing = set(conekit.__all__) - set(dir(conekit))",
        "assert not missing, missing",
        "space = {}",
        "exec('from conekit import *', space)",
        "missing = set(conekit.__all__) - set(space)",
        "assert not missing, missing",
        "assert 'conekit.lpcheck' in sys.modules and 'conekit.verify' in sys.modules",
    ])
    src = str(pathlib.Path(conekit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        conekit.no_such_name
