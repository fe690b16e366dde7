"""Every parameter default is passed by a caller."""

import ast
import inspect
import pathlib

import conekit

SRC = pathlib.Path(conekit.__file__).parent
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _calls():
    """Every call in the package's modules and in perfbench/: {callee name: [ast.Call]}."""
    calls = {}
    for path in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call, index, name):
    """Whether ``call`` passes the parameter ``name`` at position ``index``, or may (through * or **)."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    return len(call.args) > index or any(isinstance(arg, ast.Starred) for arg in call.args)


def test_every_parameter_default_has_a_caller_that_passes_it():
    # A parameter that no caller in the package or the benchmark passes is a constant.
    calls = _calls()
    unpassed = []
    for public in conekit.__all__:
        func = getattr(conekit, public)
        if not inspect.isfunction(func):
            continue
        for index, param in enumerate(inspect.signature(func).parameters.values()):
            if param.default is not param.empty and not any(
                    _passes(call, index, param.name) for call in calls.get(public, [])):
                unpassed.append(f"{public}({param.name})")
    assert not unpassed, f"parameters no caller in src/conekit or perfbench/ passes: {unpassed}"
