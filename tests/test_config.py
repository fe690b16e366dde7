"""Every parameter default is passed by a caller, and every public member is read by one."""

import ast
import importlib
import inspect
import pathlib

import conekit

SRC = pathlib.Path(conekit.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


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


def _trees(paths):
    return [ast.parse(path.read_text(), filename=str(path)) for path in paths]


def _readme_code():
    """The README's Python blocks, parsed."""
    blocks = (ROOT / "README.md").read_text().split("```python\n")[1:]
    return [ast.parse(block.split("```", 1)[0]) for block in blocks]


def _attribute_reads(trees):
    """Every ``.name`` in ``trees``: {name: [ast.Attribute]}."""
    reads = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append(node)
    return reads


def _overrides_a_foreign_base(path, cls, name):
    """Whether ``cls.name`` overrides a member of a base from outside the package, whose code reads it."""
    obj = getattr(importlib.import_module(f"conekit.{path.stem}"), cls)
    return any(name in vars(base) for base in obj.__mro__[1:] if not base.__module__.startswith("conekit"))


def test_every_public_member_has_a_reader():
    # A public method or property of a package class that nothing reads but
    # its unit tests is code with no caller.  Readers are the package (outside
    # the member's own body), the benchmark, the acceptance gate and the README.
    paths = sorted(SRC.glob("*.py"))
    package = _trees(paths)
    reads = _attribute_reads([*package, *_trees([*PERFBENCH.glob("*.py"), ROOT / "tests" / "test_acceptance.py"]),
                              *_readme_code()])
    unread = []
    for path, module in zip(paths, package):
        for cls in (node for node in ast.walk(module) if isinstance(node, ast.ClassDef)):
            for member in cls.body:
                if not isinstance(member, ast.FunctionDef) or member.name.startswith("_"):
                    continue
                own = {id(node) for node in ast.walk(member)}
                if not any(id(node) not in own for node in reads.get(member.name, [])) \
                        and not _overrides_a_foreign_base(path, cls.name, member.name):
                    unread.append(f"{cls.name}.{member.name}")
    assert not unread, f"public members that no code in src/conekit, perfbench/, the acceptance gate or README reads: {unread}"
