"""Every numeric default is read by the code it tunes."""

import ast
import dataclasses
import pathlib

import conekit
from conekit.config import Defaults

SRC = pathlib.Path(conekit.__file__).parent


def _defaults_read():
    """The names read as ``DEFAULTS.<name>`` in the package's modules, config.py aside."""
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "DEFAULTS":
                names.add(node.attr)
    return names


def test_every_default_has_a_reader():
    read = _defaults_read()
    unread = [field.name for field in dataclasses.fields(Defaults) if field.name not in read]
    assert not unread, f"Defaults fields no module reads: {unread}"
