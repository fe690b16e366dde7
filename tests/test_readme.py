"""The README's examples: its command lines, run through the CLI and compared line by line, and its Python quick start."""

import ast
import re
from pathlib import Path

import pytest

from conekit.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
_ELAPSED = re.compile(r"\[\d+\.\d+s\]")  # a check's wall time, the one field that varies


def _examples():
    """(command line, expected output lines) for each `$ conekit ...` of the text block."""
    block = README.read_text().split("```text\n", 1)[1].split("```", 1)[0]
    examples = []
    for chunk in block.strip().split("\n\n"):
        command, *expected = chunk.splitlines()
        examples.append(pytest.param(command, expected, id=command))
    return examples


def _masked(lines):
    return [_ELAPSED.sub("[elapsed]", line) for line in lines]


@pytest.mark.parametrize("command, expected", _examples())
def test_readme_example(capsys, command, expected):
    prompt, program, *argv = command.split()
    assert (prompt, program) == ("$", "conekit")
    assert main(argv) == 0
    assert _masked(capsys.readouterr().out.splitlines()) == _masked(expected)


def _shown(comment):
    """The value a comment shows: a parenthesized group, or its first word."""
    if comment.startswith("("):
        depth = 0
        for end, ch in enumerate(comment):
            depth += {"(": 1, ")": -1}.get(ch, 0)
            if depth == 0:
                return comment[:end + 1]
    return re.match(r"[^\s,:]+", comment).group()


def _agrees(value, shown):
    """Whether ``value`` agrees with ``shown`` to the digits shown: a leading-digit prefix ending
    in "...", a rounded e-notation float, a tuple of either, or else the value's repr."""
    if isinstance(value, tuple) and all(isinstance(v, float) for v in value):
        parts = shown[1:-1].split(", ")
        return len(parts) == len(value) and all(map(_agrees, value, parts))
    if isinstance(value, float):
        if shown.endswith("..."):
            return repr(value).startswith(shown[:-3])
        digits = len(shown.split("e")[0].partition(".")[2])
        return f"{value:.{digits}e}" == shown
    return repr(value) == shown


def test_python_quick_start():
    # Each statement of the block runs in order; each bare expression is
    # checked against the value its comment shows.
    source = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    lines, namespace, checked = source.splitlines(), {}, []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        shown = _shown(lines[stmt.end_lineno - 1].split("#", 1)[1].strip())
        assert _agrees(value, shown), (ast.unparse(stmt), value, shown)
        checked.append(shown)
    assert len(checked) == 7, checked
