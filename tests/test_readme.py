"""The README's command-line examples, run through the CLI and compared line by line."""

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
