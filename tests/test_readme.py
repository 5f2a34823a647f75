"""The README's Python examples run as written, and its commands parse."""

import re
import shlex
from pathlib import Path

import pytest

from splinesel.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
COMMANDS = [line for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(),
                                         flags=re.S | re.M)
            for line in block.splitlines() if line.startswith("splinesel ")]


def test_readme_has_a_python_example():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=lambda s: s.splitlines()[0])
def test_readme_python_block_runs(source, capsys):
    exec(compile(source, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def test_readme_has_command_examples():
    assert COMMANDS


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_parses(line):
    # Parsed only, never run: the flags in the examples must be the CLI's.
    argv = shlex.split(line, comments=True)[1:]
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"README command does not parse ({exc.code}): {line}")
