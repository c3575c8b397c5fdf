"""Every ``ladderkit ...`` line of the README's "Command line" block runs,
exits 0, reports no failed check and prints the same bytes twice."""

import io
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ladderkit.cli import main

_README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_lines():
    text = _README.read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("ladderkit ")]


def _run(line):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(shlex.split(line)[1:])
    return code, buf.getvalue()


def test_readme_has_cli_lines():
    assert len(_cli_lines()) >= 10


@pytest.mark.parametrize("line", _cli_lines())
def test_readme_cli_line(line):
    first, second = _run(line), _run(line)
    assert first[0] == 0
    assert first == second
    assert '"pass": false' not in first[1]
