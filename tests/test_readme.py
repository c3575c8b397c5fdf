"""Every ``ladderkit ...`` line of the README's "Command line" block runs,
exits 0, reports no failed check and prints the same bytes twice; the
install block names the runtime dependencies pyproject.toml declares."""

import io
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ladderkit.cli import main

_ROOT = Path(__file__).resolve().parents[1]
_README = _ROOT / "README.md"


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


def test_readme_runtime_line_names_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((_ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group()
                for dep in project["dependencies"]}
    lines = re.findall(r"# runtime: (.*)", _README.read_text())
    assert len(lines) == 1
    assert {name.strip() for name in lines[0].split(",")} == declared
