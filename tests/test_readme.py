"""The README's command-line and library examples run as written."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from hqs.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    section = README[README.index(heading):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


COMMANDS = [line.split("#")[0].strip() for line in _block("## Command line", "sh").splitlines()]
COMMANDS = [c for c in COMMANDS if c]


def test_the_command_line_block_is_found():
    assert len(COMMANDS) >= 8
    assert all(c.startswith("hqs ") for c in COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_exits_zero(command, tmp_path, monkeypatch, capsys):
    # --out files and the custom network the last line names land in tmp_path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "my_network.json").write_text(_block("### Custom networks", "json"))
    code = main(shlex.split(command)[1:])
    assert code == 0, capsys.readouterr().err


def test_the_library_example_runs_and_its_table_is_the_one_it_prints():
    code = _block("## Library use", "python")
    namespace = {}
    exec(code, namespace)
    shown = next(line for line in code.splitlines() if line.startswith("print(table.entries)"))
    assert namespace["mach_zehnder"](blocked=True).entries == ast.literal_eval(shown.split("#", 1)[1].strip())
