"""The CLI examples in README.md run and exit 0."""

import re
import shlex
from pathlib import Path

import pytest

from lerchphi import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """The `lerchphi ...` lines of the README's CLI block, continuations
    joined, without the program name."""
    text = README.read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("lerchphi ")]


COMMANDS = readme_commands()


def test_readme_has_commands():
    assert len(COMMANDS) >= 6


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_exits_0(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == cli.EXIT_OK, capsys.readouterr().err
