"""The README's CLI examples exit 0, its Python quick start runs, its
table of the routes phi tries is engine._ROUTE_TABLE, and its route table
and CLI methods name engine.ROUTES."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from lerchphi import cli
from lerchphi.engine import ROUTES, _ROUTE_TABLE, Region

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


def test_readme_quick_start_runs(capsys):
    """The Python quick start runs, and each print whose comment is a quoted
    string prints that string."""
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```",
                      README.read_text(), re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    for line, out in zip(prints, printed):
        comment = line.partition("#")[2].strip()
        if comment[:1] in ("'", '"'):
            assert out == ast.literal_eval(comment), line


def test_readme_route_table_is_the_engine_table():
    """Each row of the README's `phi tries` table names, in order, the
    routes of that region's _ROUTE_TABLE row; every region has a row."""
    table = re.search(r"\n(\| `classify\(z\)`.*?)\n\n", README.read_text(),
                      re.S).group(1)
    rows = {}
    for line in table.splitlines()[2:]:
        region, _, tries = (cell.strip() for cell in
                            re.split(r"(?<!\\)\|", line.strip("|")))
        rows[Region[region.strip("`")]] = tuple(
            re.findall(r"`([a-z-]+)`", tries))
    assert rows == {region: row.routes for region, row in _ROUTE_TABLE.items()}


def test_readme_evaluation_routes_are_engine_routes():
    """The method column of the README's "Evaluation routes" table names
    engine.ROUTES, in order."""
    table = re.search(r"## Evaluation routes\n\n(.*?)\n\n",
                      README.read_text(), re.S).group(1)
    methods = [re.match(r"\| `([a-z-]+)`", line).group(1)
               for line in table.splitlines()[2:]]
    assert methods == list(ROUTES)


def test_readme_cli_methods_are_engine_routes():
    """The CLI block's `(methods: ...)` comment is auto, then engine.ROUTES."""
    methods = re.search(r"\(methods: ([a-z|-]+)\)", README.read_text()).group(1)
    assert methods.split("|") == ["auto", *ROUTES]
