"""The scripts run to completion and exit 0."""

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_certify_identities(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert load("certify_identities").run(grid=2) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_run_sweep_demo_writes_to_the_current_directory(tmp_path, monkeypatch,
                                                         capsys):
    monkeypatch.chdir(tmp_path)
    assert load("run_sweep_demo").run() == 0
    assert (tmp_path / "ring_sweep.csv").is_file()


def test_cli_snapshot_leaves_three_files_per_command(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    snapshot = load("cli_snapshot")
    assert snapshot.run(SCRIPTS.parent / "src", tmp_path) == 0
    names = [name for name, _ in snapshot.commands()]
    assert len(set(names)) == len(names)
    for name in names:
        for suffix in ("out", "err", "code"):
            assert (tmp_path / f"{name}.{suffix}").is_file(), name
    assert (tmp_path / "check-all-grid-25.code").read_text() == "0\n"
    assert (tmp_path / "sweep-unwritable.code").read_text() == "1\n"
    assert (tmp_path / "grid.csv").is_file()
