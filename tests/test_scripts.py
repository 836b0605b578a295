"""The demo scripts run to completion and exit 0."""

import importlib.util
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
