"""Importing the package: its start-up cost loads no heavy standard module,
and every name a module exports exists."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lerchphi

# dataclasses brings inspect, ast, dis and tokenize; fractions brings decimal
# and numbers.  Only the exact Bernoulli functions import fractions, and only
# the json and csv output formats their modules.
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "fractions",
         "decimal", "numbers", "json", "csv")


def test_import_loads_no_heavy_module():
    # a fresh isolated interpreter; what site has loaded already is not the
    # package's cost, so only the modules the import adds count
    src = str(Path(lerchphi.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"sys.path.insert(0, {src!r})\n"
        "import lerchphi, lerchphi.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code], check=True,
                         capture_output=True, text=True).stdout
    added = set(out.split())
    assert "lerchphi.cli" in added
    assert not added & set(HEAVY), sorted(added & set(HEAVY))


# every module but __main__, which runs the CLI on import
MODULES = sorted(m.name for m in pkgutil.iter_modules(lerchphi.__path__)
                 if not m.name.startswith("__"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    # a name left in __all__ after its function is removed fails import *
    module = importlib.import_module(f"lerchphi.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing
