"""Every script under scripts/ still loads against the package: each one
imports its names at the top and runs only under `__main__`."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert len(SCRIPTS) >= 3


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.name)
def test_script_loads(path):
    names = runpy.run_path(str(path), run_name="script_load_check")
    assert names["__name__"] == "script_load_check"
