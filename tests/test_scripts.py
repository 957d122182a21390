"""Every script under scripts/ still loads against the package: each one
imports its names at the top and runs only under `__main__`. And
`scripts/mutants.py` tells a killed mutant from a survivor and a stale one."""

import runpy
from pathlib import Path

import pytest

SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"
SCRIPTS = sorted(SCRIPTS_DIR.glob("*.py"))


def test_scripts_are_found():
    assert len(SCRIPTS) >= 3


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.name)
def test_script_loads(path):
    names = runpy.run_path(str(path), run_name="script_load_check")
    assert names["__name__"] == "script_load_check"


def test_mutants_reports_a_survivor_and_a_stale_mutant(tmp_path, capsys):
    # A one-function package whose test catches one mutant and not another.
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "tiny.py").write_text("def double(x):\n    return 2 * x\n")
    (tmp_path / "tests" / "test_tiny.py").write_text(
        "from tiny import double\n\n\ndef test_double():\n    assert double(3) == 6\n")
    tests = ["tests/test_tiny.py"]
    mutants = [
        ("wrong factor", "src/tiny.py", "2 * x", "3 * x", tests),
        ("same value", "src/tiny.py", "2 * x", "x + x", tests),
        ("gone text", "src/tiny.py", "4 * x", "5 * x", tests),
        ("missing test file", "src/tiny.py", "2 * x", "3 * x", ["tests/test_gone.py"]),
    ]
    main = runpy.run_path(str(SCRIPTS_DIR / "mutants.py"))["main"]
    assert main(tmp_path, mutants) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == ["killed", "survived", "stale:", "stale:"]
    assert lines[-1].startswith("1 of 4 mutants killed")
    assert main(tmp_path, mutants[:1]) == 0
    assert (tmp_path / "src" / "tiny.py").read_text() == "def double(x):\n    return 2 * x\n"
