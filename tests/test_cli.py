import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATA_DIR
from sparse_duals import cli
from sparse_duals.cli import main


SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(cwd, *argv):
    """`python -m sparse_duals ARGV` in a new interpreter, in directory
    `cwd`: (exit code, stdout, stderr)."""
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sparse_duals", *argv], cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_usage_error(capsys, *argv):
    """stderr of an argv that argparse rejects with exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def test_semigroup_report(capsys, tmp_path):
    out_json = tmp_path / "s.json"
    code, out, _ = run(
        capsys, "semigroup", "--generators", "2,3", "--bound", "10",
        "--json", str(out_json),
    )
    assert code == 0
    assert "gaps: {1}" in out
    assert "genus: 1" in out
    assert "conductor: 2" in out
    assert "leader set (0 < element <= 10): 3 4 5 6 7 8 9 10" in out
    assert "leader 3: complement {0, 3}, frobenius 3" in out
    payload = json.loads(out_json.read_text())
    assert payload["semigroup"]["gaps"] == [1]
    assert payload["leaders"] == [3, 4, 5, 6, 7, 8, 9, 10]
    assert payload["maximum_sparse_ideals"][0]["complement"] == [0, 3]


def test_semigroup_trivial(capsys):
    code, out, _ = run(capsys, "semigroup", "--generators", "1")
    assert code == 0
    assert "genus: 0" in out
    assert "conductor: 0" in out


def test_semigroup_gcd_error(capsys):
    code, out, err = run(capsys, "semigroup", "--generators", "2,4")
    assert code == 2
    assert out == ""
    assert "gcd" in err


def test_sparse_ideals_inspect_and_compare(capsys, tmp_path):
    out_json = tmp_path / "i.json"
    code, out, _ = run(
        capsys, "sparse-ideals", "--generators", "3,5", "--leader", "13",
        "--compare", "10", "--json", str(out_json),
    )
    assert code == 0
    assert "complement: {0, 3, 5, 8, 10, 13}" in out
    assert "all four agree:              true" in out
    payload = json.loads(out_json.read_text())
    assert payload["inclusion"]["agree"] is True
    assert payload["compare"]["leader"] == 10


def test_sparse_ideals_rejects_non_leader(capsys):
    code, _, err = run(capsys, "sparse-ideals", "--generators", "2,3", "--leader", "2")
    assert code == 2 and "decomposition" in err
    code, _, err = run(capsys, "sparse-ideals", "--generators", "2,3", "--leader", "1")
    assert code == 2 and "not an element" in err


# Outputs frozen before the semigroup layer moved to generator-only ideal
# tests: (file stem, argv); each stem has a .txt (stdout) and a .json.
FROZEN_SEMIGROUP_REPORTS = [
    ("semigroup_3_5", ("semigroup", "--generators", "3,5")),
    ("semigroup_4_29", ("semigroup", "--generators", "4,29")),
    ("semigroup_7_16_20", ("semigroup", "--generators", "7,16,20")),
    ("sparse_ideals_3_5",
     ("sparse-ideals", "--generators", "3,5", "--leader", "13", "--compare", "10")),
    ("sparse_ideals_4_29",
     ("sparse-ideals", "--generators", "4,29", "--leader", "140", "--compare", "111")),
    ("sparse_ideals_7_16_20",
     ("sparse-ideals", "--generators", "7,16,20", "--leader", "92", "--compare", "61")),
]


@pytest.mark.parametrize("stem,argv", FROZEN_SEMIGROUP_REPORTS,
                         ids=[stem for stem, _ in FROZEN_SEMIGROUP_REPORTS])
def test_semigroup_reports_byte_identical(capsys, tmp_path, stem, argv):
    frozen = DATA_DIR / "semigroup_cli"
    out_json = tmp_path / "out.json"
    code, out, _ = run(capsys, *argv, "--json", str(out_json))
    assert code == 0
    assert out.encode() == (frozen / f"{stem}.txt").read_bytes()
    assert out_json.read_bytes() == (frozen / f"{stem}.json").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ("semigroup", "--generators", "3,5", "--bound", "100000000"),
        ("semigroup", "--generators", "2000,2001"),
        ("sparse-ideals", "--generators", "3,5", "--leader", "100000000"),
        ("sparse-ideals", "--generators", "3,5", "--leader", "13",
         "--compare", "100000000"),
    ],
    ids=["semigroup-bound", "semigroup-default-bound", "sparse-ideals-leader",
         "sparse-ideals-compare"],
)
def test_oversized_semigroup_report_is_refused(capsys, monkeypatch, tmp_path, argv):
    # Refused before the semigroup is built; the default bound of
    # <2000, 2001> comes from its conductor, 3 998 000, alone.
    def refuse_to_build(generators):
        raise AssertionError("semigroup built before the budget check")

    monkeypatch.setattr(cli, "NumericalSemigroup", refuse_to_build)
    target = tmp_path / "out.json"
    code, out, err = run(capsys, *argv, "--json", str(target))
    assert code == 2
    assert out == ""
    assert "refusing" in err
    assert not target.exists()


def test_report_budget_boundary(capsys, monkeypatch):
    # Leaders up to bound 10 hold at most 10 * 11 / 2 = 55 complement elements.
    monkeypatch.setattr(cli, "MAX_REPORT_ELEMENTS", 55)
    assert run(capsys, "semigroup", "--generators", "3,5", "--bound", "10")[0] == 0
    assert run(capsys, "semigroup", "--generators", "3,5", "--bound", "11")[0] == 2
    argv = ("sparse-ideals", "--generators", "3,5", "--leader")
    assert run(capsys, *argv, "54")[0] == 0
    assert run(capsys, *argv, "55")[0] == 2


def test_hierarchy_files_and_determinism(capsys, tmp_path):
    dot1, json1 = tmp_path / "a.dot", tmp_path / "a.json"
    dot2, json2 = tmp_path / "b.dot", tmp_path / "b.json"
    code, out, _ = run(
        capsys, "hierarchy", "--q", "2", "--min-size", "2",
        "--dot", str(dot1), "--json", str(json1),
    )
    assert code == 0
    assert "qualifying subsets (size >= 2): 31" in out
    assert "covering edges: 60" in out
    assert "violations: 0" in out
    code2, _, _ = run(
        capsys, "hierarchy", "--q", "2", "--min-size", "2",
        "--dot", str(dot2), "--json", str(json2),
    )
    assert code2 == 0
    assert dot1.read_bytes() == dot2.read_bytes()
    assert json1.read_bytes() == json2.read_bytes()
    graph = json.loads(json1.read_text())
    assert len(graph["nodes"]) == 31
    assert len(graph["edges"]) == 60


def test_hierarchy_min_size_8(capsys):
    code, out, _ = run(capsys, "hierarchy", "--q", "2", "--min-size", "8")
    assert code == 0
    assert "qualifying subsets (size >= 8): 1" in out


def test_hierarchy_q3_requires_sampling(capsys):
    code, _, err = run(capsys, "hierarchy", "--q", "3")
    assert code == 2
    assert "--sample" in err


def test_hierarchy_q3_sampled_deterministic(capsys):
    code, out1, _ = run(
        capsys, "hierarchy", "--q", "3", "--sample", "2", "--seed", "7",
        "--min-size", "26",
    )
    assert code == 0
    assert "seed 7" in out1
    code, out2, _ = run(
        capsys, "hierarchy", "--q", "3", "--sample", "2", "--seed", "7",
        "--min-size", "26",
    )
    assert out1 == out2


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--q", "2")
    assert code == 0
    assert "PASS dual-complement-ideal" in out
    assert "PASS inheritance" in out
    assert "PASS criterion-oracle" in out
    assert "result: PASS" in out


def test_verify_skip_oracle(capsys):
    code, out, _ = run(capsys, "verify", "--q", "2", "--skip-oracle")
    assert code == 0
    assert "SKIP criterion-oracle" in out


@pytest.mark.parametrize(
    "q,message",
    [("9999", "exceeds the supported order"), ("3", "refusing to enumerate")],
    ids=["9999", "3"],
)
def test_verify_rejects_huge_q(capsys, q, message):
    code, out, err = run(capsys, "verify", "--q", q)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [("hierarchy", "--q", "2", "--json"), ("semigroup", "--generators", "3,5", "--json")],
    ids=["hierarchy", "semigroup"],
)
def test_unwritable_output_is_usage_error(capsys, tmp_path, argv):
    target = tmp_path / "missing-dir" / "out.json"
    code, _, err = run(capsys, *argv, str(target))
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not target.exists()


def test_isometry_subset_with_vector(capsys):
    code, out, _ = run(capsys, "isometry", "--q", "2", "--points", "1,2,6")
    assert code == 0
    assert "W*: 0 2 4" in out
    assert "criterion (n+2g-1 = 4 in W*): true" in out
    assert "isometry vector (encodings): 1,3,2" in out


def test_isometry_subset_without_vector(capsys):
    code, out, _ = run(capsys, "isometry", "--q", "2", "--points", "1,2,3,4,5,6,7")
    assert code == 0
    assert "criterion (n+2g-1 = 8 in W*): false" in out
    assert "isometry vector: none" in out


def test_isometry_default_all_points(capsys):
    code, out, _ = run(capsys, "isometry", "--q", "2")
    assert code == 0
    assert "isometry vector (encodings): 1,1,1,1,1,1,1,1" in out


def test_isometry_bad_index(capsys):
    code, _, err = run(capsys, "isometry", "--q", "2", "--points", "9")
    assert code == 2
    assert "outside 1..8" in err


def test_isometry_empty_point_list_is_usage_error(capsys):
    # An empty list is not "all points".
    code, out, err = run(capsys, "isometry", "--q", "3", "--points", "")
    assert code == 2
    assert out == ""
    assert "at least one evaluation point" in err


@pytest.mark.parametrize("count", ["0", "-1"])
def test_hierarchy_sample_below_one_is_usage_error(capsys, count):
    code, out, err = run(capsys, "hierarchy", "--q", "3", "--sample", count)
    assert code == 2
    assert out == ""
    assert f"--sample must be at least 1, got {count}" in err


# q >= 3 outputs frozen before field tables came from the multiply-by-x
# walk: (file stem, argv); each stem has a .txt holding stdout. They print
# encodings over GF(9), GF(16) and GF(25).
FROZEN_HERMITIAN_REPORTS = [
    ("isometry_q3_fibres", ("isometry", "--q", "3", "--points", "1,2,3,4,5,6,7,8,9")),
    ("isometry_q3_vector", ("isometry", "--q", "3", "--points", "5,6,9,13,16,27")),
    ("isometry_q3_none",
     ("isometry", "--q", "3", "--points", "1,2,4,7,11,15,20,22,27")),
    ("isometry_q4_fibres",
     ("isometry", "--q", "4", "--points", ",".join(map(str, range(1, 17))))),
    ("isometry_q4_vector", ("isometry", "--q", "4", "--points", "7,15,41,42,52")),
    ("isometry_q5_fibres",
     ("isometry", "--q", "5", "--points", ",".join(map(str, range(1, 26))))),
    ("isometry_q5_vector", ("isometry", "--q", "5", "--points", "1,14,49,85,115")),
]


@pytest.mark.parametrize("stem,argv", FROZEN_HERMITIAN_REPORTS,
                         ids=[stem for stem, _ in FROZEN_HERMITIAN_REPORTS])
def test_isometry_reports_byte_identical(capsys, stem, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.encode() == (DATA_DIR / "hermitian_cli" / f"{stem}.txt").read_bytes()


def test_sampled_q3_hierarchy_byte_identical(capsys, tmp_path):
    frozen = DATA_DIR / "hermitian_cli"
    out_json = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "hierarchy", "--q", "3", "--sample", "30", "--seed", "2",
        "--min-size", "9", "--json", str(out_json),
    )
    assert code == 0
    expected = (frozen / "hierarchy_q3_sample30_seed2.txt").read_text()
    assert out == expected + f"wrote JSON to {out_json}\n"
    assert out_json.read_bytes() == (frozen / "hierarchy_q3_sample30_seed2.json").read_bytes()


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["semigroup", "--generators", "2,3", "--nope"])
    assert exc.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_repeated_main_calls_match_fresh_processes(capsys, monkeypatch, tmp_path):
    # One process, one parser: every call prints and writes what a new
    # process would, whatever ran before it (twice through the sequence).
    frozen = DATA_DIR / "semigroup_cli"
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(here)
    isometry = ("isometry", "--q", "3")
    verify = ("verify", "--q", "2", "--skip-oracle")
    hierarchy = ("hierarchy", "--q", "2", "--dot", "h.dot", "--json", "h.json")
    bad = ("semigroup", "--generators", "3,5", "--nope")
    expected = {argv: run_fresh(fresh, *argv) for argv in (isometry, verify, hierarchy, bad)}
    assert expected[bad][0] == 2
    fresh_files = {name: (fresh / name).read_bytes() for name in ("h.dot", "h.json")}

    for _ in range(2):
        assert run(capsys, *isometry) == expected[isometry]

        assert run(capsys, "semigroup", "--generators", "3,5", "--json", "s.json") == (
            0, (frozen / "semigroup_3_5.txt").read_text(), "")
        assert (here / "s.json").read_bytes() == (frozen / "semigroup_3_5.json").read_bytes()
        (here / "s.json").unlink()
        assert run(capsys, "semigroup", "--generators", "3,5") == (
            0, (frozen / "semigroup_3_5.txt").read_text(), "")
        assert list(here.iterdir()) == []  # no --json left over from the call before

        assert run_usage_error(capsys, *bad) == expected[bad][2]

        assert run(capsys, "sparse-ideals", "--generators", "3,5", "--leader", "13",
                   "--compare", "10") == (
            0, (frozen / "sparse_ideals_3_5.txt").read_text(), "")
        assert run(capsys, *verify) == expected[verify]

        assert run(capsys, *hierarchy) == expected[hierarchy]
        for name, content in fresh_files.items():
            assert (here / name).read_bytes() == content
            (here / name).unlink()


def test_later_main_calls_build_no_parser(capsys, monkeypatch):
    run(capsys, "isometry", "--q", "2", "--points", "1,2,6")  # may build the parser
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, "isometry", "--q", "2", "--points", "1,2,6")[0] == 0
    assert run(capsys, "semigroup", "--generators", "3,5")[0] == 0
    run_usage_error(capsys, "verify", "--q", "two")
    assert built == []


# `--help` pages saved with COLUMNS=80 under Python 3.11, before the
# parser was shared between calls (argparse's layout varies by version).
HELP_PAGES = ["top", "semigroup", "sparse-ideals", "hierarchy", "verify", "isometry"]


@pytest.mark.parametrize("page", HELP_PAGES)
def test_help_pages_byte_identical(capsys, monkeypatch, page):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if page == "top" else [page, "--help"]
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.encode() == (DATA_DIR / "cli_help" / f"{page}.txt").read_bytes()
