import argparse
import json
import os
import random
import subprocess
import sys
import threading
import tracemalloc
import weakref
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import CORPUS_GENERATORS, DATA_DIR
from sparse_duals import (
    NumericalSemigroup,
    cli,
    gf,
    hermitian,
    inclusion_report,
    leader_set,
    maximum_sparse_from_leader,
    puncturing,
)
from sparse_duals.cli import main


SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_env():
    """The environment of a new interpreter that imports the package from `src`."""
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_fresh(cwd, *argv, stdout=subprocess.PIPE):
    """`python -m sparse_duals ARGV` in a new interpreter, in directory
    `cwd`: (exit code, stdout, stderr). Given an open file as `stdout`,
    the process writes there, and stdout is returned as None."""
    proc = subprocess.run(
        [sys.executable, "-m", "sparse_duals", *argv], cwd=cwd, env=fresh_env(),
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
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


def test_semigroup_bound_below_the_conductor(capsys):
    code, out, err = run(capsys, "semigroup", "--generators", "3,5", "--bound", "5")
    assert (code, out) == (2, "")
    assert err == "error: --bound must be at least the conductor 8\n"


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
    code, out, err = run(capsys, "sparse-ideals", "--generators", "3,5", "--leader", "13",
                         "--compare", "11")
    assert code == 2 and out == "" and "decomposition" in err


@pytest.mark.parametrize(
    "flag,argv",
    [("--leader", ("--leader", "0")), ("--compare", ("--leader", "5", "--compare", "0"))],
    ids=["leader", "compare"],
)
def test_sparse_ideals_leader_below_one_is_usage_error(capsys, flag, argv):
    code, out, err = run(capsys, "sparse-ideals", "--generators", "3,5", *argv)
    assert code == 2
    assert out == ""
    assert f"{flag} must be a positive element of the semigroup, got 0" in err


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


REPORT_JSON_CASES = [
    {}, [], (), [[]], [{}], {"e": []}, None, True, False, 0, -5, 10**40, 1.5,
    "tab\t quote\" back\\ nl\n é \u2028",
    [1, True, 2], [False, 0], (1, 2, 3), ((1, 2), (3,)), [[1, 2], [3], []],
    [1, None, 2], [1, 2.0], [-1, 10**30], ("a", 1),
    {"b": 1, "a": [True, 1], "c\n": {"d": ()}},
    {1: "int key"}, {"x": {2: [1, 2], "y": 3}}, [{True: 1, "k": 2}],
    {"long": list(range(-5, 2**16 + 5))},  # joined in more than one slice
    # the edge of the decimal table (0..4471): in it, past it, mixed in one
    # slice, and a slice inside it followed by one past it
    [0, 4471], [4472, 0], [-1, 0, 4471, 4472, 10**7],
    list(range(4472 - 4096, 4472 + 5)), [4471] * 4096 + [4472, -1],
]


def _random_report_value(rng, depth=0):
    kind = rng.randrange(8 if depth < 4 else 3)
    if kind == 0:
        return rng.choice([None, True, False, 0, -7, 2**70, 0.25, "", "q\"\u00e9\n"])
    if kind in (1, 2):  # a list or tuple of ints, bools sometimes mixed in
        ints = [rng.choice([rng.randrange(-9, 10**6), True, False]) if rng.random() < 0.1
                else rng.randrange(-9, 10**6) for _ in range(rng.randrange(6))]
        return ints if kind == 1 else tuple(ints)
    if kind in (3, 4):
        items = [_random_report_value(rng, depth + 1) for _ in range(rng.randrange(4))]
        return items if kind == 3 else tuple(items)
    keys = rng.sample(["a", "b", "B", "ab", "é", "k\n", "0", "10", "9"], rng.randrange(5))
    if kind == 7 and keys:
        keys[0] = rng.choice([1, 2.5, None, True])  # a key json turns into a string
    return {k: _random_report_value(rng, depth + 1) for k in keys}


def _corpus_payloads():
    """Report-shaped payloads of every corpus semigroup."""
    for gens in CORPUS_GENERATORS:
        S = NumericalSemigroup(gens)
        ideals = [maximum_sparse_from_leader(S, S.index_of(lam))
                  for lam in leader_set(S, 2 * S.conductor)]
        yield {
            "semigroup": S.to_json(),
            "bound": 2 * S.conductor,
            "leaders": [ideal.leader for ideal in ideals],
            "maximum_sparse_ideals": [ideal.to_json() for ideal in ideals],
        }
        yield {
            "ideal": ideals[-1].to_json(),
            "compare": ideals[0].to_json(),
            "inclusion": inclusion_report(ideals[-1], ideals[0]).to_json(),
        }


def test_report_json_is_json_dumps_byte_for_byte(capsys):
    rng = random.Random(4242)
    values = REPORT_JSON_CASES + [_random_report_value(rng) for _ in range(2000)]
    values += list(_corpus_payloads())
    for value in values:
        try:
            expected = json.dumps(value, indent=2, sort_keys=True)
        except TypeError:  # keys of mixed types do not sort
            continue
        pieces: list[str] = []
        cli._report_json(value, pieces.append)
        assert "".join(pieces) == expected, value
    long = tuple(range(2**17 + 3))
    edges = ((0, 4471), (4472, 0), (-1, 0, 4471, 4472, 10**7),
             tuple(range(4472 - 4096, 4472 + 5)), (4471,) * 4096 + (4472, -1))
    for values in (long, (), (7,), *edges):
        cli._print_set("set: ", values, ", end")
        text = "set: {" + ", ".join(map(str, values)) + "}, end\n"
        assert capsys.readouterr().out == text


@pytest.mark.parametrize("gens", CORPUS_GENERATORS)
def test_semigroup_json_files_match_json_dumps(capsys, tmp_path, gens):
    csv = ",".join(map(str, gens))
    S = NumericalSemigroup(gens)
    leaders = leader_set(S, 2 * max(S.conductor, gens[0]))
    for argv in (
        ("semigroup", "--generators", csv),
        ("sparse-ideals", "--generators", csv, "--leader", str(leaders[-1]),
         "--compare", str(leaders[0])),
    ):
        code, _, _ = run(capsys, *argv, "--json", str(tmp_path / "r.json"))
        text = (tmp_path / "r.json").read_text()
        assert code == 0
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


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
    code, out, err = run(capsys, "hierarchy", "--q", "3")
    assert code == 2
    assert out == ""
    assert "refusing to enumerate 2^27 subsets for q=3; use --sample" in err


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


def test_hierarchy_sampled_above_n_points_is_empty(capsys):
    code, out, err = run(capsys, "hierarchy", "--q", "3", "--sample", "1", "--min-size", "28")
    assert (code, err) == (0, "")
    assert "qualifying subsets (size >= 28): 0\ncovering edges: 0\n" in out


@pytest.mark.parametrize("q", [9, 16])
def test_hierarchy_sample_is_refused_above_q8_before_any_draw(capsys, monkeypatch, q):
    def no_draw(*args):
        raise AssertionError("subsets drawn before the size check")

    monkeypatch.setattr(cli, "sample_qualifying_subsets", no_draw)
    code, out, err = run(capsys, "hierarchy", "--q", str(q), "--sample", "1")
    assert (code, out) == (2, "")
    assert f"{q ** 3} points exceeds the limit of {cli.MAX_ORACLE_POINTS}" in err


def test_hierarchy_sample_at_q8_reaches_the_sampler(capsys, monkeypatch):
    draws = []
    monkeypatch.setattr(cli, "sample_qualifying_subsets", lambda *args: draws.append(args) or [])
    code, out, err = run(capsys, "hierarchy", "--q", "8", "--sample", "1")
    assert (code, err, draws) == (0, "", [(8, 2, 1, 0)])
    assert out.startswith("q=8: 512 points, genus 28, boundary 58, sampled")


def test_hierarchy_sample_reports_an_unsupported_q_first(capsys):
    code, out, err = run(capsys, "hierarchy", "--q", "9999", "--sample", "1")
    assert (code, out) == (2, "")
    assert "exceeds the supported order" in err


# `--sample N` walks up to N draws of up to q^3 points at each of q^3
# sizes, so N q^6 is bounded by the work of `--q 8 --sample 1`, 512^2.
@pytest.mark.parametrize("q,sample", [(8, 2), (7, 3), (5, 17), (4, 65), (3, 360)])
def test_hierarchy_sample_is_refused_by_its_work_before_any_draw(capsys, monkeypatch, q,
                                                                 sample):
    def no_draw(*args):
        raise AssertionError("subsets drawn before the work check")

    monkeypatch.setattr(cli, "sample_qualifying_subsets", no_draw)
    code, out, err = run(capsys, "hierarchy", "--q", str(q), "--sample", str(sample))
    assert (code, out) == (2, "")
    assert f"--sample {sample} on {q ** 3} points exceeds the limit of 512 points" in err


@pytest.mark.parametrize("q,sample", [(7, 2), (5, 16), (4, 64), (3, 359), (2, 4096)])
def test_hierarchy_sample_at_its_work_limit_reaches_the_sampler(capsys, monkeypatch, q,
                                                                sample):
    draws = []
    monkeypatch.setattr(cli, "sample_qualifying_subsets", lambda *args: draws.append(args) or [])
    code, _, err = run(capsys, "hierarchy", "--q", str(q), "--sample", str(sample))
    assert (code, err, draws) == (0, "", [(q, 2, sample, 0)])


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--q", "2")
    assert code == 0
    assert "PASS dual-complement-ideal" in out
    assert "PASS inheritance" in out
    assert "PASS criterion-oracle" in out
    assert "result: PASS" in out


def test_verify_has_one_configuration(capsys):
    # `verify` takes --q alone, so argparse expands no prefix, such as
    # `--skip`, to an option that turns a check off.
    err = run_usage_error(capsys, "verify", "--q", "2", "--skip")
    assert err.endswith("error: unrecognized arguments: --skip\n")


def test_an_exception_in_verify_exits_3_with_its_traceback(capsys, monkeypatch):
    make = hermitian._isometry_walk

    def no_column_step(*args):
        root, _, finish = make(*args)

        def advance(*step):
            raise RuntimeError("a column state advanced")

        return root, advance, finish

    monkeypatch.setattr(hermitian, "_isometry_walk", no_column_step)
    code, out, err = run(capsys, "verify", "--q", "2")
    assert (code, out) == (3, "")
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith("RuntimeError: a column state advanced\n")


VERIFY_Q2_PASS = (
    "verify q=2: n=8, genus=1, boundary=4\n"
    "PASS dual-complement-ideal: W \\ W* is an ideal of W for 93/93 subsets with n > 4\n"
    "PASS inheritance: 12 inclusion pairs above the boundary, 0 violations\n"
    "PASS criterion-oracle: criterion matches isometry-vector solve on 93/93 subsets\n"
    "result: PASS (3 passed, 0 failed, 0 skipped)\n"
)


def test_verify_lists_no_divisor_classes(capsys, monkeypatch):
    # Above the boundary the walk's W* decides which subsets qualify.
    def listing(*args, **kwargs):
        raise AssertionError("verify listed divisor classes")

    monkeypatch.setattr(puncturing, "divisor_classes", listing)
    monkeypatch.setattr(cli, "qualifying_subsets", listing)
    assert run(capsys, "verify", "--q", "2") == (0, VERIFY_Q2_PASS, "")


def test_verify_pass_report_byte_identical(capsys):
    assert run(capsys, "verify", "--q", "2") == (0, VERIFY_Q2_PASS, "")


def _alter_walk(monkeypatch, name, alter):
    """Pass each subset's result of the walk `hermitian.<name>` through
    alter(subset, result) before its caller reads it."""
    make = getattr(hermitian, name)

    def altered(*args):
        root, advance, finish = make(*args)
        return root, advance, lambda key, state: alter(key[::-1], finish(key, state))

    monkeypatch.setattr(hermitian, name, altered)


# Each injects one failure into a `verify --q 2` check and returns the
# detail its FAIL line must print.


def _fail_ideal_check(monkeypatch):
    # Two subsets fail; the 6-point one comes first (sizes run downwards).
    # 4 leaves each W* while 4 + 3 or 4 + 2 stays in it, so W \ W* is no
    # ideal; n + 2g - 1 stays out of W*, and both walks read the new W*.
    wrong = {(2, 3, 5, 7, 8): (0, 2, 3, 5, 7), (1, 2, 3, 4, 5, 6): (0, 2, 3, 5, 6, 8)}
    _alter_walk(monkeypatch, "_wstar_walk", lambda subset, wstar: wrong.get(subset, wstar))
    _alter_walk(monkeypatch, "_isometry_walk",
                lambda subset, found: (wrong.get(subset, found[0]), found[1]))
    return ("W \\ W* is an ideal of W for 91/93 subsets with n > 4;"
            " first failing subset 1,2,3,4,5,6")


def _fail_inheritance(monkeypatch):
    verify_inheritance = cli.verify_inheritance

    def violating(graph, W):
        report = verify_inheritance(graph, W)
        return replace(report, violations=report.checked[4:6])

    monkeypatch.setattr(cli, "verify_inheritance", violating)
    return ("12 inclusion pairs above the boundary, 2 violations;"
            " first violation 1,2,3,4,8 < 1,2,3,4,5,6,7,8")


def _fail_oracle(monkeypatch):
    def flipping(subset, found):
        wstar, vector = found
        if subset in ((1, 2, 3, 5, 7, 8), (1, 2, 3, 4, 8)):  # subsets 17 and 40
            vector = (1,) * len(subset) if vector is None else None
        return wstar, vector

    _alter_walk(monkeypatch, "_isometry_walk", flipping)
    return ("criterion matches isometry-vector solve on 91/93 subsets;"
            " first failing subset 1,2,3,5,7,8")


def _fail_cross_check(monkeypatch):
    # Only the column walk's W* of one subset is wrong: the ideal check
    # and the criterion read the Groebner walk's, which the oracle line
    # compares it with.
    def shifted(subset, found):
        wstar, vector = found
        return (wstar[:-1] + (wstar[-1] + 1,) if subset == (1, 3, 4, 6, 7) else wstar), vector

    _alter_walk(monkeypatch, "_isometry_walk", shifted)
    return ("criterion matches isometry-vector solve on 92/93 subsets;"
            " first failing subset 1,3,4,6,7")


def _fail_walked_inheritance(monkeypatch):
    # The Groebner W* of one 7-point subset gains 8 = n + 2g - 1, so the
    # subset qualifies by the criterion, and W \ W* stays an ideal. It
    # adds 5 pairs, two of them a size difference of 1, which is not in W:
    # under the full set and over 2,3,4,5,6,7. The column walk reads the
    # same W* and finds a vector, so the oracle line still passes.
    wrong = {(1, 2, 3, 4, 5, 6, 7): (0, 2, 3, 4, 5, 6, 8)}
    _alter_walk(monkeypatch, "_wstar_walk", lambda subset, wstar: wrong.get(subset, wstar))
    _alter_walk(monkeypatch, "_isometry_walk",
                lambda subset, found: (wrong[subset], (1,) * 7) if subset in wrong else found)
    return ("17 inclusion pairs above the boundary, 2 violations;"
            " first violation 1,2,3,4,5,6,7 < 1,2,3,4,5,6,7,8")


@pytest.mark.parametrize("name,inject", [
    ("dual-complement-ideal", _fail_ideal_check),
    ("inheritance", _fail_inheritance),
    ("criterion-oracle", _fail_oracle),
    ("criterion-oracle", _fail_cross_check),
    ("inheritance", _fail_walked_inheritance),
], ids=["dual-complement-ideal", "inheritance", "criterion-oracle", "two-walks-differ",
        "inheritance-reads-the-walk"])
def test_verify_failure_names_its_witness(capsys, monkeypatch, name, inject):
    detail = inject(monkeypatch)
    code, out, err = run(capsys, "verify", "--q", "2")
    assert (code, err) == (1, "")
    lines = [f"FAIL {name}: {detail}" if line.startswith(f"PASS {name}:") else line
             for line in VERIFY_Q2_PASS.splitlines()[:-1]]
    assert out == "\n".join(lines + ["result: FAIL (2 passed, 1 failed, 0 skipped)", ""])


def test_hierarchy_lists_each_violation_and_exits_1(capsys, monkeypatch):
    _fail_inheritance(monkeypatch)
    code, out, err = run(capsys, "hierarchy", "--q", "2")
    assert (code, err) == (1, "")
    assert out.endswith(
        "inheritance pairs with smaller side > 4: 12, violations: 2\n"
        "pairs at the boundary (not asserted): 18\n"
        "  VIOLATION: (1, 2, 3, 4, 8) < (1, 2, 3, 4, 5, 6, 7, 8)\n"
        "  VIOLATION: (1, 2, 3, 5, 7) < (1, 2, 3, 4, 5, 6, 7, 8)\n"
    )


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


def test_long_report_lines_are_not_held_whole():
    # The ideal of leader 300 000 peaks at about 16 MB; its 2.3 MB complement
    # line held as text, joined and encoded took about 5 MB more.
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(["sparse-ideals", "--generators", "3,5", "--leader", "300000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 19_000_000


DOT_ARGV = ("hierarchy", "--q", "2", "--dot")


@pytest.mark.parametrize(
    "argv",
    [("hierarchy", "--q", "2", "--json"), ("semigroup", "--generators", "3,5", "--json"),
     DOT_ARGV],
    ids=["hierarchy", "semigroup", "hierarchy-dot"],
)
def test_unwritable_output_is_usage_error(capsys, tmp_path, argv):
    target = tmp_path / "missing-dir" / "out.json"
    code, _, err = run(capsys, *argv, str(target))
    assert code == 2
    assert err.startswith("error: ") and err.endswith(f"'{target}.part'\n")
    assert "Traceback" not in err
    assert not target.exists()


def test_failed_json_report_leaves_the_target_as_it_was(capsys, monkeypatch, tmp_path):
    target = tmp_path / "out.json"
    target.write_text("earlier report\n", encoding="utf-8")
    target.chmod(0o640)
    write_report = cli._report_json

    def fail_part_way(value, write, indent=""):
        write("[\n  1")
        raise MemoryError

    monkeypatch.setattr(cli, "_report_json", fail_part_way)
    code, _, err = run(capsys, "semigroup", "--generators", "3,5", "--json", str(target))
    assert (code, err) == (2, "error: out of memory\n")
    assert target.read_text(encoding="utf-8") == "earlier report\n"
    assert sorted(tmp_path.iterdir()) == [target]

    monkeypatch.setattr(cli, "_report_json", write_report)
    code, _, _ = run(capsys, "semigroup", "--generators", "3,5", "--json", str(target))
    assert code == 0 and json.loads(target.read_text(encoding="utf-8"))["bound"] == 16
    assert target.stat().st_mode & 0o777 == 0o640
    assert sorted(tmp_path.iterdir()) == [target]


def _q2_dot(capsys, tmp_path):
    """The report lines before the file line, and the DOT text, of
    `hierarchy --q 2 --dot` into a file of its own."""
    target = tmp_path / "ref.dot"
    code, out, _ = run(capsys, *DOT_ARGV, str(target))
    assert code == 0 and out.endswith(f"wrote DOT to {target}\n")
    text = target.read_text(encoding="utf-8")
    target.unlink()
    return out.removesuffix(f"wrote DOT to {target}\n"), text


def test_failed_dot_file_leaves_the_target_as_it_was(capsys, monkeypatch, tmp_path):
    _, text = _q2_dot(capsys, tmp_path)
    target = tmp_path / "out.dot"
    target.write_text("earlier graph\n", encoding="utf-8")
    target.chmod(0o640)
    export_dot = cli.export_dot

    def fail_part_way(graph):
        assert sorted(tmp_path.iterdir()) == [target, tmp_path / "out.dot.part"]
        raise MemoryError

    monkeypatch.setattr(cli, "export_dot", fail_part_way)
    code, _, err = run(capsys, *DOT_ARGV, str(target))
    assert (code, err) == (2, "error: out of memory\n")
    assert target.read_text(encoding="utf-8") == "earlier graph\n"
    assert sorted(tmp_path.iterdir()) == [target]

    monkeypatch.setattr(cli, "export_dot", export_dot)
    code, _, _ = run(capsys, *DOT_ARGV, str(target))
    assert code == 0 and target.read_text(encoding="utf-8") == text
    assert target.stat().st_mode & 0o777 == 0o640
    assert sorted(tmp_path.iterdir()) == [target]


def test_json_report_through_a_link_writes_the_linked_file(capsys, tmp_path):
    target, link = tmp_path / "out.json", tmp_path / "link.json"
    target.write_text("earlier report\n", encoding="utf-8")
    link.symlink_to(target.name)
    code, _, _ = run(capsys, "semigroup", "--generators", "3,5", "--json", str(link))
    assert code == 0 and link.is_symlink()
    assert json.loads(target.read_text(encoding="utf-8"))["bound"] == 16
    assert sorted(tmp_path.iterdir()) == [link, target]


def test_dot_file_through_a_link_writes_the_linked_file(capsys, tmp_path):
    _, text = _q2_dot(capsys, tmp_path)
    target, link = tmp_path / "out.dot", tmp_path / "link.dot"
    target.write_text("earlier graph\n", encoding="utf-8")
    link.symlink_to(target.name)
    code, _, _ = run(capsys, *DOT_ARGV, str(link))
    assert code == 0 and link.is_symlink()
    assert target.read_text(encoding="utf-8") == text
    assert sorted(tmp_path.iterdir()) == [link, target]


def _read_pipe_while(pipe, *argv):
    """The exit code of `main(argv)` and the text it wrote into the named
    pipe `pipe`, read by another thread."""
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_text(encoding="utf-8")))
    reader.daemon = True
    reader.start()
    code = main(list(argv))
    reader.join(timeout=30)
    assert not reader.is_alive()
    return code, received[0]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_json_report_to_a_pipe_is_written_in_place(capsys, tmp_path):
    pipe = tmp_path / "report"
    code, received = _read_pipe_while(pipe, "semigroup", "--generators", "3,5", "--json",
                                      str(pipe))
    assert code == 0 and json.loads(received)["bound"] == 16
    assert sorted(tmp_path.iterdir()) == [pipe] and not pipe.is_file()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_dot_file_to_a_pipe_is_written_in_place(capsys, tmp_path):
    _, text = _q2_dot(capsys, tmp_path)
    pipe = tmp_path / "graph"
    code, received = _read_pipe_while(pipe, *DOT_ARGV, str(pipe))
    assert (code, received) == (0, text)
    assert sorted(tmp_path.iterdir()) == [pipe] and not pipe.is_file()


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_json_report_to_dev_stdout_follows_the_report(capsys, tmp_path):
    code, report, _ = run(capsys, "semigroup", "--generators", "3,5", "--json",
                          str(tmp_path / "r.json"))
    text = (tmp_path / "r.json").read_text(encoding="utf-8")
    assert code == 0
    argv = ("semigroup", "--generators", "3,5", "--json")
    assert run_fresh(tmp_path, *argv, "/dev/stdout") == (0, report + text, "")  # a pipe
    assert run_fresh(tmp_path, *argv, "/dev/stderr") == (0, report, text)
    with open(tmp_path / "out.txt", "w", encoding="utf-8") as out:  # a file the caller opened
        assert run_fresh(tmp_path, *argv, "/dev/stdout", stdout=out) == (0, None, "")
    assert (tmp_path / "out.txt").read_text(encoding="utf-8") == report + text
    assert sorted(tmp_path.iterdir()) == [tmp_path / "out.txt", tmp_path / "r.json"]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_dot_file_to_dev_stdout_follows_the_report(capsys, tmp_path):
    report, text = _q2_dot(capsys, tmp_path)
    line = "wrote DOT to {}\n".format
    assert run_fresh(tmp_path, *DOT_ARGV, "/dev/stdout") == (
        0, report + text + line("/dev/stdout"), "")  # a pipe
    assert run_fresh(tmp_path, *DOT_ARGV, "/dev/stderr") == (
        0, report + line("/dev/stderr"), text)
    with open(tmp_path / "out.txt", "w", encoding="utf-8") as out:  # a file the caller opened
        assert run_fresh(tmp_path, *DOT_ARGV, "/dev/stdout", stdout=out) == (0, None, "")
    assert (tmp_path / "out.txt").read_text(encoding="utf-8") == (
        report + text + line("/dev/stdout"))
    assert sorted(tmp_path.iterdir()) == [tmp_path / "out.txt"]


def test_a_closed_stdout_pipe_exits_141_quietly(tmp_path):
    # The report, about 851 KB, outgrows any pipe buffer, so the command
    # is still writing when the reader closes its end, as `| head` does.
    proc = subprocess.Popen(
        [sys.executable, "-m", "sparse_duals", "semigroup", "--generators", "3,5",
         "--bound", "600"], cwd=tmp_path, env=fresh_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    with proc:
        assert proc.stdout.read(20) == b"semigroup generated "
        proc.stdout.close()
        assert (proc.wait(timeout=120), proc.stderr.read()) == (141, b"")


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


def test_isometry_index_zero(capsys):
    code, out, err = run(capsys, "isometry", "--q", "2", "--points", "0")
    assert (code, out) == (2, "")
    assert err == "error: point index 0 outside 1..8\n"


def test_isometry_repeated_index_is_usage_error(capsys):
    code, out, err = run(capsys, "isometry", "--q", "2", "--points", "1,1")
    assert (code, out) == (2, "")
    assert err == "error: evaluation points must be pairwise distinct\n"


def test_isometry_points_in_the_order_given(capsys):
    code, out, err = run(capsys, "isometry", "--q", "2", "--points", "3,1,2")
    assert (code, err) == (0, "")
    assert out == (
        "q=2 subset 3,1,2: n=3, genus=1\n"
        "W*: 0 2 3\n"
        "criterion (n+2g-1 = 4 in W*): false\n"
        "isometry vector (encodings): 1,3,2\n"
    )


@pytest.mark.parametrize("q,message", [
    ("1", "q must be >= 2, got 1"),
    ("6", "q = 6 is not a prime power"),
    ("17", "GF(289) exceeds the supported order 256"),
], ids=["1", "6", "17"])
def test_isometry_unsupported_q(capsys, q, message):
    code, out, err = run(capsys, "isometry", "--q", q)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_isometry_builds_only_the_named_points_and_no_groebner_walk(capsys, monkeypatch):
    # W* comes from the oracle's own column walk, and only the five named
    # points are wrapped as `CurvePoint`s.
    package = sys.modules["sparse_duals"]
    walks, points = [], []

    def no_wstar(*args):
        walks.append(args)
        raise AssertionError("a Groebner walk ran")

    for module in (hermitian, package):
        monkeypatch.setattr(module, "compute_wstar", no_wstar)
    monkeypatch.setattr(hermitian, "_wstar_walk", no_wstar)
    init = hermitian.CurvePoint.__init__

    def counting_init(self, *args, **kwargs):
        points.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(hermitian.CurvePoint, "__init__", counting_init)
    code, out, _ = run(capsys, "isometry", "--q", "4", "--points", "7,15,41,42,52")
    assert code == 0
    assert out.encode() == (DATA_DIR / "hermitian_cli" / "isometry_q4_vector.txt").read_bytes()
    assert (len(walks), len(points)) == (0, 5)


def test_isometry_empty_point_list_is_usage_error(capsys):
    # An empty list is not "all points".
    code, out, err = run(capsys, "isometry", "--q", "3", "--points", "")
    assert code == 2
    assert out == ""
    assert "at least one evaluation point" in err


def test_isometry_refuses_more_points_than_the_oracle_limit(capsys, monkeypatch):
    def no_walk(*args):
        raise AssertionError("the walk ran on an oversized set")

    monkeypatch.setattr(cli, "isometry_sequence", no_walk)
    code, out, err = run(capsys, "isometry", "--q", "9")  # 729 points
    assert code == 2
    assert out == ""
    assert f"729 points exceeds the limit of {cli.MAX_ORACLE_POINTS}" in err
    assert "--points" in err


@pytest.mark.parametrize("count", ["0", "-1"])
def test_hierarchy_sample_below_one_is_usage_error(capsys, count):
    code, out, err = run(capsys, "hierarchy", "--q", "3", "--sample", count)
    assert code == 2
    assert out == ""
    assert f"--sample must be at least 1, got {count}" in err


def test_hierarchy_sample_min_size_below_one_is_usage_error(capsys):
    code, out, err = run(capsys, "hierarchy", "--q", "2", "--sample", "1", "--min-size", "0")
    assert (code, out, err) == (2, "", "error: min_size must be >= 1\n")


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


def test_generators_that_are_not_integers_are_a_usage_error(capsys):
    err = run_usage_error(capsys, "semigroup", "--generators", "3,x")
    assert "expected comma-separated integers: 3,x" in err


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
    verify = ("verify", "--q", "2")
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


def field_builds(monkeypatch, capsys, *argv) -> int:
    """How many `Field`s an in-process `main(argv)` builds (it must exit 0)."""
    built = []
    init = gf.Field.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(gf.Field, "__init__", counting_init)
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr(gf.Field, "__init__", init)
    return len(built)


FIELD_COMMANDS = [
    ("verify", "--q", "2"),
    ("hierarchy", "--q", "2"),
    ("isometry", "--q", "3", "--points", "1,5,9,13,17,21"),
]


@pytest.mark.parametrize("argv", FIELD_COMMANDS, ids=lambda argv: argv[0])
def test_a_command_builds_one_field(capsys, monkeypatch, argv):
    # Start with no field alive, whatever other tests hold.
    fresh = weakref.WeakValueDictionary()
    monkeypatch.setattr(hermitian, "_FIELDS", fresh, raising=False)
    assert field_builds(monkeypatch, capsys, *argv) == 1
    held = hermitian.hermitian_field(int(argv[2]))
    assert field_builds(monkeypatch, capsys, *argv) == 0
    assert hermitian.hermitian_field(int(argv[2])) is held


@pytest.mark.parametrize("argv,walks,certified", [
    # `verify` walks the 93 subsets above the boundary once, the Groebner
    # and the column state side by side, and reads its qualifying sets off
    # that walk: it certifies no divisor classes.
    (("verify", "--q", "2"), ["groebner", "columns", 93], []),
    # The certificate of q = 2 walks its 8 witnesses in one family, with
    # the Groebner state alone.
    (("hierarchy", "--q", "2"), ["groebner", 8], [8]),
], ids=["verify", "hierarchy"])
def test_wstar_computations_per_command(capsys, monkeypatch, argv, walks, certified):
    # Logs each walk state a command makes and the size of each trie walk.
    log, families = [], []
    compute_wstar_family = puncturing.compute_wstar_family

    def counting_family(points, q, subsets):
        families.append(len(subsets))
        return compute_wstar_family(points, q, subsets)

    def logging(name, make):
        return lambda *args: log.append(name) or make(*args)

    def one_computation(*args):
        raise AssertionError("a subset is computed on its own")

    monkeypatch.setattr(hermitian, "_wstar_walk", logging("groebner", hermitian._wstar_walk))
    monkeypatch.setattr(hermitian, "_isometry_walk",
                        logging("columns", hermitian._isometry_walk))
    trie_walk = hermitian._trie_walk
    monkeypatch.setattr(hermitian, "_trie_walk",
                        lambda order, *walk: log.append(len(order)) or trie_walk(order, *walk))
    monkeypatch.setattr(puncturing, "compute_wstar_family", counting_family)
    monkeypatch.setattr(cli, "isometry_sequence", one_computation)
    assert run(capsys, *argv)[0] == 0
    assert (log, families) == (walks, certified)


@pytest.mark.parametrize("error,code", [(RuntimeError, 3), (MemoryError, 2)],
                         ids=["RuntimeError", "MemoryError"])
def test_unexpected_errors_do_not_exit_1(capsys, monkeypatch, error, code):
    # Exit 1 means a failed verification; anything else must not look like one.
    def failing(*args):
        raise error("injected")

    monkeypatch.setattr(cli, "leader_set", failing)
    exit_code, out, err = run(capsys, "semigroup", "--generators", "3,5")
    assert (exit_code, out) == (code, "")
    if error is MemoryError:
        assert err == "error: out of memory\n"
    else:
        assert err.startswith("Traceback (most recent call last):")
        assert err.endswith("RuntimeError: injected\n")


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
