"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured result (run with -s to see them inline).
All checks are exact; the only tolerances are the stated runtime caps.
"""

import json
import random
import time

from sparse_duals import (
    NumericalSemigroup,
    build_hierarchy,
    divisor_set,
    find_isometry_vectors,
    gap_pair_count,
    inclusion_report,
    is_maximum_sparse,
    isometry_dual_criterion,
    leader_set,
    maximum_sparse_from_leader,
    monomial_basis,
    enumerate_proper_ideals,
    qualifying_subsets,
    verify_inheritance,
    weierstrass_semigroup,
)
from sparse_duals.cli import main
from sparse_duals.puncturing import node_label


def _report(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_criterion_01_hierarchy_nodes(tmp_path, expected_hierarchy, capsys):
    started = time.perf_counter()
    graph_path = tmp_path / "hierarchy.json"
    code = main(
        ["hierarchy", "--q", "2", "--min-size", "2", "--json", str(graph_path)]
    )
    elapsed = time.perf_counter() - started
    capsys.readouterr()
    assert code == 0
    nodes = json.loads(graph_path.read_text())["nodes"]
    labels = sorted("".join(map(str, n["set"])) for n in nodes)
    assert labels == sorted(expected_hierarchy["nodes"])
    assert len(labels) == 31
    assert elapsed < 10.0
    _report(1, f"all 31 hierarchy nodes reproduced exactly in {elapsed:.2f}s")


def test_criterion_02_hierarchy_edges(expected_hierarchy):
    graph = build_hierarchy(qualifying_subsets(2, min_size=2), boundary=4)
    labels = [node_label(n, compact=True) for n in graph.nodes]
    edges = sorted((labels[c], labels[p]) for c, p in graph.edges)
    assert edges == sorted(tuple(e) for e in expected_hierarchy["edges"])
    for spot in (("18", "1258"), ("126", "12467"), ("123568", "12345678")):
        assert spot in edges
    _report(2, f"all {len(edges)} covering edges reproduced exactly")


def test_criterion_03_inheritance(q2_sequences):
    W = weierstrass_semigroup(2)
    graph = build_hierarchy(qualifying_subsets(2, min_size=2), boundary=4)
    report = verify_inheritance(graph, W)
    assert report.violations == ()
    assert len(report.checked) > 0
    for child, parent in report.checked:
        assert W.contains(len(parent) - len(child))
        assert len(parent) - len(child) != 1
    assert report.min_edge_gap >= 2
    _report(
        3,
        f"{len(report.checked)} qualifying inclusion pairs above the boundary,"
        f" 0 violations; smallest edge gap {report.min_edge_gap}",
    )


def test_criterion_04_criterion_iff_oracle(q2_points, q2_sequences):
    started = time.perf_counter()
    checked = 0
    combos = [combo for combo in q2_sequences if len(combo) > 4]
    for combo, vector in zip(combos, find_isometry_vectors(q2_points, 2, combos), strict=True):
        criterion = isometry_dual_criterion(q2_sequences[combo].wstar, 2)
        assert criterion == (vector is not None), combo
        if vector is not None:
            assert 0 not in vector
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 93
    assert elapsed < 300.0
    _report(4, f"criterion == oracle on all {checked} subsets with n > 4 in {elapsed:.2f}s")


def _matches_characterization(S, ideal):
    """Is the complement exactly D(i) for some i >= 1 with G(i) = 0?"""
    top = max(ideal.complement)
    if top == 0:
        return False
    i = S.index_of(top)
    return gap_pair_count(S, i) == 0 and divisor_set(S, i) == ideal.complement


def test_criterion_05_sparse_characterization(corpus):
    assert len(corpus) >= 30
    ideals_checked = 0
    for S in corpus:
        for ideal in enumerate_proper_ideals(S, max_complement_size=6):
            assert is_maximum_sparse(ideal) == _matches_characterization(S, ideal)
            ideals_checked += 1
    _report(
        5,
        f"Frobenius-bound test agrees with the divisor-set characterization on"
        f" {ideals_checked} proper ideals over {len(corpus)} semigroups",
    )


def test_criterion_06_four_way_equivalence(corpus):
    pairs_checked = 0
    for S in corpus:
        ideals = [
            maximum_sparse_from_leader(S, S.index_of(lam))
            for lam in leader_set(S, 3 * S.conductor)
        ]
        for a in ideals:
            for b in ideals:
                assert inclusion_report(a, b).agree
                pairs_checked += 1
    _report(
        6,
        f"four-way inclusion equivalence agrees on {pairs_checked} ordered pairs"
        f" of maximum sparse ideals",
    )


def test_criterion_07_leader_set_is_an_ideal(corpus):
    closures_checked = 0
    for S in corpus:
        bound = 4 * S.conductor
        leaders = leader_set(S, bound)
        leader_lookup = set(leaders)
        for lam in leaders:
            assert lam >= S.conductor
            for s in S.members(bound - lam):
                assert lam + s in leader_lookup
                closures_checked += 1
    _report(
        7,
        f"leader sets closed under addition ({closures_checked} sums) and all"
        f" leaders at least the conductor, over {len(corpus)} semigroups",
    )


def test_criterion_08_weierstrass_consistency():
    W = weierstrass_semigroup(2)
    assert W == NumericalSemigroup([2, 3])
    assert W.genus == 1
    basis = monomial_basis(2, 17)
    assert basis == [
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (3, 0), (2, 1), (4, 0), (3, 1),
        (5, 0), (4, 1), (6, 0), (5, 1), (7, 0), (6, 1), (8, 0), (7, 1),
    ]
    assert [2 * a + 3 * b for a, b in basis] == [0] + list(range(2, 18))
    _report(8, "Weierstrass semigroup <2,3> with genus 1; first 17 basis functions in order")


def test_criterion_09_puncturing_monotonicity(q2_sequences):
    rng = random.Random(1203)
    combos = [c for c in q2_sequences if len(c) >= 2]
    checked = 0
    while checked < 500:
        sup = rng.choice(combos)
        size = rng.randint(1, len(sup) - 1)
        sub = tuple(sorted(rng.sample(sup, size)))
        assert set(q2_sequences[sub].wstar) <= set(q2_sequences[sup].wstar)
        checked += 1
    _report(9, f"W* monotone under puncturing on {checked} seeded random nested pairs")
