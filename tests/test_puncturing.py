import random
import re
import weakref
from collections import Counter
from itertools import combinations
from math import prod

import pytest

from oracles import (
    naive_covering_edges,
    naive_inclusion_pairs,
    naive_qualifying_subsets,
    naive_zero_set_relations,
    wstar_qualifies,
)
from sparse_duals import (
    TooManySubsets,
    build_hierarchy,
    compute_wstar_family,
    curve_genus,
    divisor_classes,
    export_dot,
    gf,
    graph_to_json,
    hermitian,
    hermitian_points,
    isometry_dual_criterion,
    puncturing,
    qualifying_subsets,
    sample_qualifying_subsets,
    verify_inheritance,
    weierstrass_semigroup,
)
from sparse_duals.puncturing import node_label


def _labels(subsets):
    return ["".join(map(str, s)) for s in subsets]


def test_qualifying_subsets_match_fixture(expected_hierarchy):
    subsets = qualifying_subsets(2, min_size=2)
    assert sorted(_labels(subsets)) == sorted(expected_hierarchy["nodes"])
    assert len(subsets) == 31
    # cardinality-descending, then lexicographic
    assert subsets == sorted(subsets, key=lambda s: (-len(s), s))


def test_qualifying_subsets_min_size():
    assert _labels(qualifying_subsets(2, min_size=8)) == ["12345678"]
    assert _labels(qualifying_subsets(2, min_size=7)) == ["12345678"]
    with pytest.raises(ValueError):
        qualifying_subsets(2, min_size=0)


def test_node_multiset_by_cardinality():
    sizes = {}
    for s in qualifying_subsets(2, min_size=2):
        sizes[len(s)] = sizes.get(len(s), 0) + 1
    assert sizes == {8: 1, 6: 4, 5: 8, 4: 6, 3: 8, 2: 4}


def test_too_many_subsets():
    with pytest.raises(TooManySubsets, match="2\\^64 subsets for q=4"):
        qualifying_subsets(4)


def test_class_test_matches_wstar_on_every_q2_subset(q2_points):
    classes = divisor_classes(2)
    assert classes.orders == (3, 3)
    for size in range(1, 9):
        for combo in combinations(range(1, 9), size):
            assert classes.qualifies(combo) == wstar_qualifies(2, q2_points, combo), combo


@pytest.mark.parametrize("min_size", range(1, 9))
def test_qualifying_subsets_match_the_wstar_sweep_q2(min_size):
    assert qualifying_subsets(2, min_size) == naive_qualifying_subsets(2, min_size)


Q3_QUALIFYING_BY_SIZE = {3: 9, 4: 54, 6: 72, 7: 270, 8: 675, 9: 1056, 10: 2160,
                         11: 3051, 12: 4068, 13: 4968}


def test_q3_qualifying_subsets_are_listed_exactly():
    found = qualifying_subsets(3, min_size=1)
    assert len(found) == 32767
    assert found == sorted(found, key=lambda s: (-len(s), s))
    by_size = Counter(map(len, found))
    assert by_size == {**Q3_QUALIFYING_BY_SIZE,
                       **{27 - k: v for k, v in Q3_QUALIFYING_BY_SIZE.items()}, 27: 1}
    # P qualifies iff its complement does: (x^9 - x) / f has the other zeros.
    everything = frozenset(range(1, 28))
    found_sets = set(map(frozenset, found))
    assert {everything - s for s in found_sets if s != everything} == found_sets - {everything}
    assert qualifying_subsets(3, min_size=13) == [s for s in found if len(s) >= 13]


def test_q3_class_membership_matches_wstar():
    points = hermitian_points(3)
    classes = divisor_classes(3)
    assert classes.orders == (4,) * 6  # (q + 1)^(2g) = 4096 classes
    smallest = {}  # one smallest non-empty subset per class
    for size in range(1, 28):
        for combo in combinations(range(1, 28), size):
            smallest.setdefault(classes.class_of(combo), combo)
        assert len(smallest) <= prod(classes.orders)  # classes are reduced
        if len(smallest) == prod(classes.orders):
            break
    rng = random.Random(3)
    drawn = [tuple(sorted(rng.sample(range(1, 28), rng.randint(1, 27)))) for _ in range(300)]
    for combo in list(smallest.values()) + drawn:
        assert classes.qualifies(combo) == wstar_qualifies(3, points, combo), combo


def _x_fibres(points):
    """The point indices grouped by x: the zero sets of the x - a."""
    fibres = {}
    for i, pt in enumerate(points, 1):
        fibres.setdefault(pt.x.value, []).append(i)
    return list(fibres.values())


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
def test_tangent_map_is_antisymmetric_with_a_zero_diagonal(q):
    M = list(puncturing._tangent_columns(q, q + 1))  # M[j] is column j
    assert len(M) == q**3 and {len(column) for column in M} == {q**3}
    for j, column in enumerate(M):
        assert column[j] == 0
        assert all((column[i] + M[i][j]) % (q + 1) == 0 for i in range(j)), j


@pytest.mark.parametrize("q,count", [(2, 18), (3, 135), (4, 328)])
def test_every_zero_set_relation_lies_in_class_0(q, count):
    points = hermitian_points(q)
    classes = divisor_classes(q)
    relations = naive_zero_set_relations(q, points)
    assert len(relations) == count
    for mask in relations:
        subset = [i for i in range(1, q**3 + 1) if mask >> (i - 1) & 1]
        assert classes.qualifies(subset), subset


@pytest.mark.parametrize("q", [4, 5, 7, 8])
def test_the_class_group_has_order_q_plus_1_to_the_2g(q):
    classes = divisor_classes(q)
    assert prod(classes.orders) == (q + 1) ** (2 * curve_genus(q))
    assert len(classes.point_classes) == q**3
    assert all(0 <= c < d for row in classes.point_classes for c, d in zip(row, classes.orders))
    # Relations: the x-fibres, zeros of x - a, and all points, of x^(q^2) - x.
    assert all(classes.qualifies(fibre) for fibre in _x_fibres(hermitian_points(q)))
    assert classes.qualifies(range(1, q**3 + 1))


@pytest.mark.parametrize("q", [4, 5, 7, 8])
def test_class_test_matches_the_wstar_criterion(q):
    points = hermitian_points(q)
    n, fibres, rng = len(points), _x_fibres(points), random.Random(q)
    sets = []
    for _ in range(5):
        sets.append(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
        union = sorted(i for f in rng.sample(fibres, rng.randint(1, q * q - 1)) for i in f)
        swapped = set(union) - {rng.choice(union)}
        swapped.add(rng.choice(sorted(set(range(1, n + 1)) - set(union))))
        sets += [union, sorted(swapped)]
    classes = divisor_classes(q)
    verdicts = [classes.qualifies(s) for s in sets]
    assert verdicts == [isometry_dual_criterion(w, q)
                        for w in compute_wstar_family(points, q, sets)]
    assert verdicts[1::3] == [True] * 5 and False in verdicts


@pytest.mark.parametrize("q", [0, -1])
def test_curves_below_q_2_are_rejected(q):
    # With no prime dividing q + 1 the class map was once empty, so every
    # subset "qualified" and the listing returned [].
    message = re.escape(f"q must be >= 2, got {q}")
    for call in (divisor_classes, qualifying_subsets,
                 lambda q: sample_qualifying_subsets(q, 2, 1, 0)):
        with pytest.raises(ValueError, match=message):
            call(q)


def test_divisor_classes_builds_one_field(monkeypatch):
    # q + 1 = 6 has two primes; the columns of both come from one GF(25).
    monkeypatch.setattr(hermitian, "_FIELDS", weakref.WeakValueDictionary())
    built, init = [], gf.Field.__init__
    monkeypatch.setattr(gf.Field, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    assert sorted(set(divisor_classes(5).orders)) == [2, 3]
    assert built == [(5, 2)]


def test_class_of_sums_the_point_classes():
    classes = divisor_classes(3)
    assert classes.class_of(()) == classes.zero == (0,) * 6
    rows = classes.point_classes[4:20]
    by_hand = tuple(sum(row[k] for row in rows) % 4 for k in range(6))
    assert classes.class_of(range(5, 21)) == classes.class_of(list(range(5, 21))) == by_hand
    assert any(by_hand)


def test_tangent_columns_of_too_low_rank_raise(monkeypatch):
    # A constant tangent value gives every column the same entries: rank 1.
    monkeypatch.setattr(puncturing, "_tangent_columns", lambda q, m: [b"\x01" * q**3] * q**3)
    with pytest.raises(AssertionError, match="M has rank 1 < 2g = 2 mod 3"):
        qualifying_subsets(2)


def test_covering_edges_match_fixture(expected_hierarchy):
    graph = build_hierarchy(qualifying_subsets(2, min_size=2), boundary=4)
    labels = [node_label(n, compact=True) for n in graph.nodes]
    edge_labels = sorted((labels[c], labels[p]) for c, p in graph.edges)
    expected = sorted((c, p) for c, p in expected_hierarchy["edges"])
    assert edge_labels == expected
    assert ("18", "1258") in edge_labels
    assert ("126", "12467") in edge_labels
    assert ("123568", "12345678") in edge_labels
    # non-covering inclusion is not an edge: it factors through 1258
    assert ("18", "123568") not in edge_labels


def test_left_of_line_flags():
    graph = build_hierarchy(qualifying_subsets(2, min_size=2), boundary=4)
    nodes = graph_to_json(graph)["nodes"]
    assert {node["left_of_line"] for node in nodes} == {True, False}
    for node in nodes:
        assert node["left_of_line"] == (len(node["set"]) > 4)


def test_build_hierarchy_small_shapes():
    single = build_hierarchy([(1, 2, 3)], boundary=4)
    assert len(single.nodes) == 1 and single.edges == ()
    chain = build_hierarchy([(1,), (1, 2), (1, 2, 3)], boundary=4)
    assert chain.nodes == ((1, 2, 3), (1, 2), (1,))
    assert sorted(chain.edges) == [(1, 0), (2, 1)]  # only covering steps
    with pytest.raises(ValueError):
        build_hierarchy([(1, 2), (2, 1)], boundary=4)


def test_verify_inheritance_on_full_graph():
    W = weierstrass_semigroup(2)
    graph = build_hierarchy(qualifying_subsets(2, min_size=2), boundary=4)
    report = verify_inheritance(graph, W)
    assert graph.boundary == 4
    assert report.ok
    assert len(report.checked) == 12
    assert report.violations == ()
    assert report.min_edge_gap == 2
    assert len(report.boundary_pairs) == 18


def test_bitmask_hierarchy_matches_frozenset_loops():
    rng = random.Random(8)
    W = weierstrass_semigroup(2)
    for _ in range(60):
        family = {tuple(sorted(rng.sample(range(1, 9), rng.randint(1, 8))))
                  for _ in range(rng.randint(0, 40))}
        boundary = rng.randint(0, 8)
        graph = build_hierarchy(list(family), boundary=boundary)
        subsets = list(graph.nodes)
        assert graph.edges == naive_covering_edges(subsets)
        report = verify_inheritance(graph, W)
        checked, at_boundary = naive_inclusion_pairs(subsets, boundary)
        assert (report.checked, report.boundary_pairs) == (checked, at_boundary)
        assert report.violations == tuple(
            (c, p) for c, p in checked if not W.contains(len(p) - len(c)))


def test_verify_inheritance_flags_fabricated_pair():
    W = weierstrass_semigroup(2)
    graph = build_hierarchy([(1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6)], boundary=4)
    report = verify_inheritance(graph, W)
    assert not report.ok
    assert report.violations == (((1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6)),)
    assert report.min_edge_gap == 1


def test_verify_inheritance_empty_graph():
    report = verify_inheritance(build_hierarchy([], boundary=4), weierstrass_semigroup(2))
    assert report.ok and report.checked == ()


def test_export_dot_deterministic(expected_hierarchy):
    graph = build_hierarchy(qualifying_subsets(2, min_size=2), boundary=4)
    text1, text2 = export_dot(graph), export_dot(graph)
    assert text1 == text2
    assert '"12345678"' in text1
    assert text1.count(" -> ") == len(expected_hierarchy["edges"])
    assert '"18" [style=dashed]' in text1
    assert '"12345678" [style=dashed]' not in text1


def test_export_dot_edge_cases():
    empty = export_dot(build_hierarchy([], boundary=4))
    assert empty.startswith("digraph") and empty.rstrip().endswith("}")
    two = export_dot(build_hierarchy([(1,), (1, 2)], boundary=4))
    assert two.count(" -> ") == 1
    wide = export_dot(build_hierarchy([(1, 12)], boundary=4))
    assert '"1-12"' in wide  # indices above 9 switch to separated labels


def test_graph_json_schema():
    graph = build_hierarchy([(1, 8), (1, 2, 5, 8)], boundary=4)
    data = graph_to_json(graph)
    assert data == {
        "nodes": [
            {"set": [1, 2, 5, 8], "left_of_line": False},
            {"set": [1, 8], "left_of_line": False},
        ],
        "edges": [[1, 0]],
    }


@pytest.mark.parametrize("index", [0, -1, 9])
def test_point_indices_outside_1_to_n_are_rejected(q2_points, index):
    # Index 0 once read the last point (points[-1]) without a word.
    message = f"point index {index} outside 1..8"
    with pytest.raises(ValueError, match=message):
        compute_wstar_family(q2_points, 2, [[index, 1, 2, 3, 4, 5, 6]])
    with pytest.raises(ValueError, match=message):
        compute_wstar_family(q2_points, 2, [[1, index]])
    with pytest.raises(ValueError, match=message):
        divisor_classes(2).class_of([index])


def test_sampling_is_seed_deterministic():
    a = sample_qualifying_subsets(2, min_size=2, per_size=5, seed=11)
    b = sample_qualifying_subsets(2, min_size=2, per_size=5, seed=11)
    assert a == b
    exhaustive = set(qualifying_subsets(2, min_size=2))
    assert set(a) <= exhaustive


def test_sampling_with_every_subset_drawn_finds_exactly_the_qualifying_ones():
    # 1000 draws per size reach every q = 2 subset of 2..8 points. The
    # sampler keeps its draws by class; the oracle walks W* of each subset.
    found = sample_qualifying_subsets(2, min_size=2, per_size=1000, seed=3)
    assert found == qualifying_subsets(2) == naive_qualifying_subsets(2, 2)


def test_sampling_keeps_exactly_the_draws_that_qualify_by_wstar():
    # The sampler's own draws (the same rng calls), each judged by W*.
    q, n, rng = 3, 27, random.Random(0)
    drawn = list({tuple(sorted(rng.sample(range(1, n + 1), size)))
                  for size in range(n, 1, -1) for _ in range(359)})
    wstars = compute_wstar_family(hermitian_points(q), q, drawn)
    expected = [s for s, w in zip(drawn, wstars) if isometry_dual_criterion(w, q)]
    found = sample_qualifying_subsets(q, min_size=2, per_size=359, seed=0)
    assert found == sorted(expected, key=lambda s: (-len(s), s))
    assert len(found) == 8


def test_sampled_q4_sets_qualify_by_wstar():
    found = sample_qualifying_subsets(4, min_size=2, per_size=8, seed=4)
    assert tuple(range(1, 65)) in found
    wstars = compute_wstar_family(hermitian_points(4), 4, found)
    assert all(isometry_dual_criterion(w, 4) for w in wstars)


def test_sampling_above_n_points_finds_nothing():
    assert sample_qualifying_subsets(3, min_size=28, per_size=1, seed=0) == []


def test_sampling_q3_includes_full_set():
    found = sample_qualifying_subsets(3, min_size=26, per_size=2, seed=7)
    assert tuple(range(1, 28)) in found
