import random
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
    divisor_classes,
    export_dot,
    graph_to_json,
    hermitian_points,
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
    assert len(puncturing._zero_set_relations(2, q2_points)) == 18
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
    assert len(puncturing._zero_set_relations(3, points)) == 135
    assert len(list(classes.prime_order_classes())) == 63
    smallest = {}  # one smallest non-empty subset per class
    for size in range(1, 28):
        for combo in combinations(range(1, 28), size):
            smallest.setdefault(classes.class_of(combo), combo)
        if len(smallest) == prod(classes.orders):
            break
    rng = random.Random(3)
    drawn = [tuple(sorted(rng.sample(range(1, 28), rng.randint(1, 27)))) for _ in range(300)]
    for combo in list(smallest.values()) + drawn:
        assert classes.qualifies(combo) == wstar_qualifies(3, points, combo), combo


@pytest.mark.parametrize("q,count", [(2, 18), (3, 135), (4, 328)])
def test_zero_set_relations_match_every_function_of_low_pole_order(q, count):
    points = hermitian_points(q)
    relations = puncturing._zero_set_relations(q, points)
    assert len(relations) == count
    assert sorted(relations) == sorted(naive_zero_set_relations(q, points))


def test_certificate_adds_the_relations_it_misses(monkeypatch, q2_points):
    # The zero sets of the lines y + bx + c alone span a sublattice of
    # index 27 = 3 * 9: the check must find qualifying subsets and add them.
    relations = puncturing._zero_set_relations
    monkeypatch.setattr(puncturing, "_zero_set_relations", lambda q, points: [
        m for m in relations(q, points) if m.bit_count() == q + 1])
    rounds = []  # the witnesses whose W* each round of the check computes
    family = puncturing.compute_wstar_family

    def counting(points, q, subsets):
        rounds.append(subsets)
        return family(points, q, subsets)

    monkeypatch.setattr(puncturing, "compute_wstar_family", counting)
    classes = divisor_classes(2)
    walked = [w for witnesses in rounds for w in witnesses]
    assert prod(classes.orders) == 9 and len(walked) > 8
    # One witness of each of the 26 classes of order 3 in the group of
    # index 3 first (two qualify), then of each of the 8 in the true one.
    assert list(map(len, rounds)) == [26, 8]
    assert list(map(classes.class_of, rounds[-1])) == list(classes.prime_order_classes())
    assert qualifying_subsets(2, 1) == naive_qualifying_subsets(2, 1)


def test_relations_of_too_low_rank_raise(monkeypatch):
    # The x-fibres alone leave an infinite group: no answer is returned.
    relations = puncturing._zero_set_relations
    monkeypatch.setattr(puncturing, "_zero_set_relations", lambda q, points: [
        m for m in relations(q, points) if m.bit_count() == q])
    with pytest.raises(AssertionError, match="rank 4 < 8"):
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
    # 1000 draws per size reach every q = 2 subset of 2..8 points.
    assert sample_qualifying_subsets(2, min_size=2, per_size=1000, seed=3) == qualifying_subsets(2)


def test_sampling_above_n_points_finds_nothing():
    assert sample_qualifying_subsets(3, min_size=28, per_size=1, seed=0) == []


def test_sampling_q3_includes_full_set():
    found = sample_qualifying_subsets(3, min_size=26, per_size=2, seed=7)
    assert tuple(range(1, 28)) in found
