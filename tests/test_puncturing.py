import pytest

from sparse_duals import (
    TooManySubsets,
    build_hierarchy,
    export_dot,
    graph_to_json,
    qualifying_subsets,
    sample_qualifying_subsets,
    subset_qualifies,
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
    with pytest.raises(TooManySubsets):
        qualifying_subsets(3)


def test_covering_edges_match_fixture(expected_hierarchy):
    graph = build_hierarchy(qualifying_subsets(2, min_size=2), boundary=4)
    labels = [node_label(n.subset, compact=True) for n in graph.nodes]
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
    for node in graph.nodes:
        assert node.left_of_line == (node.size > 4)
    unflagged = build_hierarchy([(1, 2)], boundary=None)
    assert unflagged.nodes[0].left_of_line is None


def test_build_hierarchy_small_shapes():
    single = build_hierarchy([(1, 2, 3)])
    assert len(single.nodes) == 1 and single.edges == ()
    chain = build_hierarchy([(1,), (1, 2), (1, 2, 3)])
    labels = [n.subset for n in chain.nodes]
    assert labels == [(1, 2, 3), (1, 2), (1,)]
    assert sorted(chain.edges) == [(1, 0), (2, 1)]  # only covering steps
    with pytest.raises(ValueError):
        build_hierarchy([(1, 2), (2, 1)])


def test_verify_inheritance_on_full_graph():
    W = weierstrass_semigroup(2)
    graph = build_hierarchy(qualifying_subsets(2, min_size=2), boundary=4)
    report = verify_inheritance(graph, W, g=1)
    assert report.boundary == 4
    assert report.ok
    assert len(report.checked) == 12
    assert report.violations == ()
    assert report.min_edge_gap == 2
    assert len(report.boundary_pairs) == 18


def test_verify_inheritance_flags_fabricated_pair():
    W = weierstrass_semigroup(2)
    graph = build_hierarchy([(1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6)], boundary=4)
    report = verify_inheritance(graph, W, g=1)
    assert not report.ok
    assert report.violations == (((1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6)),)
    assert report.min_edge_gap == 1


def test_verify_inheritance_empty_graph():
    report = verify_inheritance(build_hierarchy([]), weierstrass_semigroup(2), g=1)
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
    empty = export_dot(build_hierarchy([]))
    assert empty.startswith("digraph") and empty.rstrip().endswith("}")
    two = export_dot(build_hierarchy([(1,), (1, 2)]))
    assert two.count(" -> ") == 1
    wide = export_dot(build_hierarchy([(1, 12)]))
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


def test_subset_qualifies_helper(q2_points):
    assert subset_qualifies(2, (1, 8), q2_points)
    assert not subset_qualifies(2, (1, 2))


def test_sampling_is_seed_deterministic():
    a = sample_qualifying_subsets(2, min_size=2, per_size=5, seed=11)
    b = sample_qualifying_subsets(2, min_size=2, per_size=5, seed=11)
    assert a == b
    exhaustive = set(qualifying_subsets(2, min_size=2))
    assert set(a) <= exhaustive


def test_sampling_q3_includes_full_set():
    found = sample_qualifying_subsets(3, min_size=26, per_size=2, seed=7)
    assert tuple(range(1, 28)) in found
