"""Punctured point subsets, the qualification test, and the inclusion hierarchy.

A subset P of the affine points qualifies when #P + 2g - 1 lands in the
rank-jump set W* of the punctured sequence. Qualifying subsets are
partially ordered by inclusion; the hierarchy graph keeps the covering
relations of that order. Above the boundary #P > 2g + 2, qualifying is
equivalent to the sequence being isometry-dual, and the size difference
along any inclusion of qualifying subsets must be an element of the
Weierstrass semigroup.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from .errors import TooManySubsets
from .hermitian import compute_wstar, curve_genus, hermitian_points
from .semigroup import NumericalSemigroup

EXHAUSTIVE_LIMIT = 25  # refuse exhaustive sweeps over more than 2^25 subsets

def subset_qualifies(q: int, subset: Sequence[int], points=None) -> bool:
    """Does the punctured sequence on the 1-based point indices qualify?"""
    if points is None:
        points = hermitian_points(q)
    chosen = [points[i - 1] for i in subset]
    cs = compute_wstar(chosen, q)
    return (len(chosen) + 2 * curve_genus(q) - 1) in cs.wstar


def qualifying_subsets(q: int, min_size: int = 2) -> list[tuple[int, ...]]:
    """All qualifying subsets with at least `min_size` points, ordered by
    cardinality descending then lexicographically."""
    if min_size < 1:
        raise ValueError("min_size must be >= 1")
    points = hermitian_points(q)
    n = len(points)
    if n > EXHAUSTIVE_LIMIT:
        raise TooManySubsets(f"refusing to enumerate 2^{n} subsets for q={q}")
    return [
        combo
        for size in range(n, min_size - 1, -1)
        for combo in combinations(range(1, n + 1), size)
        if subset_qualifies(q, combo, points)
    ]


def sample_qualifying_subsets(
    q: int, min_size: int, per_size: int, seed: int
) -> list[tuple[int, ...]]:
    """Seeded random probe: draw `per_size` subsets uniformly at each size
    from n down to min_size and keep the qualifying ones (deduplicated)."""
    if min_size < 1:
        raise ValueError("min_size must be >= 1")
    points = hermitian_points(q)
    n = len(points)
    rng = random.Random(seed)
    drawn: set[tuple[int, ...]] = set()
    for size in range(n, min_size - 1, -1):
        for _ in range(per_size):
            drawn.add(tuple(sorted(rng.sample(range(1, n + 1), size))))
    ordered = sorted(drawn, key=lambda c: (-len(c), c))
    return [c for c in ordered if subset_qualifies(q, c, points)]


@dataclass(frozen=True)
class HierarchyNode:
    subset: tuple[int, ...]
    left_of_line: Optional[bool]  # #subset > boundary; None if no boundary given

    @property
    def size(self) -> int:
        return len(self.subset)


@dataclass(frozen=True)
class HierarchyGraph:
    """Qualifying subsets with their covering (Hasse) edges.

    Edges are (child_index, parent_index) pairs into `nodes`, child
    strictly contained in parent with nothing in between.
    """

    nodes: tuple[HierarchyNode, ...]
    edges: tuple[tuple[int, int], ...]
    boundary: Optional[int]

    def node_sets(self) -> list[frozenset[int]]:
        return [frozenset(node.subset) for node in self.nodes]


def build_hierarchy(
    subsets: Sequence[Sequence[int]], boundary: Optional[int] = None
) -> HierarchyGraph:
    """Covering relations of the inclusion order restricted to `subsets`."""
    canon = [tuple(sorted(int(i) for i in s)) for s in subsets]
    if len(set(canon)) != len(canon):
        raise ValueError("subsets must be distinct")
    canon.sort(key=lambda s: (-len(s), s))
    sets = [frozenset(s) for s in canon]
    edges = []
    for ci, child in enumerate(sets):
        for pi, parent in enumerate(sets):
            if child < parent and not any(
                child < mid < parent for mid in sets
            ):
                edges.append((ci, pi))
    nodes = tuple(
        HierarchyNode(s, None if boundary is None else len(s) > boundary)
        for s in canon
    )
    return HierarchyGraph(nodes=nodes, edges=tuple(sorted(edges)), boundary=boundary)


@dataclass(frozen=True)
class InheritanceReport:
    """Size-difference check over inclusion pairs of hierarchy nodes.

    `checked` holds every (child, parent) subset pair with child size
    strictly above the boundary; `violations` those whose size difference
    is not an element of the semigroup. Pairs sitting exactly at the
    boundary are not asserted, only listed.
    """

    boundary: int
    checked: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    violations: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    boundary_pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    min_edge_gap: Optional[int]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_inheritance(
    graph: HierarchyGraph,
    W: NumericalSemigroup,
    g: int,
    boundary: Optional[int] = None,
) -> InheritanceReport:
    """Check #P - #P' in W over all node inclusions P' < P with #P' > boundary."""
    if boundary is None:
        boundary = 2 * g + 2
    sets = graph.node_sets()
    checked, violations, at_boundary = [], [], []
    for ci, child in enumerate(sets):
        for pi, parent in enumerate(sets):
            if not child < parent:
                continue
            pair = (graph.nodes[ci].subset, graph.nodes[pi].subset)
            if len(child) == boundary:
                at_boundary.append(pair)
                continue
            if len(child) > boundary:
                checked.append(pair)
                if not W.contains(len(parent) - len(child)):
                    violations.append(pair)
    gaps = [
        len(graph.nodes[pi].subset) - len(graph.nodes[ci].subset)
        for ci, pi in graph.edges
    ]
    return InheritanceReport(
        boundary=boundary,
        checked=tuple(checked),
        violations=tuple(violations),
        boundary_pairs=tuple(at_boundary),
        min_edge_gap=min(gaps) if gaps else None,
    )


def node_label(subset: Sequence[int], compact: bool) -> str:
    return ("" if compact else "-").join(str(i) for i in subset)


def export_dot(graph: HierarchyGraph) -> str:
    """Deterministic DOT text: one rank per cardinality, covering edges,
    dashed styling for nodes at or below the boundary."""
    compact = all(i <= 9 for node in graph.nodes for i in node.subset)
    labels = [node_label(node.subset, compact) for node in graph.nodes]
    lines = ["digraph point_hierarchy {", "  rankdir=RL;", "  node [shape=box];"]
    if graph.boundary is not None:
        lines.append(
            f"  // dashed nodes have at most {graph.boundary} points: below the"
        )
        lines.append(
            "  // boundary, membership is only a necessary condition for duality"
        )
    for size in sorted({node.size for node in graph.nodes}, reverse=True):
        decls = []
        for node, label in zip(graph.nodes, labels):
            if node.size != size:
                continue
            style = " [style=dashed]" if node.left_of_line is False else ""
            decls.append(f'"{label}"{style};')
        lines.append("  { rank=same; " + " ".join(decls) + " }")
    for ci, pi in graph.edges:
        lines.append(f'  "{labels[ci]}" -> "{labels[pi]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(graph: HierarchyGraph) -> dict:
    return {
        "nodes": [
            {"set": list(node.subset), "left_of_line": node.left_of_line}
            for node in graph.nodes
        ],
        "edges": [[ci, pi] for ci, pi in graph.edges],
    }
