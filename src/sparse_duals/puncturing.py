"""Punctured point subsets, the qualification test, and the inclusion hierarchy.

A subset P of the affine points qualifies when #P + 2g - 1 lands in the
rank-jump set W* of the punctured sequence. By Riemann-Roch that happens
exactly when the divisor sum(P) is linearly equivalent to #P P_inf, so
`qualifying_subsets` lists the subsets whose divisor classes sum to 0; the
classes are read off the tangent lines at the points. Qualifying subsets are
partially ordered by inclusion; the hierarchy graph keeps the covering
relations of that order. Above the boundary #P > 2g + 2, qualifying is
equivalent to the sequence being isometry-dual, and the size difference
along any inclusion of qualifying subsets must be an element of the
Weierstrass semigroup.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterator, Optional, Sequence

from .errors import TooManySubsets
from .hermitian import hermitian_field, hermitian_points
from .semigroup import NumericalSemigroup

# Largest point set whose subsets are listed by class: 2^27, the q = 3
# curve. The listing joins the classes of the subsets of two halves of the
# points, 2^(n/2) each; at q = 4 (64 points) about 7.6e10 subsets qualify.
EXHAUSTIVE_LIMIT = 27


def _mask(subset: Sequence[int]) -> int:
    """The subset as an int: bit i - 1 for index i."""
    mask = 0
    for i in subset:
        mask |= 1 << (i - 1)
    return mask


class DivisorClasses:
    """The group G = Z^n / L of divisors sum c_i (P_i - P_inf) on the n
    affine points, modulo the principal ones, as a product of cyclic groups.

    `orders` are the cyclic factors, each above 1, and `point_classes[i]`
    the class of P_(i+1) - P_inf as residues modulo them. A point set P
    qualifies (#P + 2g - 1 in W*) exactly when sum(P) ~ #P P_inf
    (Riemann-Roch with K ~ (2g - 2) P_inf), that is when the classes of its
    points sum to 0. (A plain class: making it a dataclass would add
    about 0.5 ms to every import of the package.)
    """

    def __init__(self, orders: tuple[int, ...], point_classes: tuple[tuple[int, ...], ...]):
        self.orders = orders
        self.point_classes = point_classes

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.orders)

    def _add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple([(x + y) % d for x, y, d in zip(a, b, self.orders)])

    def class_of(self, subset: Sequence[int]) -> tuple[int, ...]:
        """The class of sum (P_i - P_inf) over the 1-based indices."""
        n, rows = len(self.point_classes), [self.zero]
        for i in subset:
            if not 1 <= i <= n:
                raise ValueError(f"point index {i} outside 1..{n}")
            rows.append(self.point_classes[i - 1])
        return tuple([sum(c) % d for c, d in zip(zip(*rows), self.orders)])

    def qualifies(self, subset: Sequence[int]) -> bool:
        return not any(self.class_of(subset))

    def _subsets_with_classes(self, start: int, stop: int):
        """Every subset of the points start+1..stop, as index tuples in
        bitmask order, and the class of each."""
        sets: list[tuple[int, ...]] = [()]
        classes = [self.zero]
        for i in range(start, stop):
            c = self.point_classes[i]
            sets += [s + (i + 1,) for s in sets]
            classes += [self._add(a, c) for a in classes]
        return sets, classes

    @cached_property
    def _halves(self):
        """The subsets of the first n // 2 points with their classes, and
        the subsets of the other points grouped by class."""
        n = len(self.point_classes)
        if n > EXHAUSTIVE_LIMIT:
            q = round(n ** (1 / 3))  # the n = q^3 affine points
            raise TooManySubsets(f"refusing to enumerate 2^{n} subsets for q={q}")
        low = self._subsets_with_classes(0, n // 2)
        high: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for s, c in zip(*self._subsets_with_classes(n // 2, n)):
            high.setdefault(c, []).append(s)
        return list(zip(*low)), high

    def subsets(self, cls: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        """Every subset in class `cls` (the empty one too when cls is 0), as
        increasing 1-based indices: a low half joined with each high half
        whose class makes up the difference. Above EXHAUSTIVE_LIMIT points
        it raises TooManySubsets."""
        low, high = self._halves
        for s, a in low:
            need = tuple([(c - x) % d for c, x, d in zip(cls, a, self.orders)])
            for t in high.get(need, ()):
                yield s + t


def _tangent_columns(q: int, m: int) -> Iterator[bytes]:
    """The columns of M[i][j] = log l_(P_j)(P_i) mod m, one at a time, as
    bytes: l_P = y - a^q x + b^q is the tangent line at P = (a, b), the log
    is to the generator of GF(q^2) and m divides q + 1. M[j][j] = 0: the
    local symbol of l_P at P is 1 after the (q - 1)-th power."""
    points = hermitian_points(q)
    field = points[0].x.field
    xs = bytes([pt.x.value for pt in points])
    ys = bytes([pt.y.value for pt in points])
    # l_P vanishes at P alone, so 0 is read only on the diagonal.
    log_mod = bytes([0] + [field.log(v) % m for v in range(1, field.q)]).ljust(256, b"\x00")
    for pt in points:
        column = field.add_scaled(ys, field.neg(field.pow(pt.x.value, q)), xs)
        yield column.translate(field.add_rows[field.pow(pt.y.value, q)]).translate(log_mod)


def divisor_classes(q: int) -> DivisorClasses:
    """The classes of the affine points of the curve, from their tangent lines.

    The tangent line l_P has divisor (q + 1)(P - P_inf). By Weil
    reciprocity each column of M (`_tangent_columns`) is a homomorphism on
    classes, so its kernel holds every relation. For each prime power
    p^k || q + 1 the first 2g columns independent mod p are kept; by
    Nakayama's lemma they map G onto (Z/p^k)^(2g). All of them map G onto
    a group of order (q + 1)^(2g) = #J(GF(q^2)) >= #G: an isomorphism. A
    prime with fewer than 2g independent columns raises AssertionError.
    """
    field = hermitian_field(q)  # held, so GF(q^2) is built once for all primes
    rank = q * (q - 1)  # 2g
    orders, kept = [], []
    for p in range(2, q + 2):
        if (q + 1) % p or any(p % d == 0 for d in range(2, p)):
            continue
        # Rows mod p as bytes: times[c] takes each entry v to c * v mod p,
        # and two rows add as ints with no carry, as 2(p - 1) < 256.
        times = [bytes([c * v % p for v in range(256)]) for c in range(p)]
        echelon = {}  # rows mod p by pivot, each scaled to 1 at its pivot
        pk = gcd(q + 1, p**q)  # p^k || q + 1
        for column in _tangent_columns(q, pk):
            r = column.translate(times[1])
            while (pivot := len(r) - len(r.lstrip(b"\x00"))) in echelon:
                minus = echelon[pivot].translate(times[p - r[pivot]])
                r = int.from_bytes(r, "little") + int.from_bytes(minus, "little")
                r = r.to_bytes(len(column), "little").translate(times[1])
            if pivot < len(r):
                echelon[pivot] = r.translate(times[pow(r[pivot], -1, p)])
                kept.append(column)
                if len(echelon) == rank:
                    break
        if len(echelon) < rank:
            raise AssertionError(f"M has rank {len(echelon)} < 2g = {rank} mod {p}")
        orders += [pk] * rank
    return DivisorClasses(orders=tuple(orders), point_classes=tuple(zip(*kept)))


def _by_size(subsets: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The subsets sorted in place by size descending, then
    lexicographically: two passes of the stable sort, which is faster than
    one pass on the key (-len(s), s)."""
    subsets.sort()
    subsets.sort(key=len, reverse=True)
    return subsets


def qualifying_subsets(q: int, min_size: int = 2) -> list[tuple[int, ...]]:
    """All qualifying subsets with at least `min_size` points, ordered by
    cardinality descending then lexicographically: the subsets in class 0
    of `divisor_classes(q)`."""
    if min_size < 1:
        raise ValueError("min_size must be >= 1")
    classes = divisor_classes(q)
    found = [s for s in classes.subsets(classes.zero) if len(s) >= min_size]
    return _by_size(found)


def sample_qualifying_subsets(
    q: int, min_size: int, per_size: int, seed: int
) -> list[tuple[int, ...]]:
    """Seeded random probe: draw `per_size` subsets uniformly at each size
    from n down to min_size and keep the qualifying ones (deduplicated),
    the draws in class 0 of `divisor_classes(q)`."""
    if min_size < 1:
        raise ValueError("min_size must be >= 1")
    classes = divisor_classes(q)
    n = len(classes.point_classes)
    rng = random.Random(seed)
    drawn = {
        tuple(sorted(rng.sample(range(1, n + 1), size)))
        for size in range(n, min_size - 1, -1) for _ in range(per_size)
    }
    return _by_size(list(filter(classes.qualifies, drawn)))


@dataclass(frozen=True)
class HierarchyGraph:
    """Qualifying subsets with their covering (Hasse) edges.

    `nodes` are the subsets as increasing index tuples. Edges are
    (child_index, parent_index) pairs into `nodes`, child strictly
    contained in parent with nothing in between. A node with more than
    `boundary` points is left of the line.
    """

    nodes: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    boundary: int


def build_hierarchy(subsets: Sequence[Sequence[int]], boundary: int) -> HierarchyGraph:
    """Covering relations of the inclusion order restricted to `subsets`,
    in a graph that holds `boundary`."""
    canon = [tuple(sorted(int(i) for i in s)) for s in subsets]
    if len(set(canon)) != len(canon):
        raise ValueError("subsets must be distinct")
    canon = _by_size(canon)
    masks = [_mask(s) for s in canon]
    edges = []
    # A strict superset has more points, so it comes earlier in the order,
    # and an earlier superset is strict: the subsets are distinct.
    for ci, c in enumerate(masks):
        ups = [pi for pi in range(ci) if masks[pi] & c == c]
        edges += [
            (ci, pi) for pi in ups
            if not any(masks[mi] & masks[pi] == masks[mi] and mi != pi for mi in ups)
        ]
    return HierarchyGraph(nodes=tuple(canon), edges=tuple(edges), boundary=boundary)


@dataclass(frozen=True)
class InheritanceReport:
    """Size-difference check over inclusion pairs of hierarchy nodes.

    `checked` holds every (child, parent) subset pair with child size
    strictly above the boundary; `violations` those whose size difference
    is not an element of the semigroup. Pairs sitting exactly at the
    boundary are not asserted, only listed.
    """

    checked: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    violations: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    boundary_pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    min_edge_gap: Optional[int]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_inheritance(graph: HierarchyGraph, W: NumericalSemigroup) -> InheritanceReport:
    """Check #P - #P' in W over all node inclusions P' < P with #P' above
    the graph's boundary."""
    boundary = graph.boundary
    masks = [_mask(node) for node in graph.nodes]
    checked, violations, at_boundary = [], [], []
    for child, c in zip(graph.nodes, masks):
        if len(child) < boundary:
            continue
        for parent, p in zip(graph.nodes, masks):
            if not (c & p == c and c != p):
                continue
            pair = (child, parent)
            if len(child) == boundary:
                at_boundary.append(pair)
                continue
            checked.append(pair)
            if not W.contains(len(parent) - len(child)):
                violations.append(pair)
    gaps = [len(graph.nodes[pi]) - len(graph.nodes[ci]) for ci, pi in graph.edges]
    return InheritanceReport(
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
    compact = all(i <= 9 for node in graph.nodes for i in node)
    labels = [node_label(node, compact) for node in graph.nodes]
    lines = [
        "digraph point_hierarchy {", "  rankdir=RL;", "  node [shape=box];",
        f"  // dashed nodes have at most {graph.boundary} points: below the",
        "  // boundary, membership is only a necessary condition for duality",
    ]
    for size in sorted(set(map(len, graph.nodes)), reverse=True):
        decls = []
        for node, label in zip(graph.nodes, labels):
            if len(node) != size:
                continue
            style = "" if size > graph.boundary else " [style=dashed]"
            decls.append(f'"{label}"{style};')
        lines.append("  { rank=same; " + " ".join(decls) + " }")
    for ci, pi in graph.edges:
        lines.append(f'  "{labels[ci]}" -> "{labels[pi]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(graph: HierarchyGraph) -> dict:
    return {
        "nodes": [
            {"set": list(node), "left_of_line": len(node) > graph.boundary}
            for node in graph.nodes
        ],
        "edges": [[ci, pi] for ci, pi in graph.edges],
    }
