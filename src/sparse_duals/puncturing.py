"""Punctured point subsets, the qualification test, and the inclusion hierarchy.

A subset P of the affine points qualifies when #P + 2g - 1 lands in the
rank-jump set W* of the punctured sequence. By Riemann-Roch that happens
exactly when the divisor sum(P) is linearly equivalent to #P P_inf, so
`qualifying_subsets` lists the subsets whose divisor classes sum to 0 and
runs W* only to certify the class group. Qualifying subsets are
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
from itertools import product
from typing import Iterator, Optional, Sequence

from .errors import TooManySubsets
from .hermitian import compute_wstar_family, hermitian_points, isometry_dual_criterion
from .semigroup import NumericalSemigroup

# Largest point set whose subsets are listed by class: 2^27, the q = 3
# curve. The listing joins the classes of the subsets of two halves of the
# points, 2^(n/2) each; at q = 4 (64 points) about 7.6e10 subsets qualify.
EXHAUSTIVE_LIMIT = 27


def _zero_set_relations(q: int, points) -> list[int]:
    """Bitmasks (bit i - 1 for point i) of the zero sets of the functions f
    with pole order k <= 2q that have k distinct zeros among the points.

    Such an f has divisor sum(P) - k P_inf, so each zero set is a relation.
    For q >= 2 the monomials of pole order <= 2q are 1, x, y and x^2, of
    pole orders 0, q, q + 1 and 2q. f is monic in its leading monomial; its
    constant term is whatever makes it vanish, so the points are bucketed
    by the value of the rest.
    """
    field = points[0].x.field
    mul, add = field.mul_table, field.add_table
    xs = [pt.x.value for pt in points]
    values = [xs, [pt.y.value for pt in points], [mul[x][x] for x in xs]]  # x, y, x^2
    relations = []
    for k, pole_order in enumerate((q, q + 1, 2 * q)):
        for coeffs in product(range(field.q), repeat=k):
            rest = values[k]
            for c, lower in zip(coeffs, values):
                rest = [add[v][mul[c][w]] for v, w in zip(rest, lower)]
            zero_sets: dict[int, int] = {}
            for i, v in enumerate(rest):
                zero_sets[v] = zero_sets.get(v, 0) | 1 << i
            relations += [m for m in zero_sets.values() if m.bit_count() == pole_order]
    return relations


def _diagonal_form(relations: list[int], n: int) -> tuple[list[int], list[list[int]]]:
    """Diagonal entries d and a unimodular n x n matrix V such that an
    integer vector c lies in the lattice spanned by the relation bitmasks
    exactly when (c V)_t is divisible by d_t for every t.

    Row operations bring the relations to echelon (Hermite) form; column
    operations, applied to V too, clear each pivot row, so the lattice is
    the row span of diag(d) V^-1. The pivot is always the entry of least
    absolute value, and a pivot step repeats until its row and column are
    clear. A relation lattice of rank below n raises AssertionError.
    """
    rows = [[m >> i & 1 for i in range(n)] for m in relations]
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    d = []
    for t in range(n):
        while True:
            live = [(abs(r[j]), i, j) for i, r in enumerate(rows[t:], t)
                    for j in range(t, n) if r[j]]
            if not live:
                raise AssertionError(f"the relations have rank {t} < {n}")
            _, i, j = min(live)
            rows[t], rows[i] = rows[i], rows[t]
            for r in rows[t:] + V:
                r[t], r[j] = r[j], r[t]
            pivot = rows[t]
            p = pivot[t]
            for r in rows[t + 1:]:
                f = r[t] // p
                if f:
                    r[t:] = [a - f * b for a, b in zip(r[t:], pivot[t:])]
            for j in range(t + 1, n):
                f = pivot[j] // p
                if f:
                    for r in rows[t:] + V:
                        r[j] -= f * r[t]
            if not any(r[t] for r in rows[t + 1:]) and not any(pivot[t + 1:]):
                break
        d.append(abs(p))
        rows[t + 1:] = [r for r in rows[t + 1:] if any(r)]
    return d, V


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
        total = self.zero
        for i in subset:
            if not 1 <= i <= len(self.point_classes):
                raise ValueError(f"point index {i} outside 1..{len(self.point_classes)}")
            total = self._add(total, self.point_classes[i - 1])
        return total

    def qualifies(self, subset: Sequence[int]) -> bool:
        return not any(self.class_of(subset))

    def prime_order_classes(self) -> Iterator[tuple[int, ...]]:
        """Every class of prime order: for each prime p dividing |G|, the
        nonzero multiples of d/p on the factors d divisible by p."""
        primes = {p for d in self.orders for p in range(2, d + 1)
                  if d % p == 0 and all(p % r for r in range(2, p))}
        for p in sorted(primes):
            axes = [range(0, d, d // p) if d % p == 0 else (0,) for d in self.orders]
            for cls in product(*axes):
                if any(cls):
                    yield cls

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
        low = self._subsets_with_classes(0, n // 2)
        high: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for s, c in zip(*self._subsets_with_classes(n // 2, n)):
            high.setdefault(c, []).append(s)
        return list(zip(*low)), high

    def subsets(self, cls: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        """Every subset in class `cls` (the empty one too when cls is 0), as
        increasing 1-based indices: a low half joined with each high half
        whose class makes up the difference."""
        low, high = self._halves
        for s, a in low:
            need = tuple([(c - x) % d for c, x, d in zip(cls, a, self.orders)])
            for t in high.get(need, ()):
                yield s + t


def divisor_classes(q: int) -> DivisorClasses:
    """The classes of the affine points of the curve, certified exact.

    The zero sets of the functions of pole order k <= 2q with k distinct
    zeros span a sublattice L' of the lattice L of relations; their
    diagonal form gives G' = Z^n / L'. L' = L exactly when L / L', a
    subgroup of G', is 0, and a nonzero one would hold a class of prime
    order whose subsets all qualify. So one subset of every class of prime
    order is checked, W* of them all from one `compute_wstar_family` walk:
    a failing one rules its class out, and the first qualifying one is a
    relation L' lacks, so it is added and the check starts over. A class
    with no subset cannot be ruled out and raises AssertionError; more
    than 2^27 subsets raise TooManySubsets.
    """
    points = hermitian_points(q)
    n = len(points)
    if n > EXHAUSTIVE_LIMIT:
        raise TooManySubsets(f"refusing to enumerate 2^{n} subsets for q={q}")
    relations = _zero_set_relations(q, points)
    while True:
        d, V = _diagonal_form(relations, n)
        factors = [t for t in range(n) if d[t] > 1]
        classes = DivisorClasses(
            orders=tuple(d[t] for t in factors),
            point_classes=tuple(tuple(row[t] % d[t] for t in factors) for row in V),
        )
        primes = list(classes.prime_order_classes())
        witnesses = [next(classes.subsets(cls), None) for cls in primes]
        found = iter(compute_wstar_family(points, q, [w for w in witnesses if w is not None]))
        for cls, witness in zip(primes, witnesses):
            if witness is None:
                raise AssertionError(f"no subset has class {cls}; cannot certify")
            if isometry_dual_criterion(next(found), q):
                relations.append(sum(1 << (i - 1) for i in witness))
                break
        else:
            return classes


def qualifying_subsets(q: int, min_size: int = 2) -> list[tuple[int, ...]]:
    """All qualifying subsets with at least `min_size` points, ordered by
    cardinality descending then lexicographically: the subsets in class 0
    of `divisor_classes(q)`."""
    if min_size < 1:
        raise ValueError("min_size must be >= 1")
    classes = divisor_classes(q)
    found = [s for s in classes.subsets(classes.zero) if len(s) >= min_size]
    found.sort(key=lambda s: (-len(s), s))
    return found


def sample_qualifying_subsets(
    q: int, min_size: int, per_size: int, seed: int
) -> list[tuple[int, ...]]:
    """Seeded random probe: draw `per_size` subsets uniformly at each size
    from n down to min_size and keep the qualifying ones (deduplicated).
    W* of all the draws comes from one `compute_wstar_family` walk."""
    if min_size < 1:
        raise ValueError("min_size must be >= 1")
    points = hermitian_points(q)
    n = len(points)
    rng = random.Random(seed)
    drawn = list({
        tuple(sorted(rng.sample(range(1, n + 1), size)))
        for size in range(n, min_size - 1, -1) for _ in range(per_size)
    })
    found = [c for c, wstar in zip(drawn, compute_wstar_family(points, q, drawn))
             if isometry_dual_criterion(wstar, q)]
    return sorted(found, key=lambda c: (-len(c), c))


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


def _mask(subset: Sequence[int]) -> int:
    """The subset as an int with bit i set for each index i."""
    mask = 0
    for i in subset:
        mask |= 1 << i
    return mask


def build_hierarchy(subsets: Sequence[Sequence[int]], boundary: int) -> HierarchyGraph:
    """Covering relations of the inclusion order restricted to `subsets`,
    in a graph that holds `boundary`."""
    canon = [tuple(sorted(int(i) for i in s)) for s in subsets]
    if len(set(canon)) != len(canon):
        raise ValueError("subsets must be distinct")
    canon.sort(key=lambda s: (-len(s), s))
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
