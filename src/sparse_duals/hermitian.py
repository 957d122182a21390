"""One-point evaluation codes on the Hermitian curve x^(q+1) = y^q + y.

The curve over GF(q^2) has q^3 affine points; pole orders at the single
point at infinity form the semigroup generated by q and q+1, and the
monomials x^a y^b with b <= q-1 realize every pole order a*q + b*(q+1)
exactly once. Evaluating those monomials in pole order at a point set
yields the nested code sequence whose rank-growth orders form W*.

W* is the complement in H = <q, q+1> of the pole orders of functions
that vanish on the point set. `compute_wstar` finds it point by point:
it keeps a Groebner basis of that vanishing module over F[x], one
generator per residue class mod q, and each added point moves exactly
one pole order from the module into W*. An x-fibre the set holds whole
takes no point step: it moves every generator's pole order up by q, so a
set costs O(q m^2) for its m points outside whole fibres.
`compute_wstar_family` does the same for many subsets of one point list,
sharing their common steps, and `find_isometry_vectors` solves for their
isometry vectors on the same walk, by column elimination on the values of
the monomials at the points; that elimination walks every point. It finds
W* as well, and `isometry_sequence` takes both from it for one point set.
`wstar_and_vectors` runs both on one walk, every point in each.
Every entry point checks its input and runs its walk through `_walk`.
The curve equation is stated once, as the norm and trace translate tables
of `_curve_maps`: the point listing and the input check both read them.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, repeat
from operator import gt
from typing import Iterator, Optional, Sequence

from .errors import DuplicatePoints, FieldTooLarge, PointNotOnCurve
from .gf import MAX_ORDER, Field, FieldElement
from .semigroup import NumericalSemigroup

# Point order over GF(4), frozen: (x, y) encodings with 2 = class of x,
# 3 = class of x + 1.
_Q2_POINT_ORDER = ((0, 0), (2, 2), (3, 2), (1, 2), (2, 3), (3, 3), (1, 3), (0, 1))


def _prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e, rest = 0, q
    while rest % p == 0:
        rest //= p
        e += 1
    if rest != 1:
        raise ValueError(f"q = {q} is not a prime power")
    return p, e


def curve_genus(q: int) -> int:
    return q * (q - 1) // 2


# GF(q^2) by q, for as long as some point, element or sequence refers to
# it. A strong cache would tie each field to its module instead, and a
# module dropped by a re-import lingers until the cyclic collector runs.
_FIELDS: "weakref.WeakValueDictionary[int, Field]" = weakref.WeakValueDictionary()

# The curve equation by q, as `_curve_maps` builds it on first use: 512
# bytes that depend on q alone and are never modified, so they are kept
# for the process and every caller reads the same tables.
_CURVE_MAPS: dict[int, tuple[bytes, bytes]] = {}


def hermitian_field(q: int) -> Field:
    """GF(q^2), the field of definition of the affine points.

    While a GF(q^2) from an earlier call is still referenced, this returns
    that same instance, so the points and sequences of one q share
    one field; a new one is built only when none is alive. Its tables are
    shared with every holder and must not be modified.
    """
    field = _FIELDS.get(q)
    if field is None:
        if q < 2:
            raise ValueError(f"q must be >= 2, got {q}")
        if q * q > MAX_ORDER:
            raise FieldTooLarge(f"GF({q * q}) exceeds the supported order {MAX_ORDER}")
        p, e = _prime_power(q)
        field = _FIELDS[q] = Field(p, 2 * e)
    return field


def _curve_maps(field: Field, q: int) -> tuple[bytes, bytes]:
    """The norm x -> x^(q+1) and the trace y -> y^q + y on `field` =
    GF(q^2), as 256-byte translate tables: (x, y) is on the curve iff
    norm[x] == trace[y]. The bytes past the encodings map to 255 in norm
    and 254 in trace, so no pair of them is on the curve."""
    maps = _CURVE_MAPS.get(q)
    if maps is None:
        encodings = range(field.q)
        frobenius = [field.pow(v, q) for v in encodings]
        maps = _CURVE_MAPS[q] = (
            bytes(map(field.mul, frobenius, encodings)).ljust(256, b"\xff"),
            bytes(map(field.add, frobenius, encodings)).ljust(256, b"\xfe"),
        )
    return maps


@dataclass(frozen=True)
class CurvePoint:
    x: FieldElement
    y: FieldElement

    def coords(self) -> tuple[int, int]:
        return (self.x.value, self.y.value)

    def __repr__(self) -> str:
        return f"CurvePoint({self.x.value}, {self.y.value})"


def hermitian_points(q: int) -> list[CurvePoint]:
    """All q^3 affine points, in the order of `hermitian_coords`."""
    field = hermitian_field(q)
    elements = field.all_elements()  # immutable, so the points share them
    return [CurvePoint(elements[x], elements[y]) for (x, y) in hermitian_coords(q)]


def hermitian_coords(q: int) -> list[tuple[int, int]]:
    """The (x, y) encodings of the q^3 affine points over `hermitian_field(q)`;
    for q = 2 in the frozen eight-point order, otherwise sorted. A caller
    that wraps some of them as points should hold the field first, so that
    it is not built twice."""
    field = hermitian_field(q)
    norm, trace = _curve_maps(field, q)
    # Bucket every y by its trace, then read the bucket of each x's norm:
    # O(q^2) steps, in the order of a scan over (x, y).
    ys_with_trace: dict[int, list[int]] = {}
    for y in range(field.q):
        ys_with_trace.setdefault(trace[y], []).append(y)
    coords = [(x, y) for x in range(field.q) for y in ys_with_trace.get(norm[x], ())]
    assert len(coords) == q**3
    if q == 2:
        assert sorted(coords) == sorted(_Q2_POINT_ORDER)
        coords = list(_Q2_POINT_ORDER)
    return coords


def monomial_basis(q: int, count: int) -> list[tuple[int, int]]:
    """Exponents (a, b) of the first `count` monomials x^a y^b, b < q, in
    increasing pole order. Pole order m is that of b = m % q and
    a = m // q - b, a monomial when a >= 0."""
    if count < 1:
        raise ValueError("count must be >= 1")
    _prime_power(q)
    basis, m = [], 0
    while len(basis) < count:
        if m // q >= m % q:
            basis.append((m // q - m % q, m % q))
        m += 1
    return basis


def weierstrass_semigroup(q: int) -> NumericalSemigroup:
    """Pole orders at the point at infinity: the semigroup <q, q+1>."""
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    return NumericalSemigroup([q, q + 1])


@dataclass(frozen=True)
class CodeSequence:
    """Nested code sequence from evaluating the monomial basis at a point set.

    `wstar` lists the pole orders at which the rank grew, starting with 0:
    the i-dimensional code of the sequence is spanned by the evaluations at
    `points` of the monomials with the first i of them as pole orders. The
    package works from W* alone and builds no generator rows; the field is
    that of the points.
    """

    q: int
    points: tuple[CurvePoint, ...]
    wstar: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def genus(self) -> int:
        return curve_genus(self.q)


def compute_wstar(points: Sequence[CurvePoint], q: int) -> CodeSequence:
    """W* of the code sequence at the points, one point at a time.

    The functions with poles only at infinity form the free F[x]-module
    with basis 1, y, ..., y^(q-1), whose pole orders b(q+1) are distinct
    mod q. The functions vanishing on the points added so far therefore
    have a Groebner basis of q generators g_b, one per residue class, and
    W* is H minus the union of the classes rho_b + qN, where rho_b is the
    pole order of g_b. Adding a point (alpha, beta) removes exactly one
    pole order from that union: the generator g_s that is nonzero there
    with the least rho_s is replaced by (x - alpha) g_s, the other nonzero
    generators are reduced by g_s without changing their pole orders, and
    rho_s joins W*. Each g_b is kept only as its values at the points not
    yet added, as `bytes` in the field's lane form (see `gf`), one byte per
    point. A point step is one scan of the q generators for g_s and one
    `Field.eliminate`, which reduces the others by g_s, and (x - alpha) g_s
    is one `Field.mul_lanes` of g_s and the x-coordinates shifted by one
    `bytes.translate` with an add-table row: a few `bytes.translate` and
    big-int operations per generator, and up to q = 8 no Python step per
    entry. Points are added last to first, so once the point at 0-based
    position j is added only earlier points are still to come, and every
    vector is cut to [:j]: a point costs q vector operations.

    The q points over one x = alpha, an x-fibre, are the zeros of x - alpha,
    which has pole order q. A function vanishing on a whole fibre and on
    other points is (x - alpha) times one vanishing on the others, so the
    fibre moves every rho_b up by q. The points of the x-fibres the set
    holds whole are therefore not added: W* is read off the rho_b of the
    other m points, each moved up by q per whole fibre, with the rank check
    on all n. A set costs O(q m^2) in O(q m) memory, and a union of whole
    fibres no point step at all.

    This runs on one subset the walk that `compute_wstar_family` makes
    over many subsets of one point list, as a trie. A subset is a path
    from the root through its indices outside whole fibres from the
    largest down, so subsets with the same top points share those point
    steps, a subset that ends where another goes on costs that one nothing
    more, and one with no such index is the root and is not walked. The
    state, the q vectors and the rho_b, is saved only at a trie node with
    more than one child, for the children to start from; a single subset
    saves none and holds no more than one walk. The vectors y^b of the root
    are evaluated by the first step from it, at the points that step needs.
    W* is read off the rho_b at the end, once per distinct rho_b and subset
    size (6 times for the 93 subsets `verify --q 2` checks). A subset's
    tail that no other subset shares, whose points fill less than half the
    positions below its top, first cuts the vectors down to them.
    """
    points = tuple(points)
    [wstar] = _walk(points, q, [range(1, len(points) + 1)], _wstar_walk, _fibre_rest)
    return CodeSequence(q=q, points=points, wstar=wstar)


def compute_wstar_family(
    points: Sequence[CurvePoint], q: int, subsets: Sequence[Sequence[int]]
) -> list[tuple[int, ...]]:
    """W* of each subset of the points, as `compute_wstar` finds it, in the
    order given.

    A subset is a strictly increasing sequence of 1-based indices into
    `points`; an empty one, one out of order and an index outside 1..n
    raise ValueError. The point set is checked once, as `compute_wstar`
    checks it. Each subset walks only its m points outside the x-fibres it
    holds whole, O(q m^2) at most, and the subsets share the point steps
    of their common top points (see `compute_wstar`). A repeated subset,
    or one with the same points outside whole fibres, is walked once.
    """
    return _walk(tuple(points), q, subsets, _wstar_walk, _fibre_rest)


def _walk(points: tuple[CurvePoint, ...], q: int, subsets: Sequence[Sequence[int]], make_walk,
          rest=None):
    """Each subset's finish on the walk `make_walk(field, xs, ys, q, n)`,
    in the order given, xs and ys the points' encodings and n the largest
    subset size. The points are checked once (`_checked_field`), then the
    subsets (`_subset_keys`). The walk runs once over the distinct keys,
    or, given `rest`, over the distinct rest(key, xs, q), the part of each
    key that the walk must add; an empty rest is the root state and is not
    walked. finish(key, state) reads a key off the state of its part as it
    stands and must not modify it. A repeated subset is computed once."""
    field, xs, ys = _checked_field(points, q)
    keys = _subset_keys(len(points), subsets)
    root, advance, finish = make_walk(field, xs, ys, q, max(map(len, keys), default=1))
    if rest is None:
        found = dict(_trie_walk(sorted(set(keys)), root, advance, finish))
    else:
        parts: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for key in dict.fromkeys(keys):
            parts.setdefault(rest(key, xs, q), []).append(key)
        found = {}
        for _, done in _trie_walk(sorted(parts), root, advance, lambda part, state: [
                (key, finish(key, state)) for key in parts[part]]):
            found.update(done)
    return [found[key] for key in keys]


def _checked_field(points: tuple[CurvePoint, ...], q: int) -> tuple[Field, bytes, bytes]:
    """GF(q^2) and the x and y encodings of the points as bytes, once the
    points are known to be distinct points on the curve over it.

    All points are checked at once: each field by identity, and the curve
    by translating xs and ys with `_curve_maps` and comparing. Where that
    fails, the points are checked one by one, so the error names the first
    faulty point in input order; points of an equal field built apart pass
    there."""
    if not points:
        raise ValueError("at least one evaluation point is required")
    field = hermitian_field(q)
    norm, trace = _curve_maps(field, q)
    xs = bytes([pt.x.value for pt in points])
    ys = bytes([pt.y.value for pt in points])
    if not all(pt.x.field is field and pt.y.field is field for pt in points) or (
        xs.translate(norm) != ys.translate(trace)
    ):
        for pt in points:
            if pt.x.field != field or pt.y.field != field:
                raise ValueError(f"point {pt!r} does not live in {field!r}")
            if norm[pt.x.value] != trace[pt.y.value]:
                raise PointNotOnCurve(f"{pt!r} violates x^{q + 1} = y^{q} + y")
    if len(set(zip(xs, ys))) != len(points):
        raise DuplicatePoints("evaluation points must be pairwise distinct")
    return field, xs, ys


def _fibre_rest(key: tuple[int, ...], xs: bytes, q: int) -> tuple[int, ...]:
    """The key without the x-fibres it holds whole: q of its points with
    one x, which, the points being distinct points on the curve, are all
    the points over that x. Such a fibre takes no point step (see
    `compute_wstar`)."""
    xk = bytes(map((b"\x00" + xs).__getitem__, key))
    whole = [x for x, c in Counter(xk).items() if c == q]
    if not whole:
        return key
    keep = bytearray(b"\x01" * 256)
    for x in whole:
        keep[x] = 0
    return tuple(compress(key, xk.translate(keep)))


def _subset_keys(n: int, subsets: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Each subset as its trie path, its indices from the top down, after
    checking that it is a non-empty, strictly increasing sequence of
    1-based indices into n points."""
    keys = []
    for subset in subsets:
        key = tuple(subset)[::-1]
        if not key:
            raise ValueError("a subset needs at least one point index")
        if not (key[0] <= n and key[-1] >= 1 and all(map(gt, key, key[1:]))):
            bad = next((i for i in key[::-1] if not 1 <= i <= n), None)
            if bad is not None:
                raise ValueError(f"point index {bad} outside 1..{n}")
            raise ValueError(f"subset {key[::-1]} is not strictly increasing")
        keys.append(key)
    return keys


def _trie_walk(
    order: list[tuple[int, ...]], root, advance, finish
) -> Iterator[tuple[tuple[int, ...], object]]:
    """(key, finish(key, state)) for each key of `order`, by one walk over
    their trie (see `compute_wstar`) from the state `root`, one advance per
    edge. The keys must be distinct and sorted, a key being 1-based indices
    into the points from the largest down, so the keys below a node are a
    run of `order`, its own key first; the empty key finishes the root.

    `advance(state, js, alone)` returns the state after the 0-based points
    `js` are added to `state`, in that order, and leaves `state` as it
    was: siblings start from one state. `alone` says that no other key
    shares these points, so they end a key; the driver takes no Python
    step per index of them. `finish` reads the key's state as it stands
    and must not modify it.
    """
    zero_based = (-1).__add__
    # Frames (lo, hi, depth, state): the keys order[lo:hi] share their
    # first `depth` indices, and state is the state there.
    frames = [(0, len(order), 0, root)] if order else []
    while frames:
        lo, hi, depth, state = frames.pop()
        key = order[lo]
        if lo + 1 == hi:  # a lone key: one advance to its end
            if len(key) > depth:
                state = advance(state, [*map(zero_based, key[depth:])], True)
            yield key, finish(key, state)
            continue
        # The run shares the indices on which its first and last key agree.
        last, stop = order[hi - 1], depth
        while len(key) > stop and key[stop] == last[stop]:
            stop += 1
        if stop > depth:
            state = advance(state, [*map(zero_based, key[depth:stop])], False)
        if len(key) == stop:
            yield key, finish(key, state)
            lo += 1
        # One frame per child: a run of keys with one index at `stop`.
        v = order[lo][stop]
        for k in range(lo + 1, hi):
            if order[k][stop] != v:
                frames.append((lo, k, stop, state))
                lo, v = k, order[k][stop]
        frames.append((lo, hi, stop, state))


def _wstar_walk(field: Field, xs: bytes, ys: bytes, q: int, n: int):
    """The Groebner update of `compute_wstar` on the points with encodings
    xs and ys, as the (root, advance, finish) of a `_trie_walk` whose
    finish is the key's W*, read off the state of the key's walked points:
    all of them, or those outside its whole x-fibres (`_fibre_rest`), once
    per distinct (rho_b, key size). n, the largest subset size, goes unused."""
    g = curve_genus(q)
    shift, eliminate, mul_lanes = field.add_rows, field.eliminate, field.mul_lanes
    neg, one = field.mul_table[field.p - 1], field.lanes[1]  # -a = neg[a]

    def powers(yv):  # y^b in lane form at the points with y-encodings yv, b < q
        return list(accumulate(repeat(yv, q - 1), mul_lanes, initial=bytes([one]) * len(yv)))

    def advance(state, js, alone):
        # The state: the generators g_b as vectors and their rho_b. At the
        # root the vectors are None: g_b = y^b is evaluated here, at the
        # points it is needed at, so a key that is not walked costs none.
        gens, rho = state
        rho, xv = rho[:], xs
        if alone and js[0] >= 2 * len(js):
            # A tail that no other key shares needs only its own points:
            # cut to them, so its m points below position j cost O(q m^2),
            # not O(q m j). Where they fill half the positions or more,
            # the cut costs more than it saves.
            pos = js[::-1]
            gens = (powers(bytes(map(ys.__getitem__, pos))) if gens is None
                    else [bytes(map(gb.__getitem__, pos)) for gb in gens])
            js, xv = range(len(pos) - 1, -1, -1), bytes(map(xs.__getitem__, pos))
        elif gens is None:
            gens = powers(ys[:js[0] + 1])
        for j in js:
            # g_s: of the generators nonzero at the point, the one of least
            # rho_s (the rho_b are distinct mod q). `eliminate` returns a
            # new list, so the state passed in is left as it was.
            s = -1
            for b, gb in enumerate(gens):
                if gb[j] and (s < 0 or rho[b] < rho[s]):
                    s = b
            if s < 0:
                raise AssertionError("every generator vanishes at a new distinct point")
            gens = eliminate(gens, j, s)
            gens[s] = mul_lanes(gens[s], xv[:j].translate(shift[neg[xv[j]]]))  # (x - alpha) g_s
            rho[s] += q
        return gens, rho

    def finish(key, state):
        rho = state[1]
        seen = (*rho, len(key))  # all W* depends on, and many keys share it
        if seen in found:
            return found[seen]
        # Class b of W*: b(q+1), b(q+1) + q, ..., rho_b - q.
        ws = list(chain.from_iterable(map(range, base, rho, repeat(q))))
        # The key's points the walk left out fill whole x-fibres, each of
        # which moves every rho_b up by q (see `compute_wstar`): in all, by
        # the number left out, and class b goes on up to rho_b + lift - q.
        lift = len(key) - len(ws)
        if lift:
            ws += chain.from_iterable(map(range, rho, map(lift.__add__, rho), repeat(q)))
        ws.sort()
        if ws[-1] > len(key) + 2 * g - 1:
            raise AssertionError("rank must reach n by pole order n + 2g - 1")
        return found.setdefault(seen, tuple(ws))

    base = [b * (q + 1) for b in range(q)]  # rho_b of y^b, which `advance` copies
    found: dict[tuple[int, ...], tuple[int, ...]] = {}  # W* by (rho_b..., key size)
    return (None, base), advance, finish


def isometry_dual_criterion(wstar: Sequence[int], q: int) -> bool:
    """True iff n + 2g - 1 is one of the n rank-jump pole orders `wstar`."""
    return len(wstar) + 2 * curve_genus(q) - 1 in wstar


def isometry_sequence(
    points: Sequence[CurvePoint], q: int
) -> tuple[CodeSequence, Optional[tuple[int, ...]]]:
    """`compute_wstar(points, q)` and the all-nonzero x with x_1 = 1 making
    its sequence isometry-dual, as integer encodings of the field elements,
    or None; both from one column walk of `find_isometry_vectors`, with the
    points checked as `compute_wstar` checks them.

    x works iff for every i the componentwise product x * C^i equals the
    dual of C^(n-i). C^i is spanned by the rows r_0, ..., r_(i-1), r_i the
    values at the points of the monomial of pole order W*[i]. r_0 is the
    constant function, so x * C^1 is the line through x, and it must equal
    the dual of C^(n-1), which is one-dimensional because the n rows are
    independent.
    Solutions are closed under global scaling, so fixing x_1 = 1 leaves at
    most one candidate: the vector orthogonal to the first n-1 rows. It
    works iff it has no zero entry and meets the bilinear conditions
    sum_k x_k r_i[k] r_j[k] = 0 over all generator pairs with
    i + j <= n - 2 (0-based), which suffice because with x all-nonzero the
    dimensions already match. The walk finds the candidate and the
    conditions, and W* on the way: it is read from the pivots the walk
    stores, so it is not computed a second time.
    """
    points = tuple(points)
    [(wstar, x)] = _walk(points, q, [range(1, len(points) + 1)], _isometry_walk)
    return CodeSequence(q=q, points=points, wstar=wstar), x


def find_isometry_vectors(
    points: Sequence[CurvePoint], q: int, subsets: Sequence[Sequence[int]]
) -> list[Optional[tuple[int, ...]]]:
    """The isometry vector of `isometry_sequence` for the code sequence of
    each subset of the points, in the order given, with subsets and points
    checked as `compute_wstar_family` checks them.

    The subsets share the steps of their common top points on the trie
    walk of `compute_wstar`, but a step here is column elimination: each
    point contributes the values at it of the first K monomials in pole
    order, those of pole order <= n + 4g - 2 for the largest subset size
    n, followed by its unit vector among the points, which records the
    combination of points a column stands for. A new column is reduced by
    the stored one whose pivot, its first nonzero monomial entry, equals
    its own, until its pivot is new, so the stored pivots are the rank
    jumps: the indices of W*, which `isometry_sequence` returns with the
    rank check of `compute_wstar`. At a subset's last point, the column with
    the largest pivot is zero on every monomial below W*[n-1], so its
    unit-vector part is the candidate x up to scale, and its monomial
    entries are x's inner products with the monomials. Each bilinear
    condition is one of those entries, and those below W*[n-1] are 0 by
    construction; the others are read through one 0/1 mask per distinct
    W* (`_pair_mask`). A point costs at most one vector
    operation per point before it, and no generator row is built. A
    repeated subset is computed once.
    """
    return [x for _, x in _walk(tuple(points), q, subsets, _isometry_walk)]


def wstar_and_vectors(
    points: Sequence[CurvePoint], q: int, subsets: Sequence[Sequence[int]]
) -> list[tuple[tuple[int, ...], tuple[tuple[int, ...], Optional[tuple[int, ...]]]]]:
    """(W*, found) for each subset, in the order given: W* by the walk of
    `compute_wstar_family`, and found the (W*, vector) of the column walk
    of `find_isometry_vectors`. One trie walk, with the checks of both,
    advances the two states side by side over every point of each subset,
    whole x-fibres too: they share no arithmetic, so the two W* are
    independent answers."""
    return _walk(tuple(points), q, subsets, _side_by_side)


def _side_by_side(field: Field, xs: bytes, ys: bytes, q: int, n: int):
    """`_wstar_walk` and `_isometry_walk` as one walk, whose states and
    finishes are the pairs of theirs."""
    w_root, w_advance, w_finish = _wstar_walk(field, xs, ys, q, n)
    c_root, c_advance, c_finish = _isometry_walk(field, xs, ys, q, n)

    def advance(state, js, alone):
        return w_advance(state[0], js, alone), c_advance(state[1], js, alone)

    def finish(key, state):
        return w_finish(key, state[0]), c_finish(key, state[1])

    return (w_root, c_root), advance, finish


def _isometry_walk(field: Field, xs: bytes, ys: bytes, q: int, n: int):
    """The column walk of `find_isometry_vectors` for subsets of up to n of
    the points with encodings xs and ys, as the (root, advance, finish) of
    a `_trie_walk` whose finish is the key's (W*, isometry vector or None);
    W* is the stored pivots as pole orders. The columns are held in the
    field's lane form (see `gf`), translated once, and the pivot entries
    and the vector are read through `unlanes`; the bilinear conditions are
    one `_pair_mask` per distinct W*, tested in one `compress` pass."""
    g = curve_genus(q)
    n_all, top = len(xs), n + 4 * g - 2
    mul, inv, unlanes = field.mul_table, field.inv_table, field.unlanes
    add_scaled, neg = field.add_scaled, mul[field.p - 1]  # -a = neg[a]
    # The monomials x^a y^b of pole order m <= top, and the index of each
    # m among them.
    basis = [(m // q - m % q, m % q) for m in range(top + 1) if m // q >= m % q]
    k_mono = len(basis)
    poles = [a * q + b * (q + 1) for a, b in basis]
    index = dict(zip(poles, count()))
    eye = bytes(n_all - 1) + b"\x01" + bytes(n_all - 1)
    columns = []
    for k, (x, y) in enumerate(zip(xs, ys)):
        x_mul, y_mul, u, v = mul[x], mul[y], 1, 1
        x_pows = [1] + [u := x_mul[u] for _ in range(top // q)]
        y_muls = [mul[1]] + [mul[v := y_mul[v]] for _ in range(q - 1)]  # times y^b
        columns.append((bytes([y_muls[b][x_pows[a]] for a, b in basis])
                        + eye[n_all - 1 - k:2 * n_all - 1 - k]).translate(field.lanes))

    def advance(stored, js, alone):
        # The state: the reduced columns so far, by pivot.
        stored = stored.copy()
        for j in js:
            c = columns[j]
            while True:
                piv = len(c) - len(c.lstrip(b"\x00"))
                s = stored.get(piv)
                if s is None:
                    break
                c = add_scaled(c, mul[neg[unlanes[c[piv]]]][inv[unlanes[s[piv]]]], s)
            if piv >= k_mono:
                raise AssertionError("the monomials separate distinct points")
            stored[piv] = c
        return stored

    def finish(key, stored):
        pivots = sorted(stored)
        wstar = tuple(map(poles.__getitem__, pivots))
        if wstar[-1] > len(key) + 2 * g - 1:
            raise AssertionError("rank must reach n by pole order n + 2g - 1")
        last = stored[pivots[-1]]
        x = bytes(map(last[k_mono - 1:].__getitem__, key[::-1])).translate(unlanes)
        if 0 not in x and wstar not in masks:
            masks[wstar] = _pair_mask(wstar, index, k_mono)
        if 0 in x or any(compress(last, masks[wstar])):
            return wstar, None
        return wstar, tuple(map(mul[inv[x[0]]].__getitem__, x))

    masks: dict[tuple[int, ...], bytes] = {}  # `_pair_mask` by W*
    return {}, advance, finish


def _pair_mask(wstar: tuple[int, ...], index: dict[int, int], size: int) -> bytes:
    """The 0/1 mask over `size` monomials in pole order, 1 at index[w_i + w_j]
    for each pair i <= j, i + j <= n - 2, with w_i + w_j >= top = wstar[-1]:
    x annihilates every such r_i * r_j iff the last column, x's inner
    products with the monomials, is 0 there (below top it is 0 already).

    The n pole orders are distinct integers up to top, so w_i <= top -
    (n - 1 - i), and a pair has m = w_i + w_j <= 2 top - n <= top + 2g - 1,
    as top <= n + 2g - 1. The pair's product x^a y^b has pole order m.
    With b < q it is the monomial of pole order m; otherwise it is
    x^(a+q+1) y^(b-q) - x^a y^(b-q+1) on the curve, and the second term
    has pole order m - q^2 + 1 <= top - q, below top. So x annihilates
    the product iff the entry at index[m] is 0.
    """
    n, top = len(wstar), wstar[-1]
    mask = bytearray(size)
    for i in range(n // 2):
        wi = wstar[i]
        for wj in wstar[max(i, bisect_left(wstar, top - wi)):n - 1 - i]:
            mask[index[wi + wj]] = 1
    return bytes(mask)
