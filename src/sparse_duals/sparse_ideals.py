"""Ideals of a numerical semigroup, stored by their finite complement.

A proper ideal I of S satisfies I + S contained in I; its complement
T = S \\ I is finite and division-closed: whenever t is in T and t - s is
an element of S for some element s, t - s is in T as well. It suffices to
test s among the generators (`division_escape`). The Frobenius
number of any proper ideal is at most 2g - 1 + #T; ideals attaining the
bound are the maximum sparse ideals, and they are exactly the complements
of divisor sets D(i) at non-zero elements with no two-gap decomposition
(G(i) = 0). The attained Frobenius number is called the ideal's leader.

Set-wide tests run on byte masks: a set of non-negative integers is a
0/1 byte string read as a little-endian int, byte n at bit 8n (see
`NumericalSemigroup.membership`). Reading the same bytes big-endian
mirrors them, n -> top - n, so "y and lam - y both in the set" and
"t - a for t in the set" are one `&` or one shift each, done in C.
`maximum_sparse_ideals` reads the membership bytes up to its bound once
each way and shifts the mirror to each leader. `enumerate_proper_ideals`
takes no x >= c + s_k as a candidate: s_0, ..., s_k <= x - c lie in D(x).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, islice
from operator import lt
from typing import Optional, Sequence

from .errors import DifferentParents, NotALeader, NotAnIdeal, NotMaximumSparse, NotProper
from .semigroup import _FLIP, NumericalSemigroup


@dataclass(frozen=True)
class SemigroupIdeal:
    """An ideal of `parent`, represented by the complement within the parent.

    An empty complement represents the (improper) ideal S itself. The
    complement is validated at construction: any iterable of ints is
    normalised to a strictly increasing tuple of plain ints (one that
    already is one is kept as it is), and its byte mask is built and
    checked by `_check_ideal`. The maximum sparse builders skip this
    constructor and run the same check on the D(lam) mask they compute.
    """

    parent: NumericalSemigroup
    complement: tuple[int, ...]

    def __post_init__(self) -> None:
        comp = self.complement
        if not _strictly_increasing_ints(comp):
            comp = tuple(sorted(set(int(t) for t in comp)))
            object.__setattr__(self, "complement", comp)
        _check_ideal(self.parent, comp, _mask(comp))

    @property
    def frobenius(self) -> int:
        """Largest integer not in the ideal."""
        if self.complement:
            return max(self.parent.frobenius, self.complement[-1])
        return self.parent.frobenius

    @property
    def is_proper(self) -> bool:
        return bool(self.complement)

    @property
    def leader(self) -> Optional[int]:
        """The Frobenius number when the sparsity bound 2g-1+#T is attained, else None."""
        if not self.complement:
            return None
        f = self.frobenius
        return f if f == 2 * self.parent.genus - 1 + len(self.complement) else None

    def to_json(self) -> dict:
        return {
            "parent_generators": list(self.parent.generators),
            "complement": list(self.complement),
            "leader": self.leader,
            "frobenius": self.frobenius,
        }

    def __repr__(self) -> str:
        return f"SemigroupIdeal({self.parent!r}, complement={list(self.complement)})"


def division_escape(
    S: NumericalSemigroup, complement: Sequence[int]
) -> Optional[tuple[int, int]]:
    """First (t, a) with t in `complement`, a a generator of S, and t - a an
    element of S outside the complement; None if the complement is
    division-closed.

    Generators suffice: every element of S is a sum of generators, so
    I + a contained in I for each generator a gives I + S contained in I.
    One mask test per generator decides whether any (t, a) exists; only
    then is the complement walked for the first one.
    """
    T = _mask(complement)
    members = int.from_bytes(S.membership(max(complement, default=-1)), "little")
    return _first_escape(S, complement) if _escapes(S, T, members & ~T) else None


def _strictly_increasing_ints(values: Sequence[int]) -> bool:
    return (
        type(values) is tuple
        and set(map(type, values)) <= {int}
        and all(map(lt, values, islice(values, 1, None)))
    )


def _mask(values: Sequence[int]) -> int:
    """Byte mask of the non-negative `values`. A negative t never escapes:
    t - a is negative too."""
    buf = bytearray(max(max(values, default=-1) + 1, 0))
    for t in values:
        if t >= 0:
            buf[t] = 1
    return int.from_bytes(buf, "little")


def _check_ideal(S: NumericalSemigroup, comp: tuple[int, ...], T: int,
                 members: Optional[int] = None) -> None:
    """Raise `NotAnIdeal` unless `comp`, strictly increasing with byte mask
    T of its non-negative part, is the complement of an ideal of S: all of
    it in S, and no t - a (t in comp, a a generator) an element of S
    outside it. The message names the first witness in `comp` order.
    `members`, S's membership mask up to max(comp) or beyond (no byte
    above max(comp) is read), is built here when not given."""
    if members is None:
        members = int.from_bytes(S.membership(comp[-1] if comp else -1), "little")
    if (T & members) != T or (comp and comp[0] < 0):  # T & ~members makes 2 more masks
        t = next(t for t in comp if not S.contains(t))
        raise NotAnIdeal(f"complement element {t} is not in {S!r}")
    outside = members ^ T  # the elements of S outside comp: T lies in members
    del members  # each mask is megabytes at the edge of the report budget
    if _escapes(S, T, outside):
        t, a = _first_escape(S, comp)
        raise NotAnIdeal(
            f"complement not division-closed: {t} - {a} = {t - a} escapes"
        )


def _escapes(S: NumericalSemigroup, T: int, outside: int) -> bool:
    """Is some t - a, t in T and a a generator, in `outside` (the mask of
    the elements of S outside T)?"""
    for a in S.generators:
        if (T >> 8 * a) & outside:
            return True
    return False


def _first_escape(S: NumericalSemigroup, complement: Sequence[int]) -> tuple[int, int]:
    comp = set(complement)
    return next(
        (t, a)
        for t in complement
        for a in S.generators
        if S.contains(t - a) and (t - a) not in comp
    )


def _divisor_mask(S: NumericalSemigroup, lam: int) -> int:
    """Byte mask of D(lam): the membership bytes up to lam `&` their mirror
    image, so byte y is 1 iff y and lam - y are both elements of S."""
    member = S.membership(lam)
    return int.from_bytes(member, "little") & int.from_bytes(member, "big")


def _mask_values(T: int, top: int) -> tuple[int, ...]:
    """The n <= top whose byte is 1 in the byte mask T, increasing."""
    return tuple(compress(range(top + 1), T.to_bytes(top + 1, "little")))


def divisor_set(S: NumericalSemigroup, i: int) -> tuple[int, ...]:
    """D(i): elements y of S with element(i) - y also in S. Contains 0 and element(i)."""
    if i < 0:
        raise ValueError("index must be non-negative")
    lam = S.element(i)
    return _mask_values(_divisor_mask(S, lam), lam)


def gap_pair_count(S: NumericalSemigroup, i: int) -> int:
    """G(i): number of unordered gap pairs (a, b), a <= b, with a + b = element(i)."""
    if i < 0:
        raise ValueError("index must be non-negative")
    lam = S.element(i)
    shifted, mirrored = _gap_masks(S)
    ordered = ((shifted >> 8 * (lam + 1)) & mirrored).bit_count()
    # Each pair a < b is counted as (a, b) and (b, a), a = b = lam / 2 once.
    return (ordered + (lam % 2 == 0 and not S.contains(lam // 2))) // 2


def _gap_masks(S: NumericalSemigroup) -> tuple[int, int]:
    """(G << 8c, M) for the gap mask G and its mirror M, byte c - 1 - a for
    gap a, where c is the conductor. Byte c - 1 - a of (G << 8c) >> 8(lam + 1)
    is byte lam - a of G, so ((G << 8c) >> 8(lam + 1)) & M has one 1-byte per
    gap a with lam - a also a gap: the ordered gap pairs summing to lam."""
    gap_bytes = S.membership(S.conductor - 1).translate(_FLIP)
    return (
        int.from_bytes(gap_bytes, "little") << 8 * S.conductor,
        int.from_bytes(gap_bytes, "big"),
    )


def is_maximum_sparse(ideal: SemigroupIdeal) -> bool:
    """Frobenius-bound test: does frobenius equal 2g - 1 + #complement?"""
    if not ideal.is_proper:
        raise NotProper("the improper ideal S has no sparsity classification")
    return ideal.leader is not None


def maximum_sparse_from_leader(S: NumericalSemigroup, i: int) -> SemigroupIdeal:
    """The maximum sparse ideal S \\ D(i); requires i >= 1 and G(i) = 0."""
    if i < 1:
        raise ValueError("leader index must be >= 1")
    lam, pairs = S.element(i), gap_pair_count(S, i)
    if pairs:
        raise NotALeader(f"element {lam} has {pairs} two-gap decomposition(s)")
    return _leader_ideal(S, _divisor_mask(S, lam), lam, None)


def maximum_sparse_ideals(S: NumericalSemigroup, bound: int) -> list[SemigroupIdeal]:
    """The maximum sparse ideals with leader <= bound, by increasing leader.

    One membership string up to `bound` serves every leader: shifted down
    bound - lam bytes, its big-endian read has byte lam - y at byte y. Its
    little-endian read is the membership mask of every ideal check."""
    member = S.membership(bound)
    low, high = int.from_bytes(member, "little"), int.from_bytes(member, "big")
    return [_leader_ideal(S, low & (high >> 8 * (bound - lam)), lam, low)
            for lam in leader_set(S, bound)]


def _leader_ideal(S: NumericalSemigroup, T: int, lam: int,
                  members: Optional[int]) -> SemigroupIdeal:
    """S \\ D(lam) from the mask T of D(lam), checked on T by `_check_ideal`."""
    comp = _mask_values(T, lam)
    _check_ideal(S, comp, T, members)
    ideal = object.__new__(SemigroupIdeal)  # checked above: no __post_init__
    object.__setattr__(ideal, "parent", S)
    object.__setattr__(ideal, "complement", comp)
    assert ideal.leader == lam
    return ideal


def leader_set(S: NumericalSemigroup, bound: int) -> tuple[int, ...]:
    """All non-zero elements lam <= bound with G = 0 at lam.

    These are exactly the leaders of maximum sparse ideals, and they are
    all at least the conductor. The structure is eventually periodic:
    above twice the largest gap every element qualifies, so bound = 2c
    already determines the whole set.
    """
    if bound < S.conductor:
        raise ValueError(f"bound {bound} is below the conductor {S.conductor}")
    shifted, mirrored = _gap_masks(S)
    return tuple(
        lam
        for lam in S.members(bound)
        if lam > 0 and not (shifted >> 8 * (lam + 1)) & mirrored
    )


@dataclass(frozen=True)
class InclusionReport:
    """The four equivalent inclusion tests for two maximum sparse ideals
    I (first) and I2 (second): each boolean is computed independently.
    """

    superset: bool          # I2 contains I, by element sweep
    leader_difference: bool  # leader(I) - leader(I2) is an element of S
    complement_nested: bool  # complement(I2) subset of complement(I)
    size_difference: bool    # #complement(I) - #complement(I2) is an element of S

    @property
    def agree(self) -> bool:
        return len({self.superset, self.leader_difference,
                    self.complement_nested, self.size_difference}) == 1

    def to_json(self) -> dict:
        return {
            "superset": self.superset,
            "leader_difference": self.leader_difference,
            "complement_nested": self.complement_nested,
            "size_difference": self.size_difference,
            "agree": self.agree,
        }


def inclusion_report(I: SemigroupIdeal, I2: SemigroupIdeal) -> InclusionReport:
    """Evaluate the four-way inclusion equivalence for maximum sparse I, I2."""
    if I.parent != I2.parent:
        raise DifferentParents(f"{I.parent!r} vs {I2.parent!r}")
    if I.leader is None or I2.leader is None:
        raise NotMaximumSparse("both ideals must attain the sparsity bound")
    S = I.parent
    comp1, comp2 = set(I.complement), set(I2.complement)
    sweep_to = max(I.frobenius, I2.frobenius) + 1
    superset = all(
        y in comp1 or y not in comp2  # y in I implies y in I2
        for y in S.members(sweep_to)
    )
    return InclusionReport(
        superset=superset,
        leader_difference=S.contains(I.leader - I2.leader),
        complement_nested=comp2 <= comp1,
        size_difference=S.contains(len(comp1) - len(comp2)),
    )


def enumerate_proper_ideals(
    S: NumericalSemigroup,
    max_complement_size: int,
    max_frobenius: Optional[int] = None,
) -> list[SemigroupIdeal]:
    """All proper ideals with complement size and Frobenius number bounded.

    Every division-closed complement is a union of divisor sets of its
    elements, so the enumeration walks distinct unions of D(x) over
    candidate generators x whose own divisor sets are small enough.
    """
    if max_frobenius is None:
        max_frobenius = 3 * S.conductor
    elements = S.members(max_frobenius)
    stop = S.conductor + S.element(max(max_complement_size, 0))  # from stop on, #D(x) is too big
    divisors = {0: frozenset({0})}
    for x in S.members(min(max_frobenius, stop - 1))[1:]:
        d = []
        for y in elements:  # walk D(x) up from 0; stop once it is too big
            if y > x or len(d) > max_complement_size:
                break
            if S.contains(x - y):
                d.append(y)
        if len(d) <= max_complement_size:
            divisors[x] = frozenset(d)
    candidates = sorted(divisors)
    seen: set[frozenset[int]] = set()
    frontier: list[frozenset[int]] = [frozenset()]
    while frontier:
        grown = []
        for base in frontier:
            for x in candidates:
                if x in base:
                    continue
                union = base | divisors[x]
                if len(union) <= max_complement_size and union not in seen:
                    seen.add(union)
                    grown.append(union)
        frontier = grown
    complements = sorted(seen, key=lambda t: (len(t), sorted(t)))
    return [SemigroupIdeal(S, tuple(sorted(t))) for t in complements]
