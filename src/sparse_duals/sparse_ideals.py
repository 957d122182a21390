"""Ideals of a numerical semigroup, stored by their finite complement.

A proper ideal I of S satisfies I + S contained in I; its complement
T = S \\ I is finite and division-closed: whenever t is in T and t - s is
an element of S for some element s, t - s is in T as well. It suffices to
test s among the generators (`division_escape`). The Frobenius
number of any proper ideal is at most 2g - 1 + #T; ideals attaining the
bound are the maximum sparse ideals, and they are exactly the complements
of divisor sets D(i) at non-zero elements with no two-gap decomposition
(G(i) = 0). The attained Frobenius number is called the ideal's leader.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import DifferentParents, NotALeader, NotAnIdeal, NotMaximumSparse, NotProper
from .semigroup import NumericalSemigroup


@dataclass(frozen=True)
class SemigroupIdeal:
    """An ideal of `parent`, represented by the complement within the parent.

    An empty complement represents the (improper) ideal S itself. The
    complement is validated at construction.
    """

    parent: NumericalSemigroup
    complement: tuple[int, ...]

    def __post_init__(self) -> None:
        comp = tuple(sorted(set(int(t) for t in self.complement)))
        object.__setattr__(self, "complement", comp)
        for t in comp:
            if not self.parent.contains(t):
                raise NotAnIdeal(f"complement element {t} is not in {self.parent!r}")
        escape = division_escape(self.parent, comp)
        if escape is not None:
            t, a = escape
            raise NotAnIdeal(
                f"complement not division-closed: {t} - {a} = {t - a} escapes"
            )

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
        if self.frobenius == 2 * self.parent.genus - 1 + len(self.complement):
            return self.frobenius
        return None

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
    O(#complement * #generators).
    """
    comp = set(complement)
    for t in complement:
        for a in S.generators:
            if S.contains(t - a) and (t - a) not in comp:
                return t, a
    return None


def divisor_set(S: NumericalSemigroup, i: int) -> tuple[int, ...]:
    """D(i): elements y of S with element(i) - y also in S. Contains 0 and element(i)."""
    if i < 0:
        raise ValueError("index must be non-negative")
    lam = S.element(i)
    return tuple(y for y in S.members(lam) if S.contains(lam - y))


def gap_pair_count(S: NumericalSemigroup, i: int) -> int:
    """G(i): number of unordered gap pairs (a, b), a <= b, with a + b = element(i)."""
    if i < 0:
        raise ValueError("index must be non-negative")
    return _gap_pairs_at(S, S.element(i))


def _gap_pairs_at(S: NumericalSemigroup, value: int) -> int:
    # Only gaps a with value - conductor < a <= value / 2 can pair: then
    # 1 <= a <= value - a < conductor, so a non-element value - a is a gap.
    gaps = S.gaps
    window = gaps[bisect_right(gaps, value - S.conductor):bisect_right(gaps, value // 2)]
    return sum(1 for a in window if not S.contains(value - a))


def is_maximum_sparse(ideal: SemigroupIdeal) -> bool:
    """Frobenius-bound test: does frobenius equal 2g - 1 + #complement?"""
    if not ideal.is_proper:
        raise NotProper("the improper ideal S has no sparsity classification")
    return ideal.leader is not None


def maximum_sparse_from_leader(S: NumericalSemigroup, i: int) -> SemigroupIdeal:
    """The maximum sparse ideal S \\ D(i); requires i >= 1 and G(i) = 0."""
    if i < 1:
        raise ValueError("leader index must be >= 1")
    pairs = gap_pair_count(S, i)
    if pairs:
        raise NotALeader(
            f"element {S.element(i)} has {pairs} two-gap decomposition(s)"
        )
    comp = divisor_set(S, i)
    if not comp:
        raise NotProper("divisor set is empty")  # unreachable: 0 is always a divisor
    ideal = SemigroupIdeal(S, comp)
    assert ideal.leader == S.element(i)
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
    return tuple(
        lam for lam in S.members(bound) if lam > 0 and _gap_pairs_at(S, lam) == 0
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
    divisors = {0: frozenset({0})}
    for x in elements[1:]:
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


def ideal_from_complement(S: NumericalSemigroup, complement: Iterable[int]) -> SemigroupIdeal:
    return SemigroupIdeal(S, tuple(complement))
