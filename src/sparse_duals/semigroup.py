"""Numerical semigroup arithmetic: membership, gaps, conductor, indexed elements."""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from functools import reduce
from itertools import compress
from math import gcd
from typing import Iterable

from .errors import EmptyGenerators, GcdNotOne

_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")  # 0/1 byte negation


def _generators_and_apery(generators: Iterable[int]) -> tuple[tuple[int, ...], list[int]]:
    """The sorted distinct generators and the Apery set of their semigroup
    with respect to the smallest one, m: entry r is the least member
    congruent to r mod m. Shortest paths over the m residues (Dijkstra,
    one edge per generator), so the cost does not grow with the conductor."""
    gens = tuple(sorted(set(int(a) for a in generators)))
    if not gens:
        raise EmptyGenerators("at least one generator is required")
    if gens[0] < 1:
        raise ValueError(f"generators must be positive, got {gens[0]}")
    if reduce(gcd, gens) != 1:
        raise GcdNotOne(
            f"gcd({', '.join(map(str, gens))}) != 1: complement would be infinite"
        )
    m = gens[0]
    apery = [-1] * m
    heap = [(0, 0)]
    while heap:
        w, r = heapq.heappop(heap)
        if apery[r] >= 0:
            continue
        apery[r] = w
        for a in gens[1:]:
            nxt = (r + a) % m
            if apery[nxt] < 0:
                heapq.heappush(heap, (w + a, nxt))
    return gens, apery


def semigroup_conductor(generators: Iterable[int]) -> int:
    """The conductor of the semigroup the generators generate, validated as
    by `NumericalSemigroup` but without building it: max(Apery set) - m + 1."""
    gens, apery = _generators_and_apery(generators)
    return max(apery) - gens[0] + 1


class NumericalSemigroup:
    """Smallest subset of the non-negative integers containing the given
    generators, closed under addition, and containing 0.

    Membership below the conductor is held in a bit vector; every integer
    at or above the conductor is a member. Elements are indexed in
    increasing order, ``element(0) == 0``. Instances are immutable.
    """

    __slots__ = ("generators", "conductor", "genus", "gaps", "_membership", "_below")

    def __init__(self, generators: Iterable[int]):
        gens, apery = _generators_and_apery(generators)
        # n is a member iff n >= apery[n % m]: fill each residue class from
        # its least member up to the conductor.
        m = gens[0]
        conductor = max(apery) - m + 1
        member = bytearray(conductor)
        for w in apery:
            member[w::m] = b"\x01" * len(range(w, conductor, m))

        self.generators = gens
        self.conductor = conductor
        self.gaps = tuple(compress(range(conductor), member.translate(_FLIP)))
        self.genus = len(self.gaps)
        self._membership = bytes(member)
        self._below = tuple(compress(range(conductor), member))

    def contains(self, n: int) -> bool:
        """True iff n is an element; negative n are never elements."""
        if n < 0:
            return False
        if n >= self.conductor:
            return True
        return bool(self._membership[n])

    __contains__ = contains

    def element(self, i: int) -> int:
        """The i-th smallest element (0-indexed); element(0) == 0."""
        if i < 0:
            raise ValueError("element index must be non-negative")
        if i < len(self._below):
            return self._below[i]
        return self.conductor + (i - len(self._below))

    def index_of(self, value: int) -> int:
        """Inverse of element(); raises ValueError if value is not an element."""
        if not self.contains(value):
            raise ValueError(f"{value} is not an element of {self!r}")
        if value >= self.conductor:
            return len(self._below) + (value - self.conductor)
        return bisect_left(self._below, value)

    def membership(self, bound: int) -> bytes:
        """Byte n is 1 if n is an element and 0 if not, for 0 <= n <= bound.

        Read with `int.from_bytes(..., "little")`, byte n sits at bit 8n, so
        set-wide tests become single big-int operations.
        """
        if bound < self.conductor:
            return self._membership[: max(bound + 1, 0)]
        return self._membership + b"\x01" * (bound + 1 - self.conductor)

    def members(self, bound: int) -> list[int]:
        """All elements <= bound, in increasing order."""
        if bound < self.conductor:
            return list(self._below[: bisect_right(self._below, bound)])
        return [*self._below, *range(self.conductor, bound + 1)]

    @property
    def frobenius(self) -> int:
        """Largest integer not in the semigroup (-1 when there are no gaps)."""
        return self.conductor - 1 if self.genus else -1

    @property
    def multiplicity(self) -> int:
        """Smallest non-zero element."""
        return self.element(1)

    def to_json(self) -> dict:
        return {
            "generators": list(self.generators),
            "gaps": list(self.gaps),
            "conductor": self.conductor,
            "genus": self.genus,
        }

    @classmethod
    def from_json(cls, data: dict) -> "NumericalSemigroup":
        sg = cls(data["generators"])
        if list(sg.gaps) != list(data.get("gaps", sg.gaps)):
            raise ValueError("gap list in JSON does not match the generators")
        return sg

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.gaps == other.gaps

    def __hash__(self) -> int:
        return hash(self.gaps)

    def __repr__(self) -> str:
        return f"NumericalSemigroup({list(self.generators)})"
