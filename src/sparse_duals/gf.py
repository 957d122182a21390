"""Exact arithmetic in small finite fields GF(p^m), order at most 256.

Elements are encoded as integers 0..q-1: the base-p digits of the encoding
are the coefficients of the residue polynomial, constant term least
significant. Multiplication runs off log/antilog tables over the class of
x, so all operations are table lookups.

The modulus is the monic f = x^m + low of smallest encoding `low` in which
x has multiplicative order q - 1. Field() finds it by walking v <- x*v from
v = 1 for each candidate in turn: in that encoding, x*v shifts the digits
of v up by one and adds -(top digit)*low, one add-table lookup. The first
walk that comes back to 1 after exactly q - 1 steps picks f, and the walk
itself is the antilog table. This is the smallest irreducible f in which x
is primitive: a reducible f leaves zero divisors in GF(p)[x]/(f), hence
fewer than q - 1 units, so x could not have order q - 1 there. Candidates
with constant term 0 are skipped unwalked: x divides them, so x is not a
unit modulo them (at GF(256), 3 578 of the 4 976 walk steps).

The add and multiply tables are rows of bytes, each built by one
`bytes.translate` of an earlier row or of the log bytes (see Field), so
no row is filled one Python int at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Optional

from .errors import DivisionByZero, FieldTooLarge, NotPrime

MAX_ORDER = 256


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Field:
    """GF(p^m) = GF(p)[x]/(f), with f the primitive modulus described above.

    Arithmetic (add/mul/neg/inv/pow/log) works on integer encodings;
    element() wraps an encoding into a FieldElement record for the API
    edge. The generator is the class of x; for p=2, m=2 the modulus is
    x^2 + x + 1.

    `add_table[a]` and `mul_table[a]` are q-byte rows: entry b is a + b,
    a * b. Add row c, whose top base-p digit sits at weight u = p^d, is
    add row c - u translated by the step that raises digit d by 1 mod p;
    multiply row a is the log bytes translated by the exp table rotated by
    log a. `inv_table` is a list, with None for 0.

    Vectors of encodings are byte strings, one byte per entry. Built with
    the field: `add_rows`, the add rows padded to 256-byte translate
    tables, with u.translate(add_rows[c]) = c + u; `add_scaled(u, c, v)` =
    u + c*v; and `mul_bytes(u, v)` = u * v.

    A field may be shared by many holders (`hermitian_field` hands out one
    per q), so its tables are read-only. Fields built separately with the
    same p and m are equal.
    """

    def __init__(self, p: int, m: int = 1):
        if not _is_prime(p):
            raise NotPrime(f"characteristic {p} is not prime")
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        q = p**m
        if q > MAX_ORDER:
            raise FieldTooLarge(f"GF({q}) exceeds the supported order {MAX_ORDER}")

        # Digit-wise addition mod p, one translate per row (see the class
        # docstring). `step` raises the digit of weight u by 1 mod p within
        # each block of p*u encodings; the u rows with top digit k there are
        # the u rows before them, with top digit k - 1, translated by it.
        pad = bytes(256 - q)
        add_table = [bytes(range(q))]
        for u in (p**d for d in range(m)):
            step = bytes(chain.from_iterable(
                chain(range(o + u, o + p * u), range(o, o + u)) for o in range(0, q, p * u)
            )) + pad
            for _ in range(p - 1):
                add_table += [row.translate(step) for row in add_table[-u:]]

        # Try f = x^m + low in order; x*v shifts the digits of v up by one,
        # and the top digit c wraps round as c * x^m = -c * low. A zero
        # constant term is skipped: x divides f, so x is no unit there.
        top = p ** (m - 1)
        for low in range(q):
            if low % p == 0:
                continue
            multiples = [0]  # c * low for c = 0..p-1
            for _ in range(p - 1):
                multiples.append(add_table[multiples[-1]][low])
            wrap = [multiples[-c] for c in range(p)]  # -c * low = (p - c) * low
            exp, v = [], 1
            while True:
                exp.append(v)
                hi, lo = divmod(v, top)
                v = add_table[lo * p][wrap[hi]]
                if v <= 1 or len(exp) == q - 1:
                    break
            if v == 1 and len(exp) == q - 1:
                break

        log: list[Optional[int]] = [None] * q
        for k, v in enumerate(exp):
            log[v] = k
        logs = log[1:]
        # Multiply rows (see the class docstring): q - 1 stands for the log
        # of 0 and translates to 0, as the pad bytes do.
        log_bytes = bytes([q - 1] + logs)
        exp2, zeros = bytes(exp) * 2, bytes(257 - q)

        self.p = p
        self.m = m
        self.q = q
        self.modulus = tuple(low // p**i % p for i in range(m)) + (1,)
        self.generator = exp[1] if q > 2 else 1  # in GF(2), x = 1
        self._exp = exp
        self._log = log
        self.add_table = add_table
        self.mul_table = [bytes(q)] + [
            log_bytes.translate(exp2[la:la + q - 1] + zeros) for la in logs
        ]
        self.inv_table: list[Optional[int]] = [None] + [exp2[q - 1 - la] for la in logs]
        self.add_rows = [row + pad for row in add_table]
        self.add_scaled = self._byte_adder()
        self.mul_bytes = self._byte_multiplier()

    # -- value-level arithmetic on encodings --

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def neg(self, a: int) -> int:
        # -1 is the constant p - 1, whose encoding is p - 1.
        return self.mul_table[a][self.p - 1]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"cannot invert 0 in {self!r}")
        return self.inv_table[a]

    def log(self, a: int) -> int:
        """The k in 0..q-2 with generator^k = a."""
        if a == 0:
            raise DivisionByZero(f"0 has no logarithm in {self!r}")
        return self._log[a]

    def pow(self, a: int, k: int) -> int:
        if a == 0 and k >= 0:
            return int(k == 0)
        return self._exp[self.log(a) * k % (self.q - 1)]  # log(0) raises for k < 0

    # -- vectors of encodings, one byte per entry --

    def _byte_adder(self) -> Callable[[bytes, int, bytes], bytes]:
        """The function (u, c, v) -> u + c*v, entry by entry, on byte strings
        u, v of equal length whose bytes are encodings.

        c*v is one `bytes.translate`. For p = 2 the sum is the XOR of u and
        c*v read as ints. For odd p, u and c*v are translated to lanes of w
        bits per base-p digit, with 2(p - 1) < 2^w, so that their sum as
        ints carries from no lane into the next, and one more translate
        takes every lane mod p. Where the lanes of all m digits do not fit
        in a byte (GF(81), GF(121), GF(169)), the digits are split into
        groups added one at a time; the group sums share no digit, so they
        add up as ints to the whole sum. For a prime p > 128 one digit sum
        needs more than a byte, and the sum is one table lookup per entry.
        """
        p, q = self.p, self.q
        pad = bytes(256 - q)
        mul = [row + pad for row in self.mul_table]
        if p == 2:

            def add_scaled(u: bytes, c: int, v: bytes) -> bytes:
                cv = int.from_bytes(v.translate(mul[c]), "little")
                return (int.from_bytes(u, "little") ^ cv).to_bytes(len(u), "little")

            return add_scaled

        width = (2 * p - 2).bit_length()
        if width > 8:
            add = self.add_table

            def add_scaled(u: bytes, c: int, v: bytes) -> bytes:
                return bytes([add[a][b] for a, b in zip(u, v.translate(mul[c]))])

            return add_scaled

        def add_group(spread: bytes, reduce: bytes) -> Callable[[bytes, int, bytes], bytes]:
            scaled = [row.translate(spread) for row in mul]  # c*v, spread

            def add_scaled(u: bytes, c: int, v: bytes) -> bytes:
                lanes = int.from_bytes(u.translate(spread), "little") + int.from_bytes(
                    v.translate(scaled[c]), "little"
                )
                return lanes.to_bytes(len(u), "little").translate(reduce)

            return add_scaled

        # spread[v]: the group's digits of v, one per lane; reduce[t]: every
        # lane of t mod p, back in its base-p place.
        per_group, mask = 8 // width, (1 << width) - 1
        groups = []
        for first in range(0, self.m, per_group):
            last = min(first + per_group, self.m)
            digits = [(p**d, width * (d - first)) for d in range(first, last)]
            spread = bytes(sum(v // w % p << s for w, s in digits) for v in range(q)) + pad
            reduce = bytes(sum((t >> s & mask) % p * w for w, s in digits) for t in range(256))
            groups.append(add_group(spread, reduce))
        if len(groups) == 1:
            return groups[0]

        def add_scaled(u: bytes, c: int, v: bytes) -> bytes:
            total = sum(int.from_bytes(add(u, c, v), "little") for add in groups)
            return total.to_bytes(len(u), "little")

        return add_scaled

    def _byte_multiplier(self) -> Callable[[bytes, bytes], bytes]:
        """The function (u, v) -> u * v, entry by entry, on byte strings u, v
        of equal length whose bytes are encodings.

        Up to GF(64) both strings are translated to logs and added as ints,
        and one more translate takes each lane s to exp[s mod (q - 1)]. A
        zero entry has no log; it gets the sentinel z = 2q - 3, one above the
        largest sum of two logs, so every sum with a zero lies above the
        sums of two logs and translates to 0. Since 2z = 4q - 6 <= 255, no
        lane carries into the next. In larger fields the product is one
        table lookup per entry, in the multiply rows copied to lists, which
        CPython subscripts faster than bytes.
        """
        q = self.q
        z = 2 * q - 3  # the log of 0: one above the largest sum of two logs
        if 2 * z > 255:
            mul = [list(row) for row in self.mul_table]

            def mul_bytes(u: bytes, v: bytes) -> bytes:
                return bytes([mul[a][b] for a, b in zip(u, v)])

            return mul_bytes

        log = bytes([z] + self._log[1:]) + bytes(256 - q)
        antilog = bytes(self._exp[s % (q - 1)] for s in range(z)) + bytes(256 - z)

        def mul_bytes(u: bytes, v: bytes) -> bytes:
            lanes = int.from_bytes(u.translate(log), "little") + int.from_bytes(
                v.translate(log), "little"
            )
            return lanes.to_bytes(len(u), "little").translate(antilog)

        return mul_bytes

    # -- elements, for the API edge --

    def element(self, value: int) -> "FieldElement":
        if not 0 <= value < self.q:
            raise ValueError(f"encoding {value} outside 0..{self.q - 1}")
        return FieldElement(self, value)

    def all_elements(self) -> list["FieldElement"]:
        return [FieldElement(self, v) for v in range(self.q)]

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, Field):
            return NotImplemented
        return (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.q})"


@dataclass(frozen=True)
class FieldElement:
    """An element of a Field as a read-only (field, value) record, value
    being its integer encoding. Arithmetic is on encodings, through the
    field's tables."""

    field: Field
    value: int

    def __repr__(self) -> str:
        return f"GF({self.field.q}):{self.value}"
