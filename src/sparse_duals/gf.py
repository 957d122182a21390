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

Vectors are byte strings, one byte per entry. The W* point step keeps
its vectors in the field's *lane form*: in GF(9), GF(25) and GF(49) a
byte holds its entry's base-p digits spread to lanes, so vectors add as
ints; in every other field it holds the encoding. 0 is 0 in both.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from operator import add, xor
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


def _tiled(values, run: int, size: int) -> bytes:
    """`size` bytes: each of `values` `run` times over, the block repeated."""
    block = bytes(chain.from_iterable(repeat(v, run) for v in values))
    return block * (size // len(block))


def _lane_tables(p: int, m: int) -> list[tuple[bytes, bytes]]:
    """The (spread, reduce) translate tables of each digit group of
    GF(p^m), for `Field.add_scaled`: spread[v] holds the group's base-p
    digits of v, one per lane of w bits, and reduce[t] every lane of t mod
    p, back in its base-p place. There are none for p = 2, nor where a sum
    of two digits does not fit in a byte (p > 128).

    A lane's part of either table is periodic: the digit of weight u is
    constant on runs of u encodings, and a lane at bit s is constant on
    runs of 2^s bytes. So each part is a short block repeated, and the
    lanes, sharing no bits or digits, add up as ints to the table.
    """
    width = (2 * p - 2).bit_length()
    if p == 2 or width > 8:
        return []
    per_group, q = 8 // width, p**m
    tables = []
    for first in range(0, m, per_group):
        lanes = [(p**d, width * (d - first)) for d in range(first, min(first + per_group, m))]
        spread = sum(int.from_bytes(_tiled([c << s for c in range(p)], u, q), "little")
                     for u, s in lanes)
        reduce = sum(int.from_bytes(_tiled([t % p * u for t in range(1 << width)], 1 << s, 256),
                                    "little")
                     for u, s in lanes)
        tables.append((spread.to_bytes(q, "little") + bytes(256 - q),
                       reduce.to_bytes(256, "little")))
    return tables


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
    u + c*v. For vectors in lane form (see the module docstring): `lanes`
    and `unlanes`, the translate tables from encodings to lane bytes and
    back; `mul_lanes(u, v)` = u * v, u and the product in lane form, v in
    encodings; and `eliminate(vectors, j, s)`, one Groebner point step (see
    `_eliminator`).

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
        # The multiply rows as translate tables, v -> a*v, and each lane
        # group's (spread, reduce) tables with the rows spread to its lanes.
        rows = [row + pad for row in self.mul_table]
        groups = [(spread, reduce, [row.translate(spread) for row in rows])
                  for spread, reduce in _lane_tables(p, m)]
        self.add_scaled = self._byte_adder(rows, groups)
        self.lanes, self.unlanes, self.eliminate = self._eliminator(rows, groups)
        self.mul_lanes = self._lane_multiplier()

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

    def _byte_adder(self, mul: list[bytes], groups) -> Callable[[bytes, int, bytes], bytes]:
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
        `mul` holds the multiply rows as translate tables, and `groups` the
        tables of each digit group with the rows spread to its lanes.
        """
        if self.p == 2:

            def add_scaled(u: bytes, c: int, v: bytes) -> bytes:
                cv = int.from_bytes(v.translate(mul[c]), "little")
                return (int.from_bytes(u, "little") ^ cv).to_bytes(len(u), "little")

            return add_scaled

        if not groups:
            add = self.add_table

            def add_scaled(u: bytes, c: int, v: bytes) -> bytes:
                return bytes([add[a][b] for a, b in zip(u, v.translate(mul[c]))])

            return add_scaled

        def add_group(spread: bytes, reduce: bytes, scaled: list[bytes]):
            def add_scaled(u: bytes, c: int, v: bytes) -> bytes:
                lanes = int.from_bytes(u.translate(spread), "little") + int.from_bytes(
                    v.translate(scaled[c]), "little"
                )
                return lanes.to_bytes(len(u), "little").translate(reduce)

            return add_scaled

        groups = [add_group(*tables) for tables in groups]
        if len(groups) == 1:
            return groups[0]

        def add_scaled(u: bytes, c: int, v: bytes) -> bytes:
            total = sum(int.from_bytes(add(u, c, v), "little") for add in groups)
            return total.to_bytes(len(u), "little")

        return add_scaled

    def _eliminator(self, rows: list[bytes], groups) -> tuple[bytes, bytes, Callable]:
        """The lane form of vectors, as the translate tables (lanes,
        unlanes) into it and back, and the point-step kernel on vectors in
        it: eliminate(vectors, j, s), for vectors of one length, cuts every
        vector to [:j], each one but vectors[s] whose entry j is nonzero
        after first adding the multiple of vectors[s] that clears that
        entry, and returns the new list.

        With one digit group of odd p (GF(9), GF(25), GF(49), and the
        prime fields up to 127, where spreading changes nothing), a byte
        holds the group's spread digits (see `_byte_adder`), `scaled[c]`
        takes the lanes of v to those of c*v, and a sum is two ints added
        and one translate by `carry`, which takes every lane mod p and
        spreads it back. For p = 2 the lane form is the encoding, a sum is
        the XOR of the ints, and `carry` changes nothing. In the other
        fields (two or more digit groups, or p > 128) the lane form is the
        encoding too, and each sum is one `add_scaled`.
        """
        p, q = self.p, self.q
        mul, inv = self.mul_table, self.inv_table
        neg = mul[p - 1]  # -a = neg[a]
        lanes = unlanes = bytes(range(q)) + bytes(256 - q)
        if len(groups) == 1:
            lanes, reduce, spread_rows = groups[0]
            unlanes = bytes.maketrans(lanes[:q], bytes(range(q)))
            scaled = [unlanes.translate(row) for row in spread_rows]  # lanes of v -> of c*v
            carry, op = reduce.translate(lanes), add
        elif p == 2:
            scaled, carry, op = rows, unlanes, xor
        else:
            add_scaled = self.add_scaled

            def eliminate(vectors: list, j: int, s: int) -> list:
                gs = vectors[s]
                v, scale = gs[:j], mul[inv[neg[gs[j]]]]  # e -> -e / g_s[j]
                return [add_scaled(gb[:j], scale[gb[j]], v) if gb[j] and b != s else gb[:j]
                        for b, gb in enumerate(vectors)]

            return lanes, unlanes, eliminate

        from_bytes = int.from_bytes

        def eliminate(vectors: list, j: int, s: int) -> list:
            gs = vectors[s]
            v, scale = gs[:j], mul[inv[neg[unlanes[gs[j]]]]]  # e -> -e / g_s[j]
            out = []
            for b, gb in enumerate(vectors):
                e = gb[j]
                if e and b != s:
                    gb = op(from_bytes(gb[:j], "little"), from_bytes(
                        v.translate(scaled[scale[unlanes[e]]]), "little"
                    )).to_bytes(j, "little").translate(carry)
                else:
                    gb = gb[:j]
                out.append(gb)
            return out

        return lanes, unlanes, eliminate

    def _lane_multiplier(self) -> Callable[[bytes, bytes], bytes]:
        """The function (u, v) -> u * v, entry by entry, on byte strings u, v
        of equal length, u and the product in lane form, v in encodings.

        Up to GF(64) the logs of u's and v's entries, each read by one
        translate, are added as ints, and one more translate takes each
        lane s to exp[s mod (q - 1)] in lane form. A zero entry has no log;
        it gets the sentinel z = 2q - 3, one above the largest sum of two
        logs, so every sum with a zero lies above the sums of two logs and
        translates to 0. Since 2z = 4q - 6 <= 255, no lane carries into the
        next. In larger fields, where the lane form is the encoding, the
        product is one table lookup per entry, in the multiply rows copied
        to lists, which CPython subscripts faster than bytes.
        """
        q = self.q
        z = 2 * q - 3  # the log of 0: one above the largest sum of two logs
        if 2 * z > 255:
            mul = [list(row) for row in self.mul_table]

            def mul_lanes(u: bytes, v: bytes) -> bytes:
                return bytes([mul[a][b] for a, b in zip(u, v)])

            return mul_lanes

        log = bytes([z] + self._log[1:]) + bytes(256 - q)
        lane_log = self.unlanes.translate(log)
        antilog = ((bytes(self._exp) * 2)[:z] + bytes(256 - z)).translate(self.lanes)

        def mul_lanes(u: bytes, v: bytes) -> bytes:
            sums = int.from_bytes(u.translate(lane_log), "little") + int.from_bytes(
                v.translate(log), "little"
            )
            return sums.to_bytes(len(u), "little").translate(antilog)

        return mul_lanes

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
