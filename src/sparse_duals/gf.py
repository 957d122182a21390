"""Exact arithmetic in small finite fields GF(p^m), order at most 256.

Elements are encoded as integers 0..q-1: the base-p digits of the encoding
are the coefficients of the residue polynomial, constant term least
significant. Multiplication runs off log/antilog tables over a fixed
primitive element, so all operations are table lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import DivisionByZero, FieldMismatch, FieldTooLarge, NotPrime, ReducibleModulus

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


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- polynomial helpers over GF(p); coefficient tuples, constant term first --


def _trim(poly: Sequence[int]) -> tuple[int, ...]:
    coeffs = list(poly)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_mod(num: Sequence[int], den: Sequence[int], p: int) -> tuple[int, ...]:
    num = list(num)
    dd = len(den) - 1
    lead_inv = pow(den[-1], p - 2, p) if p > 2 else den[-1]
    for i in range(len(num) - 1, dd - 1, -1):
        if num[i] == 0:
            continue
        factor = (num[i] * lead_inv) % p
        for j in range(dd + 1):
            num[i - dd + j] = (num[i - dd + j] - factor * den[j]) % p
    return _trim(num[:dd])


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _monic_polys(degree: int, p: int):
    for enc in range(p**degree):
        digits = []
        v = enc
        for _ in range(degree):
            digits.append(v % p)
            v //= p
        yield tuple(digits) + (1,)


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    degree = len(poly) - 1
    if degree < 1:
        return False
    if degree == 1:
        return True
    for d in range(1, degree // 2 + 1):
        for div in _monic_polys(d, p):
            if not _poly_mod(poly, div, p):
                return False
    return True


def _encode(digits: Sequence[int], p: int) -> int:
    value = 0
    for d in reversed(digits):
        value = value * p + d
    return value


def _decode(value: int, p: int, m: int) -> tuple[int, ...]:
    digits = []
    for _ in range(m):
        digits.append(value % p)
        value //= p
    return tuple(digits)


class Field:
    """GF(p^m) with a fixed monic irreducible modulus polynomial.

    Value-level arithmetic (add/mul/neg/inv/pow) works on integer
    encodings; element() wraps an encoding into a FieldElement. When no
    modulus is given, the canonical choice is the smallest (by encoding)
    monic irreducible polynomial of degree m for which the residue class
    of x generates the multiplicative group; for p=2, m=2 this is
    x^2 + x + 1.
    """

    def __init__(self, p: int, m: int = 1, modulus: Optional[Sequence[int]] = None):
        if not _is_prime(p):
            raise NotPrime(f"characteristic {p} is not prime")
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        q = p**m
        if q > MAX_ORDER:
            raise FieldTooLarge(f"GF({q}) exceeds the supported order {MAX_ORDER}")

        if modulus is None:
            modulus = self._default_modulus(p, m)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {m}")
            if not _is_irreducible(modulus, p):
                raise ReducibleModulus(f"{list(modulus)} is reducible over GF({p})")

        self.p = p
        self.m = m
        self.q = q
        self.modulus = tuple(modulus)
        self._build_tables()

    @staticmethod
    def _default_modulus(p: int, m: int) -> tuple[int, ...]:
        q = p**m
        radicals = _prime_factors(q - 1)
        for poly in _monic_polys(m, p):
            if not _is_irreducible(poly, p):
                continue
            x = _poly_mod((0, 1), poly, p)
            if _poly_order_is(x, poly, p, q - 1, radicals):
                return poly
        raise AssertionError(f"no primitive modulus of degree {m} over GF({p})")

    def _build_tables(self) -> None:
        p, m, q = self.p, self.m, self.q
        x_class = _poly_mod((0, 1), self.modulus, p)
        generator = x_class
        radicals = _prime_factors(q - 1)
        if not _poly_order_is(generator, self.modulus, p, q - 1, radicals):
            generator = next(
                _trim(_decode(v, p, m))
                for v in range(1, q)
                if _poly_order_is(_trim(_decode(v, p, m)), self.modulus, p, q - 1, radicals)
            )
        self.generator = _encode(generator, p) if generator else 0

        exp = [0] * (q - 1)
        log: list[Optional[int]] = [None] * q
        acc: tuple[int, ...] = (1,)
        for k in range(q - 1):
            enc = _encode(acc, p)
            exp[k] = enc
            log[enc] = k
            acc = _poly_mod(_poly_mul(acc, generator, p), self.modulus, p)
        assert acc == (1,), "generator order mismatch"
        self._exp = exp
        self._log = log

        if p == 2:
            add_table = [[a ^ b for b in range(q)] for a in range(q)]
        else:
            add_table = [
                [
                    _encode(
                        [(da + db) % p for da, db in zip(_decode(a, p, m), _decode(b, p, m))],
                        p,
                    )
                    for b in range(q)
                ]
                for a in range(q)
            ]
        mul_table = [[0] * q for _ in range(q)]
        for a in range(1, q):
            la = log[a]
            row = mul_table[a]
            for b in range(1, q):
                row[b] = exp[(la + log[b]) % (q - 1)]
        self.add_table = add_table
        self.mul_table = mul_table
        self.inv_table: list[Optional[int]] = [None] + [
            exp[(q - 1 - log[a]) % (q - 1)] for a in range(1, q)
        ]

    # -- value-level arithmetic on encodings --

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg(b)]

    def neg(self, a: int) -> int:
        # -1 is the constant p - 1, whose encoding is p - 1.
        return self.mul_table[a][self.p - 1]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"cannot invert 0 in {self!r}")
        return self.inv_table[a]

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k > 0:
                return 0
            if k == 0:
                return 1
            raise DivisionByZero(f"cannot raise 0 to power {k} in {self!r}")
        e = self._log[a] * k % (self.q - 1)
        return self._exp[e]

    # -- element-level interface --

    def element(self, value: int) -> "FieldElement":
        if not 0 <= value < self.q:
            raise ValueError(f"encoding {value} outside 0..{self.q - 1}")
        return FieldElement(self, value)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def all_elements(self) -> list["FieldElement"]:
        return [FieldElement(self, v) for v in range(self.q)]

    def nonzero_elements(self) -> list["FieldElement"]:
        return [FieldElement(self, v) for v in range(1, self.q)]

    def header(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Field):
            return NotImplemented
        return (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.q})"


def _poly_order_is(
    elem: tuple[int, ...], modulus: Sequence[int], p: int, order: int, radicals: list[int]
) -> bool:
    """True iff elem has multiplicative order exactly `order` mod modulus."""
    if not elem:
        return False
    if order == 1:
        return elem == (1,)
    return all(_poly_pow(elem, order // r, modulus, p) != (1,) for r in radicals)


def _poly_pow(
    base: tuple[int, ...], k: int, modulus: Sequence[int], p: int
) -> tuple[int, ...]:
    result: tuple[int, ...] = (1,)
    while k:
        if k & 1:
            result = _poly_mod(_poly_mul(result, base, p), modulus, p)
        base = _poly_mod(_poly_mul(base, base, p), modulus, p)
        k >>= 1
    return result


def make_field(p: int, m: int = 1, modulus: Optional[Sequence[int]] = None) -> Field:
    """Construct GF(p^m); see Field for the default modulus convention."""
    return Field(p, m, modulus)


@dataclass(frozen=True)
class FieldElement:
    """Immutable element of a Field, identified by its integer encoding."""

    field: Field
    value: int

    def _same(self, other: "FieldElement") -> None:
        if self.field != other.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._same(other)
        return FieldElement(self.field, self.field.add(self.value, other.value))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._same(other)
        return FieldElement(self.field, self.field.sub(self.value, other.value))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, self.field.neg(self.value))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._same(other)
        return FieldElement(self.field, self.field.mul(self.value, other.value))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        self._same(other)
        return FieldElement(self.field, self.field.mul(self.value, self.field.inv(other.value)))

    def __pow__(self, k: int) -> "FieldElement":
        return FieldElement(self.field, self.field.pow(self.value, k))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.value))

    def __bool__(self) -> bool:
        return self.value != 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"GF({self.field.q}):{self.value}"
