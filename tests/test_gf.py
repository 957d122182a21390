import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import DATA_DIR
from oracles import digitwise_add, poly_field_mul
from sparse_duals import gf
from sparse_duals import (
    DivisionByZero,
    Field,
    NotPrime,
    hermitian_field,
)

SMALL_ORDERS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 4)]  # q <= 16
LARGE_ORDERS = [(5, 2), (3, 3), (2, 5), (7, 2), (2, 6), (3, 4), (11, 2), (5, 3), (2, 7), (13, 2), (3, 5), (2, 8)]


def test_gf4_is_the_expected_field():
    F = Field(2, 2)
    assert F.q == 4
    assert F.modulus == (1, 1, 1)  # x^2 + x + 1
    a = 2  # class of x
    assert F.mul(a, a) == 3  # a^2 = a + 1
    assert F.mul(a, 3) == 1
    assert F.inv(a) == 3
    assert F.add(a, a) == 0


def test_gf2_is_xor_and():
    F = Field(2)
    for x in range(2):
        for y in range(2):
            assert F.add(x, y) == x ^ y
            assert F.mul(x, y) == x & y


def test_gf9_generator_has_order_eight():
    F = Field(3, 2)
    assert F.q == 9
    g = F.generator
    assert F.pow(g, 8) == 1
    assert all(F.pow(g, k) != 1 for k in range(1, 8))


def test_element_counts():
    assert [e.value for e in Field(2).all_elements()] == [0, 1]
    assert len(Field(2, 2).all_elements()) == 4
    assert repr(Field(3, 2).element(8)) == "GF(9):8"


def test_not_prime():
    with pytest.raises(NotPrime):
        Field(4)
    with pytest.raises(NotPrime):
        Field(1)


def test_division_by_zero():
    F = Field(2, 2)
    with pytest.raises(DivisionByZero):
        F.inv(0)
    with pytest.raises(DivisionByZero):
        F.pow(0, -1)
    with pytest.raises(DivisionByZero, match="0 has no logarithm in GF\\(4\\)"):
        F.log(0)


@pytest.mark.parametrize("make,message", [
    (lambda: Field(2, 0), "extension degree must be >= 1"),
    (lambda: Field(2, 2).element(4), "encoding 4 outside 0..3"),
], ids=["degree-0", "encoding-4"])
def test_bad_degree_and_encoding(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


def test_same_parameters_are_interoperable():
    F1, F2 = Field(2, 2), Field(2, 2)
    assert F1 == F2 and hash(F1) == hash(F2)
    assert F1.element(2) == F2.element(2)
    assert F1.add(F1.element(2).value, F2.element(3).value) == 1
    assert Field(2, 2) != Field(3, 2)
    assert Field(2, 2).__eq__("GF(4)") is NotImplemented
    assert (Field(2, 2) == "GF(4)") is False


@pytest.mark.parametrize("p,m", SMALL_ORDERS)
def test_field_axioms_exhaustive(p, m):
    F = Field(p, m)
    q = F.q
    values = range(q)
    for a in values:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
        for b in values:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in values:
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_negation_on_every_hermitian_field(q):
    F = hermitian_field(q)
    for a in range(F.q):
        assert F.add(a, F.neg(a)) == 0


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_log_inverts_the_powers_of_the_generator(q):
    F = hermitian_field(q)
    power = 1
    for k in range(F.q - 1):
        assert F.log(power) == k
        power = F.mul(power, F.generator)
    assert power == 1


def _check_add_scaled(F, seed):
    add, mul, elements = F.add_table, F.mul_table, range(F.q)

    def expected(u, c, v):
        return bytes([add[a][mul[c][b]] for a, b in zip(u, v)])

    # every pair (a, b) of entries
    u = bytes([a for a in elements for _ in elements])
    v = bytes([b for _ in elements for b in elements])
    assert F.add_scaled(u, 1, v) == expected(u, 1, v)
    # every pair (c, b) of scale and entry, against shuffled entries of u
    u = bytes(random.Random(seed).sample(elements, F.q))
    v = bytes(elements)
    for c in elements:
        assert F.add_scaled(u, c, v) == expected(u, c, v)
    # every digit p - 1 in both terms: each lane holds its largest sum
    top = bytes([F.q - 1]) * 40
    assert F.add_scaled(top, 1, top) == expected(top, 1, top)
    assert F.add_scaled(b"", F.q - 1, b"") == b""
    for a in elements:
        assert F.add_scaled(bytes([a]), F.generator, bytes([F.q - 1])) == expected(
            [a], F.generator, [F.q - 1]
        )


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_add_scaled_matches_the_tables_on_every_hermitian_field(q):
    _check_add_scaled(hermitian_field(q), q)


# Both sides of the lane limit: a sum of two digits mod 127 fits in a byte,
# mod 131 and 251 it does not, and the sum is looked up per entry.
@pytest.mark.parametrize("p", [127, 131, 251])
def test_add_scaled_on_both_sides_of_the_lane_limit(p):
    _check_add_scaled(Field(p), p)


def _check_mul_bytes(F):
    """`Field.mul_lanes`, u given in lane form, against the multiply table.
    (Before it took u in lane form the kernel was `mul_bytes`, which the
    names of the two tests below keep.)"""
    mul, elements = F.mul_table, range(F.q)

    def expected(u, v):
        return bytes([mul[a][b] for a, b in zip(u, v)]).translate(F.lanes)

    def product(u, v):
        return F.mul_lanes(bytes(u).translate(F.lanes), bytes(v))

    # every pair (a, b) of entries, zeros inside long strings, both orders
    u = bytes([a for a in elements for _ in elements])
    v = bytes([b for _ in elements for b in elements])
    assert product(u, v) == product(v, u) == expected(u, v)
    assert product(b"", b"") == b""
    for a in elements:
        for b in (0, 1, F.generator, F.q - 1):
            assert product([a], [b]) == expected([a], [b])
            assert product([b], [a]) == expected([b], [a])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_mul_bytes_matches_the_tables_on_every_hermitian_field(q):
    _check_mul_bytes(hermitian_field(q))


# Both sides of the lane limit: GF(64) is the largest field whose zero log
# 2Q - 3 sums with itself inside a byte, GF(67) the smallest looked up per
# entry.
@pytest.mark.parametrize("p,m", [(2, 6), (67, 1)])
def test_mul_bytes_on_both_sides_of_the_lane_limit(p, m):
    _check_mul_bytes(Field(p, m))


def _check_lane_kernels(F, seed):
    """The lane round trip, `mul_lanes` and `eliminate` against per-entry
    `add_table` / `mul_table` arithmetic, every vector given to them in
    lane form and read back through `unlanes`."""
    add, mul, inv, elements = F.add_table, F.mul_table, F.inv_table, range(F.q)
    to_lanes = bytes(elements).translate(F.lanes)
    assert to_lanes.translate(F.unlanes) == bytes(elements)
    assert to_lanes[0] == 0 and 0 not in to_lanes[1:] and len(set(to_lanes)) == F.q

    def lanes(u):
        return bytes(u).translate(F.lanes)

    # mul_lanes: every pair (a, b), a in lane form, and the empty string
    u = bytes([a for a in elements for _ in elements])
    v = bytes([b for _ in elements for b in elements])
    product = F.mul_lanes(lanes(u), v)
    assert product.translate(F.unlanes) == bytes(map(F.mul, u, v))
    assert product == lanes(map(F.mul, u, v))
    assert F.mul_lanes(b"", b"") == b""

    def expected(vectors, j, s):
        gs, out = vectors[s], []
        for b, gb in enumerate(vectors):
            if b != s and gb[j]:
                c = mul[gb[j]][F.neg(inv[gs[j]])]  # -g_b[j] / g_s[j]
                gb = [add[x][mul[c][y]] for x, y in zip(gb, gs)]
            out.append(bytes(gb[:j]))
        return out

    # eliminate: random vectors with zero entries, the pivot's own
    # multiples and a vector zero at j; j = 0, inside and at the end
    rng = random.Random(seed)
    length = 2 * F.q + 3
    for trial in range(12):
        vectors = [bytes(rng.choice([0, rng.randrange(F.q)]) for _ in range(length))
                   for _ in range(rng.randint(2, 6))]
        j = (0, length - 1, rng.randrange(length))[trial % 3]
        s = rng.randrange(len(vectors))
        gs = bytearray(vectors[s])
        gs[j] = rng.randrange(1, F.q)
        vectors[s] = bytes(gs)
        vectors.append(gs.translate(mul[rng.randrange(1, F.q)].ljust(256, b"\x00")))  # to 0
        vectors.append(vectors[s])  # the pivot itself, as another vector
        vectors.append(vectors[0][:j] + b"\x00" + vectors[0][j + 1:])  # zero at j
        given = [lanes(gb) for gb in vectors]
        held = list(given)
        got = F.eliminate(given, j, s)
        assert given == held  # a new list, the input left as it was
        assert [gb.translate(F.unlanes) for gb in got] == expected(vectors, j, s), (trial, j, s)
        assert got[s] == given[s][:j]
        assert got[-2] == got[-3] == bytes(j)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_lane_kernels_match_the_tables_on_every_hermitian_field(q):
    _check_lane_kernels(hermitian_field(q), q)


def test_lane_form_is_the_encoding_but_in_gf9_gf25_gf49():
    spread = [q for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
              if hermitian_field(q).lanes[:q * q] != bytes(range(q * q))]
    assert spread == [3, 5, 7]


# Both sides of each fallback of the lane kernels: one digit group (GF(49),
# GF(127)) against two (GF(27), GF(81), GF(121), GF(169)) and against a
# prime whose digit sum needs more than a byte (GF(131)); log lanes
# (GF(64)) against the per-entry product (GF(256)).
@pytest.mark.parametrize("p,m", [(7, 2), (127, 1), (3, 3), (3, 4), (11, 2), (13, 2), (131, 1),
                                 (2, 6), (2, 8)])
def test_lane_kernels_on_both_sides_of_each_fallback(p, m):
    _check_lane_kernels(Field(p, m), p + m)


@pytest.mark.parametrize("q", [2, 3, 5, 16])
def test_add_rows_translate_to_the_add_table(q):
    F = hermitian_field(q)
    for c in range(F.q):
        assert bytes(range(F.q)).translate(F.add_rows[c]) == bytes(F.add_table[c])


@pytest.mark.parametrize("p,m", SMALL_ORDERS)
def test_frobenius_is_additive(p, m):
    F = Field(p, m)
    for a in range(F.q):
        for b in range(F.q):
            assert F.pow(F.add(a, b), p) == F.add(F.pow(a, p), F.pow(b, p))


@pytest.mark.parametrize("p,m", SMALL_ORDERS + LARGE_ORDERS)
def test_multiplicative_order_divides_q_minus_one(p, m):
    F = Field(p, m)
    for a in range(1, F.q):
        assert F.pow(a, F.q - 1) == 1


@pytest.mark.parametrize("p,m", LARGE_ORDERS)
def test_axioms_sampled_on_larger_fields(p, m):
    F = Field(p, m)
    q = F.q
    sample = list(range(0, q, max(1, q // 11))) + [1, q - 1]
    for a in sample:
        for b in sample:
            assert F.mul(a, b) == F.mul(b, a)
            for c in sample[::3]:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@given(st.sampled_from(SMALL_ORDERS + LARGE_ORDERS), st.data())
def test_random_inverse_pairs(order, data):
    p, m = order
    F = Field(p, m)
    a = data.draw(st.integers(min_value=1, max_value=F.q - 1))
    assert F.mul(a, F.inv(a)) == 1
    assert F.pow(a, -1) == F.inv(a)


def test_too_large_field():
    from sparse_duals import FieldTooLarge

    with pytest.raises(FieldTooLarge):
        Field(2, 9)
    with pytest.raises(FieldTooLarge):
        Field(257)


# Default moduli of every field of order <= 256, frozen from the polynomial
# search that picked them before tables came from the multiply-by-x walk.
FROZEN_MODULI = json.loads((DATA_DIR / "gf_moduli.json").read_text())
FROZEN_IDS = [f"GF({f['p']}^{f['m']})" for f in FROZEN_MODULI]


def test_default_moduli_are_frozen():
    assert len(FROZEN_MODULI) == 70
    for frozen in FROZEN_MODULI:
        F = Field(frozen["p"], frozen["m"])
        assert list(F.modulus) == frozen["modulus"], F


def test_byte_kernels_are_built_with_the_field():
    for frozen in FROZEN_MODULI:
        F = Field(frozen["p"], frozen["m"])
        assert {"add_rows", "add_scaled", "lanes", "unlanes", "mul_lanes",
                "eliminate"} <= vars(F).keys(), F


def _checked_pairs(F):
    """Every pair of encodings up to GF(64), 2 000 seeded pairs above."""
    if F.q <= 64:
        return [(a, b) for a in range(F.q) for b in range(F.q)]
    rng = random.Random(F.q)
    return [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(2000)]


@pytest.mark.parametrize("frozen", FROZEN_MODULI, ids=FROZEN_IDS)
def test_mul_table_matches_long_division(frozen):
    F = Field(frozen["p"], frozen["m"])
    for a, b in _checked_pairs(F):
        assert F.mul(a, b) == poly_field_mul(a, b, F.p, frozen["modulus"]), (a, b)


@pytest.mark.parametrize("frozen", FROZEN_MODULI, ids=FROZEN_IDS)
def test_tables_match_the_naive_reference(frozen):
    F = Field(frozen["p"], frozen["m"])
    q = F.q
    for table, width in ((F.add_table, q), (F.mul_table, q), (F.add_rows, 256)):
        assert len(table) == q
        assert {(type(row), len(row)) for row in table} == {(bytes, width)}
    assert {row[q:] for row in F.add_rows} == {bytes(256 - q)}
    for a, b in _checked_pairs(F):
        assert F.add_table[a][b] == F.add_rows[a][b] == digitwise_add(a, b, F.p), (a, b)
    assert len(F.inv_table) == q and F.inv_table[0] is None
    for a in range(1, q):
        assert poly_field_mul(a, F.inv_table[a], F.p, frozen["modulus"]) == 1, a


# Every odd p whose digit sum 2(p - 1) fits in a byte has lane tables.
LANE_FIELDS = [f for f in FROZEN_MODULI if f["p"] % 2 and 2 * f["p"] - 2 < 256]


@pytest.mark.parametrize("frozen", LANE_FIELDS, ids=[f"GF({f['p']}^{f['m']})" for f in LANE_FIELDS])
def test_lane_tables_match_the_per_entry_construction(frozen):
    # One sum per table entry: spread[v] puts the group's base-p digits of
    # v in lanes of `width` bits, reduce[t] takes each lane of t mod p.
    p, m = frozen["p"], frozen["m"]
    q, width = p**m, (2 * p - 2).bit_length()
    per_group, mask = 8 // width, (1 << width) - 1
    expected = []
    for first in range(0, m, per_group):
        digits = [(p**d, width * (d - first)) for d in range(first, min(first + per_group, m))]
        spread = bytes(sum(v // w % p << s for w, s in digits) for v in range(q))
        reduce = bytes(sum((t >> s & mask) % p * w for w, s in digits) for t in range(256))
        expected.append((spread + bytes(256 - q), reduce))
    assert gf._lane_tables(p, m) == expected


def _order_of_x(p, modulus, q):
    """Multiplicative order of x modulo `modulus`, or None if x^k never
    returns to 1 within q - 1 steps."""
    v = 1
    for k in range(1, q):
        v = poly_field_mul(v, p, p, modulus)  # p encodes the polynomial x
        if v == 1:
            return k
    return None


@pytest.mark.parametrize("frozen", FROZEN_MODULI, ids=FROZEN_IDS)
def test_frozen_modulus_is_first_with_primitive_x(frozen):
    p, m, modulus = frozen["p"], frozen["m"], frozen["modulus"]
    q = p**m
    assert _order_of_x(p, modulus, q) == q - 1
    low = sum(c * p**i for i, c in enumerate(modulus[:m]))
    for smaller in range(low):
        candidate = [smaller // p**i % p for i in range(m)] + [1]
        assert _order_of_x(p, candidate, q) != q - 1, candidate
