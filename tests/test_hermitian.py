import gc
import random
import re
import tracemalloc
import weakref
from dataclasses import replace
from itertools import combinations

import pytest

from oracles import (
    generator_rows,
    is_division_closed,
    literal_isometry_check,
    complement_wstar,
    naive_curve_coords,
    naive_isometry_vector,
    naive_wstar,
    naive_wstar_q2,
    secant_lines,
)
from sparse_duals import hermitian
from sparse_duals import (
    CurvePoint,
    DuplicatePoints,
    Field,
    FieldElement,
    FieldTooLarge,
    NumericalSemigroup,
    PointNotOnCurve,
    compute_wstar,
    compute_wstar_family,
    curve_genus,
    find_isometry_vectors,
    hermitian_field,
    hermitian_points,
    isometry_dual_criterion,
    isometry_sequence,
    monomial_basis,
    qualifying_subsets,
    weierstrass_semigroup,
)
from sparse_duals.sparse_ideals import division_escape

Q2_EXPECTED_COORDS = [(0, 0), (2, 2), (3, 2), (1, 2), (2, 3), (3, 3), (1, 3), (0, 1)]


def test_weierstrass_semigroups():
    W2 = weierstrass_semigroup(2)
    assert W2 == NumericalSemigroup([2, 3])
    assert W2.genus == 1
    assert weierstrass_semigroup(3).genus == 3
    assert weierstrass_semigroup(4).genus == 6
    with pytest.raises(ValueError):
        weierstrass_semigroup(1)


def test_q2_points_frozen_order(q2_points):
    assert [p.coords() for p in q2_points] == Q2_EXPECTED_COORDS
    assert len(q2_points) == 8


def test_points_satisfy_curve_equation():
    for q in (2, 3, 4):
        field = hermitian_field(q)
        pts = hermitian_points(q)
        assert len(pts) == q**3
        assert len({p.coords() for p in pts}) == q**3
        for p in pts:
            assert field.pow(p.x.value, q + 1) == field.add(field.pow(p.y.value, q), p.y.value)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_points_match_exhaustive_scan(q):
    coords = [p.coords() for p in hermitian_points(q)]
    scan = naive_curve_coords(q)
    assert hermitian.hermitian_coords(q) == coords
    assert sorted(coords) == scan
    assert coords == (Q2_EXPECTED_COORDS if q == 2 else scan)


def test_field_too_large():
    with pytest.raises(FieldTooLarge):
        hermitian_points(17)
    with pytest.raises(ValueError):
        hermitian_points(6)  # not a prime power
    assert hermitian_field(16).q == 256  # boundary case still fits


def test_one_field_per_q_while_referenced(monkeypatch):
    fresh = weakref.WeakValueDictionary()
    monkeypatch.setattr(hermitian, "_FIELDS", fresh, raising=False)
    field = hermitian_field(5)
    assert hermitian_field(5) is field
    assert hermitian_points(5)[0].x.field is field
    ref = weakref.ref(field)
    del field
    gc.collect()
    assert ref() is None  # the cache alone does not keep a field alive
    rebuilt = hermitian_field(5)
    assert rebuilt == Field(5, 2)
    assert hermitian_field(5) is rebuilt


def test_points_of_a_separately_built_field_are_accepted():
    points = hermitian_points(3)[:10]
    other = Field(3, 2)
    assert other is not points[0].x.field
    moved = [CurvePoint(other.element(p.x.value), other.element(p.y.value)) for p in points]
    cs = compute_wstar(moved, 3)
    assert cs.wstar == compute_wstar(points, 3).wstar
    wrong = Field(3, 4)  # GF(81), not GF(9)
    with pytest.raises(ValueError, match="does not live in"):
        compute_wstar([CurvePoint(wrong.element(0), wrong.element(0))], 3)


@pytest.mark.parametrize("q", [2, 3, 4, 16])
def test_points_share_their_elements(q):
    points = hermitian_points(q)
    assert len({id(e) for p in points for e in (p.x, p.y)}) <= q * q


def test_monomial_basis_q2():
    basis = monomial_basis(2, 9)
    assert basis == [
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (3, 0), (2, 1), (4, 0), (3, 1),
    ]
    assert [2 * a + 3 * b for a, b in basis] == [0, 2, 3, 4, 5, 6, 7, 8, 9]


def test_monomial_basis_small_counts():
    assert monomial_basis(5, 1) == [(0, 0)]
    assert [3 * a + 4 * b for a, b in monomial_basis(3, 6)] == [0, 3, 4, 6, 7, 8]
    with pytest.raises(ValueError):
        monomial_basis(2, 0)
    with pytest.raises(ValueError, match="not a prime power"):
        monomial_basis(6, 3)
    with pytest.raises(ValueError, match="^q must be >= 2, got 1$"):
        monomial_basis(1, 1)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_basis_pole_orders_strictly_increase(q):
    basis = monomial_basis(q, 40)
    orders = [a * q + b * (q + 1) for a, b in basis]
    assert all(a < b for a, b in zip(orders, orders[1:]))
    assert all(a >= 0 and 0 <= b <= q - 1 for a, b in basis)
    W = weierstrass_semigroup(q)
    assert all(W.contains(m) for m in orders)


def test_wstar_frozen_values(q2_sequences):
    assert q2_sequences[tuple(range(1, 9))].wstar == (0, 2, 3, 4, 5, 6, 7, 9)
    assert q2_sequences[(1, 8)].wstar == (0, 3)
    assert q2_sequences[(1,)].wstar == (0,)
    assert q2_sequences[(1, 2, 6)].wstar == (0, 2, 4)


def test_wstar_matches_independent_elimination(q2_points, q2_sequences):
    for combo, cs in q2_sequences.items():
        coords = [q2_points[i - 1].coords() for i in combo]
        assert list(cs.wstar) == naive_wstar_q2(coords)


def _x_fibres(points):
    """The x-fibres of a point list (q points over each x value), by x."""
    fibres: dict[int, list] = {}
    for p in points:
        fibres.setdefault(p.x.value, []).append(p)
    return fibres


def _fibre_union_wstar(q, n):
    """The first n elements of H \\ (n + H), H = <q, q+1>."""
    H = weierstrass_semigroup(q)
    out, m = [], 0
    while len(out) < n:
        if H.contains(m) and not (m >= n and H.contains(m - n)):
            out.append(m)
        m += 1
    return tuple(out)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_wstar_matches_naive_elimination_sampled(q):
    pts = hermitian_points(q)
    fibres = _x_fibres(pts)
    max_n = min(len(pts), 150 if q <= 8 else 30)  # keeps the O(n^3) reference fast
    rng = random.Random(100 + q)
    inputs = [rng.sample(pts, rng.randint(1, min(len(pts), max_n))) for _ in range(12)]
    for _ in range(4):
        chosen = rng.sample(sorted(fibres), rng.randint(1, min(q * q, max_n // q)))
        inputs.append([p for x in chosen for p in fibres[x]])
    for chosen in inputs:
        cs = compute_wstar(chosen, q)
        assert cs.wstar == naive_wstar(chosen, q)[0]


@pytest.mark.parametrize("q,walks", [(2, 8), (3, 4), (4, 2)])
def test_adding_a_point_adds_one_wstar_element(q, walks):
    pts = hermitian_points(q)
    rng = random.Random(200 + q)
    for _ in range(walks):
        walk = rng.sample(pts, len(pts))
        prev: set[int] = set()
        for k in range(1, len(walk) + 1):
            cur = set(compute_wstar(walk[:k], q).wstar)
            assert prev < cur and len(cur - prev) == 1
            prev = cur


def _check_fibre_union(q, chosen_points):
    cs = compute_wstar(chosen_points, q)
    assert cs.wstar == _fibre_union_wstar(q, cs.n)
    assert isometry_dual_criterion(cs.wstar, cs.q)


def test_x_fibre_unions_closed_form_q2():
    fibres = _x_fibres(hermitian_points(2))
    unions = [c for k in range(1, 5) for c in combinations(sorted(fibres), k)]
    assert len(unions) == 15
    for chosen in unions:
        _check_fibre_union(2, [p for x in chosen for p in fibres[x]])


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_x_fibre_unions_closed_form_sampled(q):
    # Whole fibres take no point step: the closed form follows from the
    # shift by q per fibre. The column walk, which has no such shortcut,
    # checks it on the smaller unions.
    fibres = _x_fibres(hermitian_points(q))
    rng = random.Random(300 + q)
    for k in range(1, min(q * q, 250 // q) + 1):  # up to about 250 points
        chosen = [p for x in rng.sample(sorted(fibres), k) for p in fibres[x]]
        _check_fibre_union(q, chosen)
        if k <= 4:
            assert isometry_sequence(chosen, q)[0].wstar == _fibre_union_wstar(q, k * q)


@pytest.mark.parametrize("q", [7, 8])
def test_full_set_closed_form(q):
    _check_fibre_union(q, hermitian_points(q))


def _complement_wstar(q, wstar):
    """{L - h : h in H \\ W*, L - h in H}, L = q^3 + 2g - 1: W* of the
    complement of a point set with rank-jump set `wstar`."""
    H = weierstrass_semigroup(q)
    L = q**3 + 2 * curve_genus(q) - 1
    return tuple(
        L - h for h in range(L, -1, -1)
        if H.contains(h) and H.contains(L - h) and h not in wstar
    )


def test_complement_duality_q2(q2_sequences):
    for combo, cs in q2_sequences.items():
        if len(combo) < 8:
            rest = tuple(i for i in range(1, 9) if i not in combo)
            assert q2_sequences[rest].wstar == _complement_wstar(2, cs.wstar)


@pytest.mark.parametrize("q,draws", [(3, 20), (4, 12), (5, 8), (7, 4), (8, 3), (9, 3), (16, 1)])
def test_complement_duality_sampled(q, draws):
    # The complement holds more than half the points: long vectors on every
    # byte layout, checked without the O(n^3) reference.
    pts = hermitian_points(q)
    rng = random.Random(400 + q)
    for _ in range(draws):
        chosen = set(rng.sample(range(len(pts)), rng.randint(1, (len(pts) - 1) // 2)))
        small = compute_wstar([pts[i] for i in sorted(chosen)], q)
        large = compute_wstar([p for i, p in enumerate(pts) if i not in chosen], q)
        assert large.wstar == _complement_wstar(q, small.wstar)


def test_full_q9_set_runs_in_little_memory():
    # All 729 points are 81 whole x-fibres and take no point step. Less the
    # first point over each x, no fibre is whole, and the walk over the 648
    # points left needs q vectors of n bytes, without the n x n generator
    # rows, which alone would take several MB.
    pts = hermitian_points(9)
    firsts = {p.x.value: p for p in reversed(pts)}.values()
    punctured = [p for p in pts if p not in firsts]
    tracemalloc.start()
    try:
        assert isometry_dual_criterion(compute_wstar(pts, 9).wstar, 9)
        assert len(compute_wstar(punctured, 9).wstar) == 648
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_wstar_structure(q2_sequences):
    W = weierstrass_semigroup(2)
    for combo, cs in q2_sequences.items():
        n = len(combo)
        assert len(cs.wstar) == n
        assert cs.wstar[0] == 0
        assert max(cs.wstar) <= n + 2 * cs.genus - 1
        assert all(W.contains(m) for m in cs.wstar)
        assert (max(cs.wstar) == n + 2 * cs.genus - 1) == isometry_dual_criterion(cs.wstar, cs.q)
        assert len(generator_rows(cs)) == n


def test_wstar_monotone_under_puncturing(q2_sequences):
    rng = random.Random(7)
    combos = list(q2_sequences)
    for _ in range(300):
        sup = rng.choice(combos)
        if len(sup) == 1:
            continue
        k = rng.randint(1, len(sup) - 1)
        sub = tuple(sorted(rng.sample(sup, k)))
        assert set(q2_sequences[sub].wstar) <= set(q2_sequences[sup].wstar)


def test_compute_wstar_errors(q2_points):
    with pytest.raises(ValueError):
        compute_wstar([], 2)
    with pytest.raises(DuplicatePoints):
        compute_wstar([q2_points[0], q2_points[0]], 2)
    field = hermitian_field(2)
    off = CurvePoint(field.element(1), field.element(1))  # 1 != 1^2 + 1
    with pytest.raises(PointNotOnCurve):
        compute_wstar([off], 2)


# -- W* of a subset family in one walk --


def _prefix_sharing_family(q, rng, count, max_size):
    """Seeded subsets of the q^3 points, each the top points of one of
    three random stems with random lower points added: the walk adds the
    top points first, so the subsets share long paths, and one may end
    where another goes on."""
    n = q**3
    stems = [sorted(rng.sample(range(1, n + 1), rng.randint(1, max_size))) for _ in range(3)]
    family = []
    for _ in range(count):
        stem = rng.choice(stems)
        top = stem[rng.randrange(len(stem)):]
        below = range(1, top[0])
        extra = rng.sample(below, min(len(below), rng.randint(0, max_size - len(top))))
        family.append(tuple(sorted(top + extra)))
    return family


def _check_family_against_naive(points, q, family):
    for subset, wstar in zip(family, compute_wstar_family(points, q, family), strict=True):
        assert wstar == naive_wstar([points[i - 1] for i in subset], q)[0]


def test_family_matches_naive_elimination_on_every_q2_subset(q2_points):
    family = [c for k in range(1, 9) for c in combinations(range(1, 9), k)]
    assert len(family) == 255
    _check_family_against_naive(q2_points, 2, family)


@pytest.mark.parametrize("q,count,max_size", [(3, 150, 27), (4, 80, 40), (5, 40, 40), (7, 16, 40)])
def test_family_matches_naive_elimination_sampled(q, count, max_size):
    family = _prefix_sharing_family(q, random.Random(500 + q), count, max_size)
    _check_family_against_naive(hermitian_points(q), q, family)


def test_family_shares_the_steps_of_common_top_points(monkeypatch, q2_points):
    # Each point step is one `Field.eliminate` call, so the calls count the
    # work: once their whole x-fibres are taken out, the 93 subsets
    # `verify --q 2` checks make 64 point steps in one walk and 176 one by
    # one (162 and 512 with the fibres).
    field = hermitian_field(2)
    eliminate, steps = field.eliminate, []

    def counting(vectors, j, s):
        steps.append(j)
        return eliminate(vectors, j, s)

    monkeypatch.setattr(field, "eliminate", counting)
    family = [c for k in range(8, 4, -1) for c in combinations(range(1, 9), k)]
    compute_wstar_family(q2_points, 2, family)
    walk = len(steps)
    steps.clear()
    for subset in family:
        compute_wstar([q2_points[i - 1] for i in subset], 2)
    assert (walk, len(steps)) == (64, 176)


# -- whole x-fibres: W* moves up by q per fibre, without a point step --


def _check_wstar_three_ways(points, q, subsets):
    """W* of each subset by `compute_wstar_family` and `compute_wstar`
    against naive elimination and the column walk of `isometry_sequence`."""
    for subset, wstar in zip(subsets, compute_wstar_family(points, q, subsets), strict=True):
        chosen = [points[i - 1] for i in subset]
        assert wstar == compute_wstar(chosen, q).wstar, subset
        assert wstar == naive_wstar(chosen, q)[0], subset
        assert wstar == isometry_sequence(chosen, q)[0].wstar, subset


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_full_sets_less_a_few_points_three_ways(q):
    # The set holds all but a few of its fibres whole; each puncture
    # leaves q - 1 points over its x for the walk.
    points = hermitian_points(q)
    rng = random.Random(900 + q)
    subsets = []
    for k in (1, 2, 3, q):
        out = set(rng.sample(range(1, len(points) + 1), k))
        subsets.append([i for i in range(1, len(points) + 1) if i not in out])
    _check_wstar_three_ways(points, q, subsets)


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_fibre_unions_with_extra_points_three_ways(q):
    points = hermitian_points(q)
    index = {p.coords(): i for i, p in enumerate(points, 1)}
    fibres = _x_fibres(points)
    rng = random.Random(950 + q)
    subsets = []
    for _ in range(6):
        chosen = rng.sample(sorted(fibres), rng.randint(1, min(q * q - 1, 90 // q)))
        others = [p for x in fibres if x not in chosen for p in fibres[x]]
        extra = rng.sample(others, rng.randint(1, q + 2))
        subsets.append(sorted(index[p.coords()] for p in extra + [
            p for x in chosen for p in fibres[x]]))
    _check_wstar_three_ways(points, q, subsets)


def test_every_q2_subset_three_ways(q2_points):
    # In the frozen order, the two points over each x are not adjacent.
    positions = {x: [i for i, p in enumerate(q2_points, 1) if p.x.value == x] for x in range(4)}
    assert sorted(positions.values()) == [[1, 8], [2, 5], [3, 6], [4, 7]]
    family = [c for k in range(1, 9) for c in combinations(range(1, 9), k)]
    _check_wstar_three_ways(q2_points, 2, family)


@pytest.mark.parametrize("q", [2, 3, 4, 8])
def test_fibre_unions_make_no_point_step(monkeypatch, q):
    field = hermitian_field(q)
    calls = []
    for name in ("eliminate", "mul_lanes"):
        kernel = getattr(field, name)
        monkeypatch.setattr(field, name,
                            lambda *args, kernel=kernel: calls.append(args) or kernel(*args))
    points = hermitian_points(q)
    fibres = _x_fibres(points)
    index = {p.coords(): i for i, p in enumerate(points, 1)}
    rng = random.Random(970 + q)
    unions = [sorted(index[p.coords()] for x in rng.sample(sorted(fibres), k) for p in fibres[x])
              for k in (1, 2, q * q // 2, q * q)]
    wstars = compute_wstar_family(points, q, unions)
    for union, wstar in zip(unions, wstars):
        assert compute_wstar([points[i - 1] for i in union], q).wstar == wstar
        assert wstar == _fibre_union_wstar(q, len(union))
    assert calls == []
    # One more point is walked, and the counters see it.
    extra = next(i for i in range(1, len(points) + 1) if i not in unions[0])
    compute_wstar([points[i - 1] for i in sorted(unions[0] + [extra])], q)
    assert calls


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
def test_complement_law_in_all_points_and_in_fibre_unions(q):
    # Z is all q^3 points or a union of whole x-fibres, and P a seeded
    # part of it; the oracle reads each of W*(P) and W*(Z \ P) off the
    # other by Riemann-Roch duality, without walking a point.
    points = hermitian_points(q)
    fibres = _x_fibres(points)
    index = {p.coords(): i for i, p in enumerate(points, 1)}
    rng = random.Random(1100 + q)
    for draw in range(20):
        if draw % 2:
            zone = list(range(1, len(points) + 1))
        else:
            chosen = rng.sample(sorted(fibres), rng.randint(1, q * q))
            zone = sorted(index[p.coords()] for x in chosen for p in fibres[x])
        part = set(rng.sample(zone, rng.randint(1, len(zone) - 1)))
        rest = [i for i in zone if i not in part]
        w_part, w_rest = compute_wstar_family(points, q, [sorted(part), rest])
        assert complement_wstar(w_part, q, len(zone)) == w_rest, (q, draw)
        assert complement_wstar(w_rest, q, len(zone)) == w_part, (q, draw)


def _shifted_complement(q, wstar, shift, bound):
    """{h + shift : h in H \\ W*} up to bound, H = <q, q+1>."""
    H = weierstrass_semigroup(q)
    return {h + shift for h in range(bound - shift + 1) if H.contains(h) and h not in wstar}


@pytest.mark.parametrize("q,draws", [(3, 12), (4, 10), (5, 8), (7, 6), (8, 6)])
def test_secant_lines_shift_the_complement_by_q_plus_one(q, draws):
    # y - ax - b vanishes exactly on the q + 1 points of a secant line, all
    # with distinct x, and has pole order q + 1 at infinity: a function
    # vanishes on P and the line iff it is (y - ax - b) f with f vanishing
    # on P, so H \ W*(P + L) = (q + 1) + (H \ W*(P)). The line holds no
    # whole x-fibre, so its points are walked.
    lines = secant_lines(q)
    assert len(lines) == q**4 - q**3
    assert all(len({x for x, _ in line}) == q + 1 for line in lines)
    points = hermitian_points(q)
    index = {p.coords(): i for i, p in enumerate(points, 1)}
    g, rng = curve_genus(q), random.Random(990 + q)
    for _ in range(draws):
        line = {index[pt] for pt in rng.choice(lines)}
        rest = [i for i in range(1, len(points) + 1) if i not in line]
        base = sorted(rng.sample(rest, rng.randint(1, min(len(rest), 60))))
        small, large = compute_wstar_family(points, q, [base, sorted(line.union(base))])
        bound = len(base) + 2 * g + q + 1
        assert (_shifted_complement(q, large, 0, bound)
                == _shifted_complement(q, small, q + 1, bound)), base


def test_family_in_any_order_with_a_repeat_equals_compute_wstar():
    points = hermitian_points(3)
    rng = random.Random(77)
    family = _prefix_sharing_family(3, rng, 30, 20)
    family += [family[3]]
    rng.shuffle(family)
    for subset, wstar in zip(family, compute_wstar_family(points, 3, family), strict=True):
        assert wstar == compute_wstar([points[i - 1] for i in subset], 3).wstar


def test_empty_family_and_one_full_range(q2_points):
    assert compute_wstar_family(q2_points, 2, []) == []
    assert find_isometry_vectors(q2_points, 2, []) == []
    assert compute_wstar_family(q2_points, 2, [range(1, 9)]) == [compute_wstar(q2_points, 2).wstar]
    with pytest.raises(ValueError, match="at least one evaluation point"):
        compute_wstar_family([], 2, [])


def test_family_point_errors_match_compute_wstar(q2_points):
    field = hermitian_field(2)
    off = CurvePoint(field.element(1), field.element(1))  # 1 != 1^2 + 1
    foreign = hermitian_points(3)[1]
    for points, error in (([], ValueError), ([*q2_points[:3], off], PointNotOnCurve),
                          ([*q2_points[:3], q2_points[1]], DuplicatePoints),
                          ([*q2_points[:3], foreign], ValueError)):
        with pytest.raises(error) as single:
            compute_wstar(points, 2)
        for family in (compute_wstar_family, find_isometry_vectors, hermitian.wstar_and_vectors):
            with pytest.raises(error, match=re.escape(str(single.value))):
                family(points, 2, [(1,)])


def test_the_first_faulty_point_in_input_order_is_named(q2_points):
    # An off-curve point and a point of another field, in both orders: the
    # error is that of whichever comes first.
    field = hermitian_field(2)
    off = CurvePoint(field.element(1), field.element(1))  # 1 != 1^2 + 1
    foreign = hermitian_points(3)[1]
    for points, error, message in (
        ([q2_points[0], off, q2_points[2], foreign], PointNotOnCurve,
         "CurvePoint(1, 1) violates x^3 = y^2 + y"),
        ([q2_points[0], foreign, q2_points[2], off], ValueError,
         f"point {foreign!r} does not live in GF(4)"),
    ):
        for call in (compute_wstar, isometry_sequence):
            with pytest.raises(error) as raised:
                call(points, 2)
            assert str(raised.value) == message


def test_encodings_past_the_field_are_not_on_the_curve():
    # Only a FieldElement built directly, not by Field.element, holds one.
    field = hermitian_field(3)
    for x, y in ((9, 0), (0, 9), (200, 254), (255, 255)):
        point = CurvePoint(FieldElement(field, x), FieldElement(field, y))
        with pytest.raises(PointNotOnCurve):
            compute_wstar([point], 3)


@pytest.mark.parametrize("q,n", [(3, 27), (8, 300), (16, 600)])
def test_one_altered_y_in_a_large_set_is_named(q, n):
    points = random.Random(q).sample(hermitian_points(q), n)
    field = points[0].x.field
    k = n * 2 // 3
    x = points[k].x.value
    y = next(v for v in range(field.q)
             if field.pow(x, q + 1) != field.add(field.pow(v, q), v))
    points[k] = CurvePoint(points[k].x, field.element(y))
    points.append(points[0])  # a duplicate as well, reported after the curve
    with pytest.raises(PointNotOnCurve) as raised:
        compute_wstar(points, q)
    assert str(raised.value) == f"CurvePoint({x}, {y}) violates x^{q + 1} = y^{q} + y"


@pytest.mark.parametrize("subset,message", [
    ((0, 1, 2), "point index 0 outside 1..8"),
    ((-1, 2), "point index -1 outside 1..8"),
    ((1, 2, 9), "point index 9 outside 1..8"),
    ((3, 9, 1), "point index 9 outside 1..8"),
    ((), "a subset needs at least one point index"),
    ((2, 1), "subset (2, 1) is not strictly increasing"),
    ((1, 1, 2), "subset (1, 1, 2) is not strictly increasing"),
], ids=["zero", "negative", "above", "above-unordered", "empty", "descending", "repeated"])
def test_family_rejects_bad_subsets(q2_points, subset, message):
    for family in (compute_wstar_family, find_isometry_vectors, hermitian.wstar_and_vectors):
        with pytest.raises(ValueError, match=re.escape(message)):
            family(q2_points, 2, [(1, 2), subset])


def test_full_q9_family_runs_in_little_memory():
    # The two smaller sets lack only points the walk adds last, so all
    # three share one path down to them and part near its end.
    pts = hermitian_points(9)
    n = len(pts)
    family = [range(1, n + 1), range(2, n + 1), (1, *range(4, n + 1))]
    tracemalloc.start()
    try:
        full, *rest = compute_wstar_family(pts, 9, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isometry_dual_criterion(full, 9)
    assert list(map(len, rest)) == [n - 1, n - 2]
    assert peak < 2_000_000


def test_criterion_examples(q2_sequences):
    assert isometry_dual_criterion(q2_sequences[tuple(range(1, 9))].wstar, 2)
    for combo in combinations(range(1, 9), 7):
        assert not isometry_dual_criterion(q2_sequences[combo].wstar, 2)
    assert isometry_dual_criterion(q2_sequences[(1, 2, 6)].wstar, 2)


def _vector(cs):
    """The isometry vector of the sequence, from `isometry_sequence`."""
    return isometry_sequence(cs.points, cs.q)[1]


def test_isometry_vector_full_set(q2_sequences):
    cs = q2_sequences[tuple(range(1, 9))]
    assert _vector(cs) == (1,) * 8


def test_isometry_vector_absent_for_seven_points(q2_sequences):
    assert _vector(q2_sequences[tuple(range(1, 8))]) is None


@pytest.mark.parametrize(
    "combo,expected",
    [
        ((1, 2, 6), (1, 3, 2)),
        ((1, 2, 3, 4, 8), (1, 2, 2, 2, 3)),
        ((1, 2, 3, 5, 6, 8), (1, 3, 2, 3, 2, 1)),
        (tuple(range(1, 9)), (1,) * 8),
    ],
)
def test_isometry_vectors_literally_verified(q2_sequences, combo, expected):
    cs = q2_sequences[combo]
    vec = _vector(cs)
    assert vec == expected
    assert all(v != 0 for v in vec)
    assert literal_isometry_check(cs, vec)


def test_single_point_sequence_is_trivially_dual(q2_sequences):
    # n = 1: the only code chain is {0} < F, which is its own dual chain.
    vec = _vector(q2_sequences[(1,)])
    assert vec is not None and len(vec) == 1
    assert literal_isometry_check(q2_sequences[(1,)], (1,))


def test_every_q2_isometry_vector_literally_verified(q2_sequences):
    found = 0
    for cs in q2_sequences.values():
        vec = _vector(cs)
        if vec is not None:
            found += 1
            assert literal_isometry_check(cs, vec)
    assert found == 87


@pytest.mark.parametrize("q,per_size", [(3, 6), (4, 3)])
def test_criterion_matches_oracle_above_boundary_sampled(q, per_size):
    pts = hermitian_points(q)
    rng = random.Random(q)
    boundary = 2 * curve_genus(q) + 2
    for n in range(boundary + 1, len(pts) + 1):
        for _ in range(per_size):
            cs = compute_wstar(rng.sample(pts, n), q)
            assert isometry_dual_criterion(cs.wstar, cs.q) == (_vector(cs) is not None)


@pytest.mark.parametrize("q", [3, 4])
def test_x_fibre_unions_get_a_vector_sampled(q):
    fibres = _x_fibres(hermitian_points(q))
    rng = random.Random(q)
    for k in range(1, q * q + 1):
        for _ in range(5):
            chosen = rng.sample(sorted(fibres), k)
            cs = compute_wstar([p for x in chosen for p in fibres[x]], q)
            assert _vector(cs) is not None


# -- isometry vectors of a subset family in one column walk --


def test_isometry_family_matches_naive_solve_on_every_q2_subset(q2_points, q2_sequences):
    family = [c for k in range(1, 9) for c in combinations(range(1, 9), k)]
    assert len(family) == 255
    vectors = find_isometry_vectors(q2_points, 2, family)
    for subset, vector in zip(family, vectors, strict=True):
        cs = q2_sequences[subset]
        assert vector == _vector(cs) == naive_isometry_vector(cs), subset
    assert sum(v is not None for v in vectors) == 87


def _vector_family(q, rng):
    """Seeded subsets of the q^3 points, on both sides of the boundary
    2g + 2 up to q = 5 and of at most 30 points above (which keeps the
    naive solve fast): prefix-sharing random draws, which rarely have a
    vector, x-fibre unions and, at q = 3, qualifying sets, which have one;
    one subset repeated and the whole in shuffled order."""
    points = hermitian_points(q)
    max_size = q**3 if q <= 5 else 30
    family = _prefix_sharing_family(q, rng, 20, max_size)
    index = {p.coords(): i for i, p in enumerate(points, 1)}
    fibres = _x_fibres(points)
    for _ in range(8):
        chosen = rng.sample(sorted(fibres), rng.randint(1, max_size // q))
        family.append(tuple(sorted(index[p.coords()] for x in chosen for p in fibres[x])))
    if q == 3:
        family += rng.sample(qualifying_subsets(3), 20)
    family.append(family[5])
    rng.shuffle(family)
    return points, family


# GF(49) is a field whose lane form is not the encoding, and GF(81) one
# whose digits split into two groups.
@pytest.mark.parametrize("q", [3, 4, 5, 7, 9])
def test_isometry_family_matches_naive_solve_sampled(q):
    points, family = _vector_family(q, random.Random(700 + q))
    boundary = 2 * curve_genus(q) + 2
    vectors = find_isometry_vectors(points, q, family)
    for subset, vector in zip(family, vectors, strict=True):
        cs = compute_wstar([points[i - 1] for i in subset], q)
        assert vector == _vector(cs) == naive_isometry_vector(cs), subset
    if q <= 5:
        assert {len(s) <= boundary for s in family} == {True, False}
        found = [len(s) for s, v in zip(family, vectors) if v is not None]
        assert min(found) <= boundary < max(found)


def test_isometry_walk_pivots_are_wstar(monkeypatch):
    # The column walk finds the rank jumps itself, as the pivots of its
    # stored columns (indices into the monomials in pole order).
    pivots = {}
    walk = hermitian._trie_walk

    def recording(order, root, advance, finish):
        def reading(key, state):
            if isinstance(state, dict):
                pivots[key[::-1]] = sorted(state)
            return finish(key, state)

        return walk(order, root, advance, reading)

    monkeypatch.setattr(hermitian, "_trie_walk", recording)
    for q in (3, 4, 5):
        points, family = _vector_family(q, random.Random(700 + q))
        find_isometry_vectors(points, q, family)
        poles = [m for m in range(2 * q**3 + q**2) if m // q >= m % q]
        for subset in family:
            wstar = compute_wstar([points[i - 1] for i in subset], q).wstar
            assert tuple(poles[k] for k in pivots[subset]) == wstar, subset


@pytest.mark.parametrize("q", [2, 3, 4])
def test_one_walk_with_both_states_equals_each_walk(q):
    # The walk `verify` runs advances the Groebner and the column state
    # together and answers as the two family walks do apart.
    points, family = _vector_family(q, random.Random(800 + q))
    wstars = compute_wstar_family(points, q, family)
    vectors = find_isometry_vectors(points, q, family)
    assert hermitian.wstar_and_vectors(points, q, family) == [
        (w, (w, v)) for w, v in zip(wstars, vectors, strict=True)]


# -- W* and the isometry vector of one point set from one column walk --


def _check_one_walk(points, q, naive=True):
    """`isometry_sequence` equals `compute_wstar` and `find_isometry_vectors`
    of the one full subset (and the from-scratch solve, unless `naive` is
    False); returns the vector."""
    cs, vector = isometry_sequence(points, q)
    expected = compute_wstar(points, q)
    assert cs == expected
    assert [vector] == find_isometry_vectors(points, q, [range(1, len(points) + 1)])
    if naive:
        assert vector == naive_isometry_vector(expected)
    return vector


def test_one_walk_equals_two_walks_on_every_q2_subset(q2_points):
    rng = random.Random(16)
    found = 0
    for k in range(1, 9):
        for combo in combinations(range(1, 9), k):
            shuffled = list(combo)
            rng.shuffle(shuffled)
            for order in (combo, shuffled):
                vector = _check_one_walk([q2_points[i - 1] for i in order], 2)
                found += vector is not None
    assert found == 2 * 87


@pytest.mark.parametrize("q,max_n", [(3, 27), (4, 64), (5, 60), (7, 60), (8, 120)])
def test_one_walk_equals_two_walks_sampled(q, max_n):
    # Random sets, which rarely have a vector, and x-fibre unions, which
    # have one with n + 2g - 1 the top of W*; both in shuffled order.
    points = hermitian_points(q)
    fibres = _x_fibres(points)
    rng = random.Random(1600 + q)
    inputs = [rng.sample(points, rng.randint(1, max_n)) for _ in range(8)]
    for _ in range(6):
        chosen = rng.sample(sorted(fibres), rng.randint(1, max_n // q))
        union = [p for x in chosen for p in fibres[x]]
        rng.shuffle(union)
        inputs.append(union)
    found = [_check_one_walk(chosen, q, naive=len(chosen) <= 64) is not None
             for chosen in inputs]
    assert found[8:] == [True] * 6


def test_one_walk_checks_points_as_compute_wstar_does(q2_points):
    with pytest.raises(ValueError, match="at least one evaluation point"):
        isometry_sequence([], 2)
    with pytest.raises(DuplicatePoints):
        isometry_sequence([q2_points[0], q2_points[3], q2_points[0]], 2)
    off = CurvePoint(q2_points[1].x, q2_points[0].y)
    with pytest.raises(PointNotOnCurve):
        isometry_sequence([q2_points[0], off], 2)


@pytest.mark.parametrize("q,n,fibres", [(5, 60, False), (5, 60, True), (8, 200, True)])
def test_isometry_vector_matches_naive_solve_on_large_sets(q, n, fibres):
    points = hermitian_points(q)
    rng = random.Random(q * n)
    if fibres:  # n / q whole x-fibres: a vector exists
        by_x = _x_fibres(points)
        chosen = [p for x in rng.sample(sorted(by_x), n // q) for p in by_x[x]]
    else:
        chosen = rng.sample(points, n)
    cs = compute_wstar(chosen, q)
    vector = _vector(cs)
    assert vector == naive_isometry_vector(cs)
    assert (vector is not None) == fibres


def test_division_escape_finds_no_escape_for_every_q2_subset(q2_sequences):
    # W \ W* is an ideal of W exactly when no generator multiple escapes it.
    W = weierstrass_semigroup(2)
    assert division_escape(W, q2_sequences[tuple(range(1, 9))].wstar) is None
    assert len(q2_sequences) == 255
    for cs in q2_sequences.values():  # at and below the boundary n = 2g + 2 too
        assert division_escape(W, cs.wstar) is None


def test_dual_complement_is_an_ideal_for_every_q2_subset(q2_sequences):
    """W \\ W* is an ideal of W at every size, not only above the boundary."""
    W = weierstrass_semigroup(2)
    assert len(q2_sequences) == 255
    for cs in q2_sequences.values():
        assert is_division_closed(W.contains, cs.wstar)


def test_division_escape_matches_definition_above_boundary(q2_sequences):
    """On the 93 subsets above the boundary, and on each with one W* element
    dropped (near misses, mostly not ideals), the generator test agrees with
    the definition."""
    W = weierstrass_semigroup(2)
    big = [cs for combo, cs in q2_sequences.items() if len(combo) > 4]
    assert len(big) == 93
    rejected = 0
    for cs in big:
        assert division_escape(W, cs.wstar) is None
        for k in range(len(cs.wstar)):
            near = replace(cs, wstar=cs.wstar[:k] + cs.wstar[k + 1:])
            closed = is_division_closed(W.contains, near.wstar)
            assert (division_escape(W, near.wstar) is None) == closed
            rejected += not closed
    assert rejected > 0


def test_below_boundary_criterion_is_only_necessary(q2_sequences):
    """For n <= 2g + 2 the criterion no longer characterizes duality: vectors
    exist without it (never the other way around). Frozen empirical counts."""
    by_size = {1: 0, 2: 0, 3: 0, 4: 0}
    for combo, cs in q2_sequences.items():
        if len(combo) > 4:
            continue
        criterion = isometry_dual_criterion(cs.wstar, cs.q)
        exists = _vector(cs) is not None
        if criterion:
            assert exists  # criterion still implies a vector
        if exists and not criterion:
            by_size[len(combo)] += 1
    assert by_size == {1: 8, 2: 24, 3: 24, 4: 0}


def test_q3_full_sequence(q2_points):
    pts = hermitian_points(3)
    cs = compute_wstar(pts, 3)
    assert (cs.n, cs.genus) == (27, 3)
    assert len(cs.wstar) == 27
    assert isometry_dual_criterion(cs.wstar, cs.q)
    # Frobenius-collapsed monomials (x^9 = x, ...) leave pole-order holes.
    assert 27 not in cs.wstar and 30 not in cs.wstar and 31 not in cs.wstar
    assert division_escape(weierstrass_semigroup(3), cs.wstar) is None
    assert _vector(cs) == (1,) * 27


# -- the automorphisms of the curve that fix the point at infinity --


def _stabiliser_of_infinity(q):
    """Each automorphism (x, y) -> (ax + b, a^(q+1) y + a b^q x + c), with
    a != 0 and c^q + c = b^(q+1), as a permutation of 0-based point indices."""
    F = hermitian_field(q)
    coords = [p.coords() for p in hermitian_points(q)]
    index = {xy: i for i, xy in enumerate(coords)}
    perms = []
    for a in range(1, F.q):
        a_y = F.pow(a, q + 1)
        for b in range(F.q):
            a_x, norm_b = F.mul(a, F.pow(b, q)), F.pow(b, q + 1)
            for c in range(F.q):
                if F.add(F.pow(c, q), c) != norm_b:
                    continue
                perms.append(tuple(
                    index[(F.add(F.mul(a, x), b),
                           F.add(F.add(F.mul(a_y, y), F.mul(a_x, x)), c))]
                    for x, y in coords
                ))
    return perms


def _image(perm, combo):
    return tuple(sorted(perm[i - 1] + 1 for i in combo))


@pytest.mark.parametrize("q,order", [(2, 24), (3, 216)])
def test_stabiliser_of_infinity_permutes_the_points(q, order):
    perms = _stabiliser_of_infinity(q)
    assert len(perms) == len(set(perms)) == order == q**3 * (q * q - 1)
    for perm in perms:
        assert sorted(perm) == list(range(q**3))


def test_wstar_invariant_under_stabiliser_q2(q2_sequences):
    perms = _stabiliser_of_infinity(2)
    rng = random.Random(24)
    assert len(q2_sequences) == 255
    for combo, cs in q2_sequences.items():
        for perm in rng.sample(perms, 3):
            assert q2_sequences[_image(perm, combo)].wstar == cs.wstar


def test_wstar_invariant_under_stabiliser_q3_sampled():
    pts = hermitian_points(3)
    perms = _stabiliser_of_infinity(3)
    rng = random.Random(216)
    for _ in range(40):
        combo = tuple(sorted(rng.sample(range(1, 28), rng.randint(1, 27))))
        wstar = compute_wstar([pts[i - 1] for i in combo], 3).wstar
        for perm in rng.sample(perms, 3):
            image = _image(perm, combo)
            assert compute_wstar([pts[i - 1] for i in image], 3).wstar == wstar


def test_qualifying_q2_subsets_form_six_orbits():
    perms = _stabiliser_of_infinity(2)
    qualifying = set(qualifying_subsets(2))
    assert len(qualifying) == 31
    orbits = {frozenset(_image(perm, combo) for perm in perms) for combo in qualifying}
    assert set().union(*orbits) == qualifying
    assert len(orbits) == 6
