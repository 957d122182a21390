import random
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import naive_closure
from sparse_duals import EmptyGenerators, GcdNotOne, NumericalSemigroup
from sparse_duals.semigroup import semigroup_conductor


def test_trivial_semigroup():
    S = NumericalSemigroup([1])
    assert S.genus == 0
    assert S.conductor == 0
    assert S.gaps == ()
    assert S.frobenius == -1
    assert S.element(5) == 5
    assert all(S.contains(n) for n in range(10))


def test_two_three():
    S = NumericalSemigroup([2, 3])
    assert S.gaps == (1,)
    assert S.genus == 1
    assert S.conductor == 2
    assert not S.contains(1)
    assert S.element(0) == 0
    assert S.element(1) == 2
    assert S.members(6) == [0, 2, 3, 4, 5, 6]


def test_three_five():
    S = NumericalSemigroup([3, 5])
    assert S.gaps == (1, 2, 4, 7)
    assert S.genus == 4
    assert S.conductor == 8
    assert not S.contains(7)
    assert S.element(4) == 8
    with pytest.raises(ValueError, match="element index must be non-negative"):
        S.element(-1)


def test_gcd_not_one():
    with pytest.raises(GcdNotOne):
        NumericalSemigroup([2, 4])
    with pytest.raises(GcdNotOne):
        NumericalSemigroup([6, 10])


def test_bad_generators():
    with pytest.raises(EmptyGenerators):
        NumericalSemigroup([])
    with pytest.raises(ValueError):
        NumericalSemigroup([0, 3])
    with pytest.raises(ValueError):
        NumericalSemigroup([-2, 3])


def test_contains_negative_and_zero():
    S = NumericalSemigroup([3, 5])
    assert not S.contains(-1)
    assert not S.contains(-100)
    assert S.contains(0)
    assert 3 in S and 1 not in S


def test_index_of_roundtrip():
    S = NumericalSemigroup([3, 5])
    for i in range(30):
        assert S.index_of(S.element(i)) == i
    with pytest.raises(ValueError):
        S.index_of(7)
    with pytest.raises(ValueError):
        S.index_of(-3)


def test_multiplicity_and_frobenius():
    assert NumericalSemigroup([2, 3]).multiplicity == 2
    assert NumericalSemigroup([3, 5]).frobenius == 7
    assert NumericalSemigroup([5, 6, 9]).multiplicity == 5


def test_equality_ignores_redundant_generators():
    assert NumericalSemigroup([2, 3]) == NumericalSemigroup([2, 3, 4])
    assert NumericalSemigroup([2, 3]) != NumericalSemigroup([3, 5])
    assert hash(NumericalSemigroup([2, 3])) == hash(NumericalSemigroup([3, 2]))


def test_json_roundtrip():
    S = NumericalSemigroup([3, 5])
    data = S.to_json()
    assert data == {"generators": [3, 5], "gaps": [1, 2, 4, 7], "conductor": 8, "genus": 4}
    assert NumericalSemigroup.from_json(data) == S
    with pytest.raises(ValueError):
        NumericalSemigroup.from_json({"generators": [3, 5], "gaps": [1]})


def _check_against_closure(S):
    # min * max exceeds the largest gap, so the closure up to it shows them all.
    bound = S.generators[0] * S.generators[-1]
    members = set(naive_closure(S.generators, bound))
    gaps = tuple(n for n in range(bound + 1) if n not in members)
    assert S.gaps == gaps
    assert S.conductor == (gaps[-1] + 1 if gaps else 0)
    assert semigroup_conductor(S.generators) == S.conductor


def test_gaps_and_conductor_match_closure_on_corpus(corpus):
    for S in corpus:
        _check_against_closure(S)


@pytest.mark.parametrize("count", [2, 3])
def test_gaps_and_conductor_match_closure_sampled(count):
    rng = random.Random(500 + count)
    checked = 0
    while checked < 40:
        gens = rng.sample(range(2, 30), count)
        if gcd(*gens) == 1:
            _check_against_closure(NumericalSemigroup(gens))
            checked += 1


def test_conductor_without_building():
    assert semigroup_conductor([2000, 2001]) == 1999 * 2000
    assert semigroup_conductor([1]) == 0
    with pytest.raises(GcdNotOne):
        semigroup_conductor([4, 6])
    with pytest.raises(EmptyGenerators):
        semigroup_conductor([])


@st.composite
def coprime_generators(draw):
    from math import gcd

    gens = draw(st.lists(st.integers(min_value=1, max_value=14), min_size=1, max_size=4))
    acc = 0
    for a in gens:
        acc = gcd(acc, a)
    if acc != 1:
        gens.append(acc + 1)  # force overall gcd 1 while staying small
    return gens


@given(coprime_generators())
def test_matches_naive_closure(gens):
    S = NumericalSemigroup(gens)
    bound = 2 * S.conductor + max(gens) + 2
    assert S.members(bound) == naive_closure(gens, bound)


@given(coprime_generators())
def test_members_at_every_bound(gens):
    S = NumericalSemigroup(gens)
    for bound in range(-2, S.conductor + 4):
        assert S.members(bound) == [n for n in range(bound + 1) if S.contains(n)]


@given(coprime_generators())
def test_additive_closure(gens):
    S = NumericalSemigroup(gens)
    members = S.members(S.conductor)
    for a in members:
        for b in members:
            assert S.contains(a + b)


@given(coprime_generators())
def test_conductor_and_gap_invariants(gens):
    S = NumericalSemigroup(gens)
    assert len(S.gaps) == S.genus
    if S.genus:
        assert S.conductor == max(S.gaps) + 1
        assert not S.contains(S.conductor - 1)
    else:
        assert S.conductor == 0
    for k in range(8):
        assert S.contains(S.conductor + k)


@given(coprime_generators())
def test_element_is_increasing_and_onto(gens):
    S = NumericalSemigroup(gens)
    values = [S.element(i) for i in range(25)]
    assert values[0] == 0
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(S.contains(v) for v in values)
    assert set(values) >= set(S.members(values[-1]))


@given(coprime_generators())
def test_membership_bytes_at_every_bound(gens):
    S = NumericalSemigroup(gens)
    members = set(naive_closure(gens, S.conductor + 4))
    for bound in range(-2, S.conductor + 4):
        assert S.membership(bound) == bytes(n in members for n in range(bound + 1))
