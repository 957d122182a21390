import json
import os
import random
import tracemalloc
from contextlib import redirect_stdout
from math import gcd, isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import CORPUS_GENERATORS
from oracles import (
    apery_membership,
    apery_set,
    is_division_closed,
    naive_closure,
    naive_divisors,
    naive_first_escape,
    naive_gap_pairs,
    naive_ideal_complements,
    naive_leaders,
)
from sparse_duals import (
    DifferentParents,
    NotALeader,
    NotAnIdeal,
    NotMaximumSparse,
    NotProper,
    NumericalSemigroup,
    SemigroupIdeal,
    divisor_set,
    enumerate_proper_ideals,
    gap_pair_count,
    inclusion_report,
    is_maximum_sparse,
    leader_set,
    maximum_sparse_from_leader,
    maximum_sparse_ideals,
)
from sparse_duals import cli, sparse_ideals
from sparse_duals.sparse_ideals import division_escape

S23 = NumericalSemigroup([2, 3])
S35 = NumericalSemigroup([3, 5])
N0 = NumericalSemigroup([1])
# Generator lists with redundant entries: <3,5>, <4,6,7> and <2,3>.
NON_MINIMAL_GENERATORS = [(3, 5, 6, 9, 10), (4, 6, 7, 10, 11, 13), (2, 3, 4, 5, 6)]


def test_divisor_set_examples():
    assert divisor_set(S23, S23.index_of(3)) == (0, 3)
    assert divisor_set(S23, 0) == (0,)
    assert divisor_set(S35, 0) == (0,)
    assert divisor_set(S35, S35.index_of(8)) == (0, 3, 5, 8)
    with pytest.raises(ValueError, match="index must be non-negative"):
        divisor_set(S35, -1)


def test_divisor_set_always_contains_endpoints():
    for S in (S23, S35):
        for i in range(1, 15):
            d = divisor_set(S, i)
            assert d[0] == 0 and d[-1] == S.element(i)


def test_gap_pair_count_examples():
    assert gap_pair_count(S23, S23.index_of(2)) == 1  # (1, 1)
    assert gap_pair_count(S23, S23.index_of(3)) == 0
    assert gap_pair_count(S23, 0) == 0
    assert gap_pair_count(S35, S35.index_of(8)) == 2  # (1,7) and (4,4)
    with pytest.raises(ValueError, match="index must be non-negative"):
        gap_pair_count(S35, -1)


@given(st.sampled_from(CORPUS_GENERATORS), st.integers(min_value=0, max_value=40))
def test_gap_pair_count_matches_naive(gens, i):
    S = NumericalSemigroup(gens)
    assert gap_pair_count(S, i) == naive_gap_pairs(S.gaps, S.element(i))


def test_ideal_validation():
    ideal = SemigroupIdeal(S23, (0, 3))
    assert ideal.complement == (0, 3)
    assert repr(ideal) == "SemigroupIdeal(NumericalSemigroup([2, 3]), complement=[0, 3])"
    with pytest.raises(NotAnIdeal, match="3 - 3 = 0 escapes"):
        SemigroupIdeal(S23, (3,))
    with pytest.raises(NotAnIdeal, match="4 - 2 = 2 escapes"):
        SemigroupIdeal(S23, (0, 4))
    with pytest.raises(NotAnIdeal):
        SemigroupIdeal(S23, (1,))  # 1 is a gap, not an element


def _accepts(S, complement):
    try:
        SemigroupIdeal(S, complement)
    except NotAnIdeal:
        return False
    return True


@pytest.mark.parametrize("gens", CORPUS_GENERATORS + NON_MINIMAL_GENERATORS)
def test_generator_test_is_the_definition(gens):
    """SemigroupIdeal tests closure on generators only; it must accept exactly
    the complements the member-by-member definition accepts: enumerated
    ideals, divisor sets, each with one element dropped, and random subsets."""
    S = NumericalSemigroup(gens)
    rng = random.Random(sum(gens))
    exact = [ideal.complement for ideal in enumerate_proper_ideals(S, 3)]
    exact += [divisor_set(S, i) for i in range(1, 12)]
    near = [t[:k] + t[k + 1:] for t in exact for k in range(len(t))]
    pool = S.members(3 * S.conductor + 6)
    drawn = [tuple(rng.sample(pool, rng.randint(1, 6))) for _ in range(60)]
    drawn += [(0,) + t for t in drawn]
    verdicts = [
        (_accepts(S, t), is_division_closed(S.contains, t)) for t in exact + near + drawn
    ]
    assert all(fast == slow for fast, slow in verdicts)
    assert any(fast for fast, _ in verdicts) and not all(fast for fast, _ in verdicts)


def test_improper_ideal():
    full = SemigroupIdeal(S23, ())
    assert not full.is_proper
    assert full.frobenius == S23.frobenius
    assert full.leader is None
    with pytest.raises(NotProper):
        is_maximum_sparse(full)


def test_frobenius_of_small_complements():
    assert SemigroupIdeal(S23, (0,)).frobenius == 1  # largest non-member is the gap 1
    assert SemigroupIdeal(S23, (0, 3)).frobenius == 3
    assert SemigroupIdeal(S35, (0, 3, 5, 8)).frobenius == 8


def test_is_maximum_sparse_examples():
    # complement D at 3: frobenius 3 == 2g-1+2
    assert is_maximum_sparse(SemigroupIdeal(S23, (0, 3)))
    # complement D at 2: frobenius 2 != 2g-1+2 = 3
    assert not is_maximum_sparse(SemigroupIdeal(S23, (0, 2)))
    # on <3,5> the divisor set of 8 fails both routes: frobenius 8 != 11,
    # and 8 has two gap decompositions
    ideal = SemigroupIdeal(S35, divisor_set(S35, S35.index_of(8)))
    assert not is_maximum_sparse(ideal)
    assert gap_pair_count(S35, S35.index_of(8)) != 0


def test_maximum_sparse_from_leader():
    with pytest.raises(NotALeader):
        maximum_sparse_from_leader(S23, S23.index_of(2))
    ideal = maximum_sparse_from_leader(S23, S23.index_of(3))
    assert ideal.complement == (0, 3)
    assert ideal.leader == 3
    assert is_maximum_sparse(ideal)
    with pytest.raises(ValueError):
        maximum_sparse_from_leader(S23, 0)


def test_smallest_leader_of_three_five():
    leaders = leader_set(S35, 2 * S35.conductor)
    assert leaders[0] == 10
    ideal = maximum_sparse_from_leader(S35, S35.index_of(10))
    assert ideal.complement == (0, 5, 10)
    assert is_maximum_sparse(ideal)


def test_leader_set_examples():
    assert leader_set(S23, 10) == (3, 4, 5, 6, 7, 8, 9, 10)
    assert leader_set(N0, 5) == (1, 2, 3, 4, 5)
    assert leader_set(S35, 20) == (10, 12, 13, 15, 16, 17, 18, 19, 20)
    with pytest.raises(ValueError):
        leader_set(S35, 5)


def test_leaders_at_least_conductor(corpus):
    for S in corpus:
        for lam in leader_set(S, 2 * S.conductor):
            assert lam >= S.conductor


def test_leader_equals_max_of_complement(corpus):
    for S in corpus[:6]:
        for lam in leader_set(S, 2 * S.conductor):
            ideal = maximum_sparse_from_leader(S, S.index_of(lam))
            assert ideal.leader == lam == max(ideal.complement)
            assert ideal.frobenius == 2 * S.genus - 1 + len(ideal.complement)


def test_inclusion_report_reflexive():
    ideal = maximum_sparse_from_leader(S23, S23.index_of(3))
    report = inclusion_report(ideal, ideal)
    assert report.superset and report.leader_difference
    assert report.complement_nested and report.size_difference
    assert report.agree


def test_inclusion_report_two_three():
    bigger = maximum_sparse_from_leader(S23, S23.index_of(3))
    smaller = maximum_sparse_from_leader(S23, S23.index_of(5))
    report = inclusion_report(smaller, bigger)  # 5 - 3 = 2 in S
    assert report.superset and report.leader_difference
    assert report.complement_nested and report.size_difference
    # reversed orientation: all four flip together
    reversed_report = inclusion_report(bigger, smaller)
    assert not any(
        [
            reversed_report.superset,
            reversed_report.leader_difference,
            reversed_report.complement_nested,
            reversed_report.size_difference,
        ]
    )
    assert report.agree and reversed_report.agree


def test_inclusion_report_errors():
    a = maximum_sparse_from_leader(S23, S23.index_of(3))
    b = maximum_sparse_from_leader(S35, S35.index_of(10))
    with pytest.raises(DifferentParents):
        inclusion_report(a, b)
    not_sparse = SemigroupIdeal(S23, (0,))
    with pytest.raises(NotMaximumSparse):
        inclusion_report(a, not_sparse)


def test_enumeration_matches_naive_subset_scan():
    """Every complement of size <= k lies below c + s_k (s_k the k-th
    element): the scan over those elements is complete. The enumeration
    lists each complement once, by size and then by elements, with no cap
    on the Frobenius number."""
    assert [i.complement for i in enumerate_proper_ideals(N0, 2)] == [(0,), (0, 1)]  # 3c = 0
    cases = [S23, S35, N0, NumericalSemigroup([3, 4]), NumericalSemigroup([4, 5, 7])]
    cases += [NumericalSemigroup(gens) for gens in NON_MINIMAL_GENERATORS]
    for S in cases:
        for k in (-1, 0, 1, 2, 4):
            fast = [i.complement for i in enumerate_proper_ideals(S, k)]
            scan = S.members(S.conductor + S.element(max(k, 0)) - 1)
            naive = naive_ideal_complements(S.contains, scan, k)
            assert fast == sorted((tuple(sorted(t)) for t in naive), key=lambda t: (len(t), t))


def test_enumerated_ideals_are_division_closed(corpus):
    for S in corpus[:8]:
        for ideal in enumerate_proper_ideals(S, 4):
            assert is_division_closed(S.contains, ideal.complement)


def test_enumeration_is_deterministic():
    first = [i.complement for i in enumerate_proper_ideals(S35, 5)]
    second = [i.complement for i in enumerate_proper_ideals(S35, 5)]
    assert first == second
    assert first == sorted(first, key=lambda t: (len(t), t))


def test_converse_of_leader_difference_fails():
    # 13 leads a maximum sparse ideal of <3,5> and 13 - 8 = 5 is an element,
    # but 8 (>= conductor) leads none: witness that the implication is one-way.
    leaders = set(leader_set(S35, 3 * S35.conductor))
    assert 13 in leaders
    assert 8 >= S35.conductor
    assert S35.contains(13 - 8)
    assert 8 not in leaders


def _converse_witness(S):
    """A (leader, candidate) pair showing the difference test is one-way."""
    leaders = set(leader_set(S, 3 * S.conductor))
    for lam in sorted(leaders):
        for cand in S.members(lam):
            if cand >= S.conductor and cand not in leaders and S.contains(lam - cand):
                return (lam, cand)
    return None


def test_converse_failure_witness_exists_in_corpus(corpus):
    found = [S.generators for S in corpus if _converse_witness(S) is not None]
    assert (3, 5) in found
    assert len(found) >= 1


def test_ideal_json():
    ideal = maximum_sparse_from_leader(S35, S35.index_of(10))
    assert ideal.to_json() == {
        "parent_generators": [3, 5],
        "complement": [0, 5, 10],
        "leader": 10,
        "frobenius": 10,
    }
    plain = SemigroupIdeal(S23, (0,))
    assert plain.to_json()["leader"] is None


def _sampled_generators(count):
    """Seeded semigroups on 1 to 4 generators, gcd 1."""
    rng = random.Random(9090)
    out = [(1,), (1, 4)]
    while len(out) < count:
        gens = tuple(sorted(rng.sample(range(2, 24), rng.randint(2, 4))))
        if gcd(*gens) == 1:
            out.append(gens)
    return out


MASK_CORPUS = CORPUS_GENERATORS + NON_MINIMAL_GENERATORS + _sampled_generators(30)


def _naive(gens):
    """The semigroup of `gens` from the fixpoint closure alone: a membership
    test, the gaps and a bound past twice the conductor."""
    S = NumericalSemigroup(gens)
    bound = 2 * S.conductor + max(gens) + 3
    members = set(naive_closure(gens, 2 * bound + 10))  # past D(element(9)) too
    gaps = [n for n in range(bound) if n not in members]
    return S, (lambda n: n in members), gaps, bound


@pytest.mark.parametrize("gens", MASK_CORPUS)
def test_divisor_gap_pair_and_leader_masks_match_naive_loops(gens):
    S, contains, gaps, bound = _naive(gens)
    for lam in filter(contains, range(bound + 1)):
        i = S.index_of(lam)
        assert divisor_set(S, i) == naive_divisors(contains, lam)
        assert gap_pair_count(S, i) == naive_gap_pairs(gaps, lam)
        if lam and not gap_pair_count(S, i):  # the mask path builds what the public one does
            ideal = maximum_sparse_from_leader(S, i)
            assert ideal == SemigroupIdeal(S, divisor_set(S, i))
            assert type(ideal.complement) is tuple
            assert set(map(type, ideal.complement)) == {int}
    assert leader_set(S, bound) == naive_leaders(contains, gaps, bound)


@pytest.mark.parametrize("gens", MASK_CORPUS)
def test_sweep_matches_one_leader_at_a_time(gens):
    S = NumericalSemigroup(gens)
    for bound in (S.conductor, 2 * S.conductor, 3 * S.conductor):
        swept = maximum_sparse_ideals(S, bound)
        single = [maximum_sparse_from_leader(S, S.index_of(lam)) for lam in leader_set(S, bound)]
        assert [(i.complement, i.leader) for i in swept] == [
            (i.complement, i.leader) for i in single]


def _symmetric_generators():
    """Seeded symmetric semigroups (F = 2g - 1), picked by the Apery oracle:
    <a, b> of small genus, <a, b> and <q, q + 1> of genus 1 000 to 2 200
    (<41, 111>: c = 4 400, one leader within the report budget), and
    symmetric semigroups on three minimal generators, <4, 6, 7> among them."""
    rng = random.Random(7117)
    small = [(a, b) for a in range(2, 12) for b in range(a + 1, 30) if gcd(a, b) == 1]
    large = [(a, b) for a in range(20, 70) for b in range(a + 1, 240)
             if gcd(a, b) == 1 and 1000 <= (a - 1) * (b - 1) // 2 <= 2200]
    triples = [(4, 6, 7)]
    while len(triples) < 16:
        gens = tuple(sorted(rng.sample(range(3, 40), 3)))
        if gcd(*gens) != 1 or gens in triples:
            continue
        _, genus, frobenius = apery_membership(gens)
        minimal = all(a not in naive_closure([b for b in gens if b != a], a) for a in gens)
        if minimal and frobenius == 2 * genus - 1:
            triples.append(gens)
    return rng.sample(small, 8) + rng.sample(large, 4) + [(60, 61), (41, 111)] + triples


@pytest.mark.parametrize("gens", _symmetric_generators())
def test_symmetric_sweep_is_principal(gens):
    """S symmetric: the leaders are F + s for s in S \\ {0}, and the ideal of
    leader F + s is s + S, complement Ap(S, s), built from the Apery set."""
    contains, genus, frobenius = apery_membership(gens)
    S = NumericalSemigroup(gens)
    assert (S.genus, S.frobenius) == (genus, frobenius) and frobenius == 2 * genus - 1
    widest = (isqrt(8 * cli.MAX_REPORT_ELEMENTS + 1) - 1) // 2  # b(b + 1)/2 elements
    bounds = (S.conductor, 2 * S.conductor, 3 * S.conductor) if 6 * genus <= widest else (widest,)
    for bound in bounds:
        ideals = maximum_sparse_ideals(S, bound)
        shifts = [s for s in range(1, bound - frobenius + 1) if contains(s)]
        assert [i.leader for i in ideals] == [frobenius + s for s in shifts]
        assert [i.complement for i in ideals] == [apery_set(contains, s) for s in shifts]


def test_gap_pair_counts_cover_odd_and_even_values():
    # Exact counts above 1 at both parities, and a middle pair lam = 2a with a gap.
    seen = set()
    for gens in MASK_CORPUS:
        S, contains, gaps, bound = _naive(gens)
        for lam in filter(contains, range(bound + 1)):
            pairs = gap_pair_count(S, S.index_of(lam))
            if pairs > 1:
                seen.add((lam % 2, lam % 2 == 0 and not contains(lam // 2)))
    assert seen == {(0, False), (0, True), (1, False)}


def _complements(S, contains, bound, rng):
    """Division-closed and not: divisor sets, each with one element dropped,
    and random draws holding gaps, negatives and duplicates, in any order."""
    exact = [divisor_set(S, i) for i in range(1, 10)]
    near = [t[:k] + t[k + 1:] for t in exact[:5] for k in range(len(t))]
    drawn = [
        [rng.randrange(-3, bound) for _ in range(rng.randint(1, 8))] for _ in range(40)
    ]
    members = [n for n in range(bound) if contains(n)]
    drawn += [[0, *rng.sample(members, rng.randint(1, min(5, len(members))))] for _ in range(40)]
    return exact + near + drawn + [sorted(set(t)) for t in drawn]


@pytest.mark.parametrize("gens", MASK_CORPUS)
def test_escape_and_ideal_checks_match_naive_first_witness(gens):
    S, contains, gaps, bound = _naive(gens)
    rng = random.Random(sum(gens))
    outcomes = set()
    for comp in _complements(S, contains, bound, rng):
        assert division_escape(S, comp) == naive_first_escape(contains, S.generators, comp)
        tidy = tuple(sorted(set(comp)))
        outside = [t for t in tidy if not contains(t)]
        escape = naive_first_escape(contains, S.generators, tidy)
        if outside:
            expected = f"complement element {outside[0]} is not in {S!r}"
        elif escape is not None:
            t, a = escape
            expected = f"complement not division-closed: {t} - {a} = {t - a} escapes"
        else:
            assert SemigroupIdeal(S, comp).complement == tidy
            outcomes.add("ideal")
            continue
        with pytest.raises(NotAnIdeal) as info:
            SemigroupIdeal(S, comp)
        assert str(info.value) == expected
        outcomes.add("outside" if outside else "escape")
    assert outcomes == {"ideal", "outside", "escape"}


@pytest.mark.parametrize("gens", CORPUS_GENERATORS)
def test_mask_path_raises_the_public_messages_on_a_corrupted_mask(monkeypatch, gens):
    """`maximum_sparse_from_leader` checks the D(i) mask its sweep step
    computed; fed a mask with a gap added or an element dropped, it must
    raise the message `SemigroupIdeal` raises on the same complement."""
    S = NumericalSemigroup(gens)
    lam = leader_set(S, 2 * S.conductor)[-1]
    comp = divisor_set(S, S.index_of(lam))
    good = sum(1 << 8 * t for t in comp)
    corrupted = [good | 1 << 8 * S.gaps[-1]]  # a gap added
    corrupted += [good & ~(1 << 8 * t) for t in comp[:-1]]  # one element dropped
    step = sparse_ideals._leader_ideal
    seen = set()
    for T in corrupted:
        def corrupt(S, mask, lam, members, T=T):
            assert mask == good  # the step's own D(lam) mask, replaced
            return step(S, T, lam, members)

        monkeypatch.setattr(sparse_ideals, "_leader_ideal", corrupt)
        with pytest.raises(NotAnIdeal) as from_mask:
            maximum_sparse_from_leader(S, S.index_of(lam))
        with pytest.raises(NotAnIdeal) as public:
            SemigroupIdeal(S, tuple(n for n in range(lam + 1) if T >> 8 * n & 1))
        assert str(from_mask.value) == str(public.value)
        seen.add("not in" if " is not in " in str(public.value) else "escapes")
    assert seen == {"not in", "escapes"}


def test_complement_is_normalised_only_when_needed():
    comp = (0, 3)
    assert SemigroupIdeal(S23, comp).complement is comp
    assert SemigroupIdeal(S23, [3, 0, 3]).complement == (0, 3)
    flagged = SemigroupIdeal(N0, (0, True)).complement  # bools become plain ints
    assert flagged == (0, 1) and type(flagged[1]) is int


def test_large_leader_ideal_runs_in_little_memory():
    # D(10^6) on <3,5> holds 999 993 elements, about 36 MB as a tuple of
    # ints (45 MB peak). Masks cost a few MB on top; a sorted(set(...)) copy
    # and the per-element sets of the escape test cost about 50 MB more.
    lam = 10**6
    tracemalloc.start()
    try:
        ideal = maximum_sparse_from_leader(S35, S35.index_of(lam))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ideal.leader == lam and len(ideal.complement) == lam - 2 * S35.genus + 1
    assert peak < 64_000_000


def test_large_leader_json_report_is_written_in_pieces(tmp_path):
    # `sparse-ideals --leader 300000` peaks at about 17 MB with or without
    # --json; a JSON report built whole and then encoded on write took about
    # 6 MB more (at leader 10^6: 75.8 MB against 48.2 MB).
    path = tmp_path / "ideal.json"
    argv = ["sparse-ideals", "--generators", "3,5", "--leader", "300000", "--json", str(path)]
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 19_000_000
    ideal = json.loads(path.read_text(encoding="utf-8"))["ideal"]
    assert ideal["leader"] == 300000 and len(ideal["complement"]) == 300000 - 2 * S35.genus + 1
