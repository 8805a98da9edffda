"""Orbit enumeration, the Niven test, and the three PINN deciders."""
from __future__ import annotations

import random
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from permniven.digits import DigitMultiset, value_mod
from permniven.orbits import (
    BudgetExceeded,
    CriterionProof,
    ExhaustiveProof,
    FailureWitness,
    is_niven,
    is_pinn,
    is_pinn_bruteforce,
    is_pinn_criterion,
    is_pinn_residue_count,
    make_record,
    orbit,
    orbit_closure_check,
    residue_table_size,
    values_permutation_closed,
)


def brute_pinn(digits) -> bool:
    """Independent oracle: every arrangement, leading zeros dropped."""
    s = sum(digits)
    return all(
        int("".join(map(str, p))) % s == 0 for p in set(permutations(digits))
    )


def test_orbit_is_sorted_distinct_and_complete():
    rng = random.Random(23)
    for _ in range(60):
        digits = [rng.randrange(10) for _ in range(rng.randint(1, 6))]
        if not any(digits):
            digits[0] = 1
        m = DigitMultiset.from_digits(digits)
        perms = list(orbit(m))
        assert perms == sorted(perms)
        assert len(perms) == len(set(perms)) == m.orbit_size
        assert set(perms) == {"".join(map(str, p)) for p in permutations(digits)}


def test_is_niven_matches_direct_division():
    for n in range(1, 3000):
        s = str(n)
        assert is_niven(s) == (n % sum(int(c) for c in s) == 0)
    # leading zeros leave the digit sum alone but shrink the value
    assert is_niven("012")
    assert not is_niven("091")


def test_bruteforce_agrees_with_oracle_and_reports_witness():
    rng = random.Random(29)
    for _ in range(300):
        digits = [rng.randrange(10) for _ in range(rng.randint(1, 5))]
        if not any(digits):
            digits[0] = 1
        m = DigitMultiset.from_digits(digits)
        ok, proof = is_pinn_bruteforce(m)
        assert ok == brute_pinn(digits)
        if ok:
            assert isinstance(proof, ExhaustiveProof)
            assert len(proof.quotients) == m.orbit_size
            assert all(q * m.digit_sum in
                       {int(p) for p in orbit(m)} for q in proof.quotients)
        else:
            assert isinstance(proof, FailureWitness)
            assert int(proof.permutation) % m.digit_sum == proof.residue
            assert proof.residue != 0


def test_criterion_equals_bruteforce_up_to_k4():
    # Exhaustive over every multiset with at least one nonzero digit.
    for k in range(1, 5):
        for combo in combinations_with_replacement(range(10), k):
            if not any(combo):
                continue
            m = DigitMultiset.from_digits(combo)
            ok_fast, proof = is_pinn_criterion(m)
            ok_slow, _ = is_pinn_bruteforce(m)
            assert ok_fast == ok_slow, m.canonical
            assert isinstance(proof, CriterionProof)
            if ok_fast:
                assert proof.base_residue == 0


def assert_is_witness(m: DigitMultiset, witness: FailureWitness) -> None:
    assert sorted(witness.permutation) == sorted(m.canonical)
    assert witness.residue != 0
    assert value_mod(witness.permutation, m.digit_sum) == witness.residue


def test_three_deciders_agree_up_to_k6():
    seen = 0
    for k in range(1, 7):
        for combo in combinations_with_replacement(range(10), k):
            if not any(combo):
                continue
            m = DigitMultiset.from_digits(combo)
            ok, witness = is_pinn_residue_count(m)
            assert ok == is_pinn_criterion(m)[0] == is_pinn_bruteforce(m)[0], m.canonical
            if ok:
                assert witness is None
            else:
                assert_is_witness(m, witness)
            seen += 1
    assert seen == 8001


@st.composite
def small_table_multisets(draw) -> DigitMultiset:
    """Width at most 60: up to three nonzero digits plus zeros, which keeps
    the DP table within reach while family-like members stay likely."""
    counts = [0] * 10
    for d in draw(st.lists(st.integers(1, 9), min_size=1, max_size=3, unique=True)):
        counts[d] = draw(st.integers(1, 20))
    counts[0] = draw(st.integers(0, 60 - sum(counts)))
    m = DigitMultiset(tuple(counts))
    assume(residue_table_size(m) <= 10**6)
    return m


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_table_multisets())
def test_residue_count_agrees_with_criterion(m):
    ok, witness = is_pinn_residue_count(m)
    assert ok == is_pinn_criterion(m)[0]
    if m.orbit_size <= 10**4:
        assert ok == is_pinn_bruteforce(m)[0]
    if ok:
        assert witness is None
    else:
        assert_is_witness(m, witness)


def test_criterion_proof_failure_modes():
    # 13: the pair congruence itself fails.
    ok, proof = is_pinn_criterion(DigitMultiset.from_string("13"))
    assert not ok and proof.base_residue == -1
    # 11: pairs are vacuous, the canonical residue is the defect.
    ok, proof = is_pinn_criterion(DigitMultiset.from_string("11"))
    assert not ok and proof.base_residue == 11 % 2


@pytest.mark.parametrize(
    "digits, pairs, gaps, base",
    [
        ("13", ((3, 1),), (1,), -1),  # the first pair fails, at gap 1
        ("651", ((5, 1), (6, 1)), (1, 2), -1),  # a later pair fails
        ("11", (), (), 1),  # one distinct digit: nothing to pair
        ("2448", ((4, 2), (8, 2), (8, 4)), (1, 2, 3), 0),
    ],
)
def test_criterion_proof_shape(digits, pairs, gaps, base):
    ok, proof = is_pinn_criterion(DigitMultiset.from_string(digits))
    assert proof == CriterionProof(
        digit_pairs_checked=pairs, position_gaps_checked=gaps, base_residue=base
    )
    assert ok == (base == 0)


def test_budget_gate():
    big = DigitMultiset.from_string("1234567890123")
    with pytest.raises(BudgetExceeded):
        is_pinn_bruteforce(big, budget=1000)
    # the dispatcher falls back to the criterion instead of raising
    assert is_pinn(big, budget=1000) == is_pinn_criterion(big)[0]
    # the DP is gated by its table, not by the orbit
    assert residue_table_size(big) == 3**3 * 2**7 * 51
    with pytest.raises(BudgetExceeded):
        is_pinn_residue_count(big, budget=residue_table_size(big) - 1)
    assert is_pinn_residue_count(big, budget=residue_table_size(big))[0] is False


def test_make_record_only_for_pinns():
    assert make_record(DigitMultiset.from_string("13")) is None
    rec = make_record(DigitMultiset.from_string("2448"))
    assert rec is not None
    assert rec.canonical == "8442"
    assert rec.value == 8442
    assert rec.digit_sum == 18
    assert rec.orbit_size == 12
    assert isinstance(rec.proof, CriterionProof)
    # the exhaustive proof is opt-in and gated by the budget
    rec = make_record(DigitMultiset.from_string("2448"), prefer_brute=True)
    assert isinstance(rec.proof, ExhaustiveProof)
    rec = make_record(DigitMultiset.from_string("2448"), budget=4, prefer_brute=True)
    assert isinstance(rec.proof, CriterionProof)


def test_values_permutation_closed():
    assert values_permutation_closed([12, 21])
    assert values_permutation_closed([10])  # 01 collapses out of the 2-digit set
    assert not values_permutation_closed([12])
    assert not values_permutation_closed([13, 31, 103])


def test_orbit_closure_check():
    recs = [
        make_record(DigitMultiset.from_string(s), prefer_brute=True)
        for s in ("2448", "7200")
    ]
    assert all(recs)
    assert orbit_closure_check(recs, 4)
    with pytest.raises(ValueError):
        orbit_closure_check(recs, 5)
