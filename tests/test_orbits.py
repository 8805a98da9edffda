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
    FailureWitness,
    decide_pinn,
    is_niven,
    is_pinn_bruteforce,
    is_pinn_criterion,
    is_pinn_residue_count,
    make_record,
    orbit,
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
            assert proof is None
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
    seen = rejected = 0
    for k in range(1, 7):
        for combo in combinations_with_replacement(range(10), k):
            if not any(combo):
                continue
            m = DigitMultiset.from_digits(combo)
            ok, witness = is_pinn_residue_count(m)
            assert ok == is_pinn_criterion(m)[0] == is_pinn_bruteforce(m)[0], m.canonical
            # the shared verdict rule: the DP runs on every PINN here, and
            # every "no" carries its O(k) witness
            verdict, proof, residue_counted = decide_pinn(m)
            assert verdict == ok and residue_counted == ok
            if ok:
                assert witness is None
                assert isinstance(proof, CriterionProof)
            else:
                assert_is_witness(m, witness)
                assert_is_witness(m, proof)
                rejected += 1
            seen += 1
    assert (seen, rejected) == (8001, 7767)


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
    # the DP is gated by its table, not by the orbit
    assert residue_table_size(big) == 3**3 * 2**7 * 51
    with pytest.raises(BudgetExceeded):
        is_pinn_residue_count(big, budget=residue_table_size(big) - 1)
    assert is_pinn_residue_count(big, budget=residue_table_size(big))[0] is False
    # decide_pinn runs the DP only when its table fits
    m = DigitMultiset.from_string("2448")
    assert decide_pinn(m, budget=residue_table_size(m) - 1)[::2] == (True, False)
    assert decide_pinn(m, budget=residue_table_size(m))[::2] == (True, True)


def test_decide_pinn_trusts_no_single_decider(monkeypatch):
    import permniven.orbits as orbits

    def says_pinn(m):
        return True, CriterionProof(digit_pairs_checked=(), position_gaps_checked=(), base_residue=0)

    # a criterion that wrongly accepts 13 is overruled by the DP's witness
    monkeypatch.setattr(orbits, "is_pinn_criterion", says_pinn)
    m = DigitMultiset.from_string("13")
    ok, witness, residue_counted = decide_pinn(m)
    assert not ok and residue_counted
    assert_is_witness(m, witness)

    def rejects_a_pair(m):
        return False, CriterionProof(digit_pairs_checked=((4, 2),), position_gaps_checked=(1,),
                                     base_residue=-1)

    # a pair rejection that no arrangement backs up is an internal fault
    monkeypatch.setattr(orbits, "is_pinn_criterion", rejects_a_pair)
    with pytest.raises(ArithmeticError):
        decide_pinn(DigitMultiset.from_string("2448"))


def test_make_record_only_for_pinns():
    assert make_record(DigitMultiset.from_string("13")) is None
    rec = make_record(DigitMultiset.from_string("2448"))
    assert rec is not None
    assert rec.canonical == "8442"
    assert rec.digit_sum == 18
    assert rec.orbit_size == 12
    assert isinstance(rec.proof, CriterionProof)


def test_values_permutation_closed():
    assert values_permutation_closed([12, 21])
    assert values_permutation_closed([10])  # 01 collapses out of the 2-digit set
    assert not values_permutation_closed([12])
    assert not values_permutation_closed([13, 31, 103])

