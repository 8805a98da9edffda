"""The Niven test, the two PINN deciders and the brute-force oracle they
are checked against."""
from __future__ import annotations

import random
import tracemalloc
from itertools import combinations_with_replacement, permutations
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from permniven.catalogs import GROUP_CORES
from permniven.digits import DigitMultiset
from permniven.orbits import (
    BudgetExceeded,
    CriterionProof,
    FailureWitness,
    PinnRecord,
    decide_pinn,
    is_niven,
    is_pinn_criterion,
    is_pinn_residue_count,
    residue_table_size,
)
from oracle import is_pinn_bruteforce, orbit
from test_digits import reference_value_mod


def brute_pinn(digits) -> bool:
    """Independent oracle: every arrangement, leading zeros dropped."""
    s = sum(digits)
    return all(
        int("".join(map(str, p))) % s == 0 for p in set(permutations(digits))
    )


def values_permutation_closed(values) -> bool:
    """True iff every same-length rearrangement of each value is present.

    Rearrangements that would lead with zero drop to fewer digits and are
    not required (they belong to shorter-length value sets).
    """
    vals = set(values)
    return all(
        int("".join(p)) in vals
        for v in vals
        for p in set(permutations(str(v)))
        if p[0] != "0"
    )


def test_orbit_is_sorted_distinct_and_complete():
    rng = random.Random(23)
    for _ in range(60):
        digits = [rng.randrange(10) for _ in range(rng.randint(1, 6))]
        if not any(digits):
            digits[0] = 1
        m = DigitMultiset.from_string("".join(map(str, digits)))
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
    # a digit sum of 0 leaves no residue, so the input is refused by that sum
    for text in ("0", "000", "0_(5)"):
        with pytest.raises(ValueError, match="digit sum"):
            is_niven(text)


def test_bruteforce_agrees_with_oracle_and_reports_witness():
    rng = random.Random(29)
    for _ in range(300):
        digits = [rng.randrange(10) for _ in range(rng.randint(1, 5))]
        if not any(digits):
            digits[0] = 1
        m = DigitMultiset.from_string("".join(map(str, digits)))
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
            m = DigitMultiset.from_string("".join(map(str, combo)))
            ok_fast, proof = is_pinn_criterion(m)
            ok_slow, _ = is_pinn_bruteforce(m)
            assert ok_fast == ok_slow, m.canonical
            assert isinstance(proof, CriterionProof)
            if ok_fast:
                assert proof.base_residue == 0


def assert_is_witness(m: DigitMultiset, witness: FailureWitness) -> None:
    assert sorted(witness.permutation) == sorted(m.canonical)
    assert witness.residue != 0
    assert reference_value_mod(witness.permutation, m.digit_sum) == witness.residue


def test_three_deciders_agree_up_to_k6():
    seen = rejected = 0
    for k in range(1, 7):
        for combo in combinations_with_replacement(range(10), k):
            if not any(combo):
                continue
            m = DigitMultiset.from_string("".join(map(str, combo)))
            ok, witness = is_pinn_residue_count(m)
            assert ok == is_pinn_criterion(m)[0] == is_pinn_bruteforce(m)[0], m.canonical
            # the shared verdict rule: the DP cross-checks every PINN that
            # is not a repdigit, and every "no" carries its O(k) witness
            verdict, proof, residue_counted = decide_pinn(m)
            assert verdict == ok
            assert residue_counted == (ok and not m.is_repdigit)
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
        ("13", ((3, 1),), range(1, 2), -1),  # the first pair fails, at gap 1
        ("651", ((5, 1), (6, 1)), range(1, 3), -1),  # a later pair fails
        ("11", (), range(1, 1), 1),  # one distinct digit: nothing to pair
        ("2448", ((4, 2), (8, 2), (8, 4)), range(1, 4), 0),
    ],
)
def test_criterion_proof_shape(digits, pairs, gaps, base):
    ok, proof = is_pinn_criterion(DigitMultiset.from_string(digits))
    assert proof == CriterionProof(
        digit_pairs_checked=pairs, position_gaps_checked=gaps, base_residue=base
    )
    assert ok == (base == 0)


def test_budget_gate(monkeypatch):
    import permniven.orbits as orbits

    # the DP reads the guard when it is called, and is gated by its
    # table, not by the orbit
    big = DigitMultiset.from_string("1234567890123")
    assert residue_table_size(big) == 3**3 * 2**7 * 51
    monkeypatch.setattr(orbits, "DEFAULT_ORBIT_BUDGET", residue_table_size(big) - 1)
    with pytest.raises(BudgetExceeded):
        is_pinn_residue_count(big)
    monkeypatch.setattr(orbits, "DEFAULT_ORBIT_BUDGET", residue_table_size(big))
    assert is_pinn_residue_count(big)[0] is False


def says_pinn(m: DigitMultiset) -> tuple[bool, CriterionProof]:
    """A criterion that accepts everything."""
    return True, CriterionProof(
        digit_pairs_checked=(), position_gaps_checked=range(1, 1), base_residue=0
    )


def test_decide_pinn_trusts_no_single_decider(monkeypatch):
    import permniven.orbits as orbits

    # a criterion that wrongly accepts 13 is overruled by the DP's witness
    monkeypatch.setattr(orbits, "is_pinn_criterion", says_pinn)
    m = DigitMultiset.from_string("13")
    ok, witness, residue_counted = decide_pinn(m)
    assert not ok and residue_counted
    assert_is_witness(m, witness)

    # 555552 is a PINN, but with zeros it is not (0 and 2 differ mod 3):
    # the capped DP must keep zeros, and its witness lift to full width
    m = DigitMultiset.from_string("5555520000000")
    ok, witness, residue_counted = decide_pinn(m)
    assert not ok and residue_counted
    assert_is_witness(m, witness)

    # no arrangement can overrule a repdigit, so the closed form's "no"
    # against a criterion that wrongly accepts 11 is an internal fault
    with pytest.raises(ArithmeticError):
        decide_pinn(DigitMultiset.from_string("11"))

    # with a digit sum above 81 nothing is capped, and the DP's table guard
    # stops a criterion that wrongly accepts a wide class
    with pytest.raises(BudgetExceeded):
        decide_pinn(DigitMultiset.from_string("1_(200)20_(200)"))

    def rejects_a_pair(m):
        return False, CriterionProof(
            digit_pairs_checked=((4, 2),), position_gaps_checked=range(1, 2), base_residue=-1
        )

    # a pair rejection that no arrangement backs up is an internal fault
    monkeypatch.setattr(orbits, "is_pinn_criterion", rejects_a_pair)
    with pytest.raises(ArithmeticError):
        decide_pinn(DigitMultiset.from_string("2448"))


def test_a_contradicted_pair_names_the_class_by_its_runs(monkeypatch):
    import permniven.orbits as orbits

    def rejects_a_pair(m):
        return False, CriterionProof(
            digit_pairs_checked=((4, 2),), position_gaps_checked=range(1, 2), base_residue=-1
        )

    # both arrangements ending in 4 and 2 divide by the digit sum 18, so the
    # fault names the class, in runs: its 10^8 digits are never written
    monkeypatch.setattr(orbits, "is_pinn_criterion", rejects_a_pair)
    m = DigitMultiset.from_string("24480_(100000000)")
    tracemalloc.start()
    try:
        with pytest.raises(ArithmeticError) as info:
            decide_pinn(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "84420_(100000000)" in str(info.value)
    assert peak < 10**6


def zero_cap(s: int) -> int:
    """c(s) = max(1, v2(s), v5(s)), the exponents counted by division."""
    v2 = v5 = 0
    while s % 2 ** (v2 + 1) == 0:
        v2 += 1
    while s % 5 ** (v5 + 1) == 0:
        v5 += 1
    return max(1, v2, v5)


def test_residue_count_gives_the_verdict_of_the_zero_cap():
    # the zero reduction behind decide_pinn's cap, tested on the DP alone:
    # every core with z = 1..60 zeros gets the verdict of min(z, c(s))
    # zeros, and so do two zero-free PINNs that any zero breaks (0 and 2,
    # 0 and 1 differ mod 3)
    cores = [core for group in GROUP_CORES for core in group]
    for core in cores + ["555552", "444444111"]:
        m = DigitMultiset.from_string(core)
        cap = zero_cap(m.digit_sum)
        verdicts = {z: is_pinn_residue_count(m.with_zeros(z))[0] for z in range(1, 61)}
        for z, verdict in verdicts.items():
            assert verdict == verdicts[min(z, cap)] == (core in cores), (core, z)


def test_decide_pinn_hands_the_dp_c_of_s_zeros(monkeypatch):
    import permniven.orbits as orbits

    seen = []

    def spy(m):
        seen.append(m.counts[0])
        return is_pinn_residue_count(m)

    monkeypatch.setattr(orbits, "is_pinn_residue_count", spy)
    # s = 4 and s = 8 keep v2(s) zeros, s = 18 keeps the one zero that
    # leaves 0 a present digit
    for text, s, cap in [("40_(40)", 4, 2), ("80_(40)", 8, 3), ("24480_(40)", 18, 1)]:
        m = DigitMultiset.from_string(text)
        assert m.digit_sum == s and zero_cap(s) == cap
        seen.clear()
        assert decide_pinn(m)[::2] == (True, True)
        assert seen == [cap], text

    # 555552 is a PINN and 5555520 is not: against a criterion that accepts
    # everything, one zero reaches the DP and its witness lifts to full width
    monkeypatch.setattr(orbits, "is_pinn_criterion", says_pinn)
    m = DigitMultiset.from_string("5555520_(9)")
    seen.clear()
    ok, witness, residue_counted = decide_pinn(m)
    assert not ok and residue_counted and seen == [1]
    assert_is_witness(m, witness)

    # a digit sum above 81 is still not capped, so the table guard trips
    with pytest.raises(BudgetExceeded):
        decide_pinn(DigitMultiset.from_string("1_(200)20_(200)"))


@st.composite
def wide_multisets(draw) -> DigitMultiset:
    """Width up to 10^4: a zero-free core, or up to three nonzero digits
    with digit sum at most 81, padded with zeros."""
    cores = [core for group in GROUP_CORES for core in group]
    if draw(st.booleans()):
        m = DigitMultiset.from_string(draw(st.sampled_from(cores)))
    else:
        counts = [0] * 10
        for d in draw(st.lists(st.integers(1, 9), min_size=1, max_size=3, unique=True)):
            counts[d] = draw(st.integers(1, 81 // d))
        m = DigitMultiset(tuple(counts))
        assume(m.digit_sum <= 81)
    return m.with_zeros(draw(st.integers(0, 10**4 - m.k)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(wide_multisets())
def test_decide_pinn_agrees_with_the_criterion_up_to_width_10_4(m):
    import permniven.orbits as orbits

    ok, proof, residue_counted = decide_pinn(m)
    assert ok == is_pinn_criterion(m)[0]
    if ok:
        assert residue_counted == (not m.is_repdigit)
    else:
        assert_is_witness(m, proof)

    # with a criterion that accepts everything, the second decider alone
    # must reach the same verdict, and a DP witness found with the zeros
    # capped must hold at full width
    with mock.patch.object(orbits, "is_pinn_criterion", says_pinn):
        if m.is_repdigit and not ok:
            with pytest.raises(ArithmeticError):
                decide_pinn(m)
            return
        second, witness, _ = decide_pinn(m)
    assert second == ok
    if not ok:
        assert_is_witness(m, witness)


def test_pinn_record_is_the_multiset_and_its_proof():
    assert PinnRecord._fields == ("multiset", "proof")
    assert not is_pinn_criterion(DigitMultiset.from_string("13"))[0]
    m = DigitMultiset.from_string("2448")
    ok, proof = is_pinn_criterion(m)
    assert ok and isinstance(proof, CriterionProof)
    rec = PinnRecord(m, proof)
    assert rec.multiset.canonical == "8442"
    assert rec.multiset.digit_sum == 18
    assert rec.multiset.orbit_size == 12


def test_values_permutation_closed():
    assert values_permutation_closed([12, 21])
    assert values_permutation_closed([10])  # 01 collapses out of the 2-digit set
    assert not values_permutation_closed([12])
    assert not values_permutation_closed([13, 31, 103])

