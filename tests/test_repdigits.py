"""Repdigit divisibility conditions, the exponent grid, and zero probes."""
from __future__ import annotations

import math
import random
from itertools import product

import pytest

from permniven import repdigits
from permniven.numtheory import multiplicative_order, probable_prime
from permniven.repdigits import (
    CONJECTURE_PRIMES,
    DEFAULT_GRID_BOUNDS,
    DISTINGUISHED_PRIMES,
    ConjectureConstraints,
    exact_condition_sweep,
    modpow10,
    repdigit_niven_check,
    verify_conjecture_grid,
    zero_insertion_probe,
)

SWEEP_PREFIX = [1, 3, 9, 27, 81, 111, 243, 333, 729, 999, 2187, 2997]


def test_exact_condition_is_divisibility_of_the_repdigit():
    # a * R_k is Niven iff 10^k == 1 (mod 9k); a cancels out
    for a in (1, 3, 7):
        for k in range(1, 60):
            repdigit = int(str(a) * k)
            expected = repdigit % (a * k) == 0
            assert repdigit_niven_check(a, k).exact == expected, (a, k)


def test_strict_condition_first_diverges_at_a3_k3():
    # 333 is Niven, yet 10^3 = 28 (mod 81) breaks the 9ka form
    chk = repdigit_niven_check(3, 3)
    assert chk.exact and not chk.strict
    chk = repdigit_niven_check(1, 3)
    assert chk.exact and chk.strict
    # for a = 1 the two conditions coincide everywhere
    for k in range(1, 200):
        chk = repdigit_niven_check(1, k)
        assert chk.strict == chk.exact


def test_repdigit_check_validates_digit():
    with pytest.raises(ValueError):
        repdigit_niven_check(0, 3)
    with pytest.raises(ValueError):
        repdigit_niven_check(10, 3)


def test_modpow10_factored_matches_plain():
    rng = random.Random(43)
    for _ in range(150):
        exps = {
            name: rng.randrange(3)
            for name in ("n", "alpha", "beta", "gamma1", "delta1")
        }
        cons = ConjectureConstraints(**exps)
        m = rng.randrange(2, 10**9)
        assert modpow10(cons, m) == pow(10, cons.k, m)


def test_modpow10_rejects_tiny_modulus():
    with pytest.raises(ValueError):
        modpow10(3, 1)


def test_factored_k_value_and_guard():
    cons = ConjectureConstraints(n=2, alpha=1)
    assert cons.factors == ((3, 2), (37, 1))
    assert cons.k == 333
    huge = ConjectureConstraints(n=1000000)
    with pytest.raises(OverflowError):
        huge.k
    assert huge.bit_estimate > 10**6
    # bit_estimate counts 2 bits per factor 3, plus one
    at_cap = ConjectureConstraints(n=(repdigits.K_BIT_CAP - 1) // 2)
    assert at_cap.bit_estimate <= repdigits.K_BIT_CAP
    assert at_cap.k == 3**at_cap.n
    over = ConjectureConstraints(n=at_cap.n + 1)
    assert over.bit_estimate > repdigits.K_BIT_CAP
    with pytest.raises(OverflowError):
        repdigit_niven_check(1, over)


def test_empty_exponents_mean_k_equals_one():
    cons = ConjectureConstraints()
    assert cons.factors == () and cons.k == 1 and cons.bit_estimate == 1
    assert repdigit_niven_check(5, cons).exact  # 5 is divisible by 5


def test_ladder():
    assert ConjectureConstraints(n=1, alpha=2).satisfies_ladder()
    assert not ConjectureConstraints(alpha=1).satisfies_ladder()
    assert not ConjectureConstraints(n=1, beta=1).satisfies_ladder()
    assert not ConjectureConstraints(n=3, delta2=1).satisfies_ladder()
    assert ConjectureConstraints(n=4, delta2=1, gamma1=1).satisfies_ladder()
    with pytest.raises(ValueError):
        ConjectureConstraints(n=-1)


def test_conjecture_primes_are_prime_with_3_power_orders():
    for name, p in CONJECTURE_PRIMES.items():
        assert probable_prime(p).is_prime, name
        if name == "n":
            continue
        order = multiplicative_order(10, p)
        # the whole parameterization works because each order is a 3-power
        assert order in (1, 3, 9, 27, 81, 243), (name, order)


def test_grid_default_bounds_pass():
    report = verify_conjecture_grid()
    assert report.bounds == DEFAULT_GRID_BOUNDS
    assert report.all_ok
    assert report.skipped_over_cap == 0
    assert not report.failures()
    # both polarities are present
    verdicts = {e.expected for e in report.entries}
    assert verdicts == {True, False}
    negatives = [e for e in report.entries if not e.expected]
    assert len(negatives) == 9  # one minimal violation per non-n parameter
    assert all(not e.exact for e in negatives)


def reference_grid(bounds):
    """The grid by the plain route: every tuple within bounds, filtered by
    the ladder, decided by pow with k itself as the exponent; then the nine
    minimal violations.  Returns (entries, skipped_over_cap)."""
    entries = []
    skipped = 0
    for combo in product(*(range(e + 1) for e in bounds.as_tuple())):
        exp = ConjectureConstraints(*combo)
        if not exp.satisfies_ladder():
            continue
        if exp.bit_estimate + 4 > repdigits.GRID_BIT_CAP:
            skipped += 1
            continue
        m = 9 * exp.k
        entries.append((combo, m.bit_length(), pow(10, exp.k, m) == 1, True))
    # each parameter with ord_p(10) = 3^j is allowed from n = j on
    for name, p in CONJECTURE_PRIMES.items():
        if name == "n":
            continue
        floor_n = round(math.log(multiplicative_order(10, p), 3))
        exp = ConjectureConstraints(n=floor_n - 1, **{name: 1})
        m = 9 * exp.k
        entries.append((exp.as_tuple(), m.bit_length(), pow(10, exp.k, m) == 1, False))
    return entries, skipped


# The reference builds every one of the 4^10 tuples of uniform bounds 3,
# about 6 s, so the lowered caps run on the default bounds only.
GRID_CASES = {
    **{f"uniform{e}": (ConjectureConstraints(*[e] * 10), None) for e in range(4)},
    "default": (DEFAULT_GRID_BOUNDS, None),
    "default-cap16": (DEFAULT_GRID_BOUNDS, 16),
    "default-cap64": (DEFAULT_GRID_BOUNDS, 64),
}


@pytest.mark.parametrize("bounds, bit_cap", GRID_CASES.values(), ids=GRID_CASES)
def test_grid_matches_the_plain_reference(monkeypatch, bounds, bit_cap):
    if bit_cap is not None:
        monkeypatch.setattr(repdigits, "GRID_BIT_CAP", bit_cap)
    report = verify_conjecture_grid(bounds)
    entries, skipped = reference_grid(bounds)
    assert [
        (e.exponents.as_tuple(), e.modulus_bits, e.exact, e.expected)
        for e in report.entries
    ] == entries
    assert report.skipped_over_cap == skipped
    assert report.bit_cap == repdigits.GRID_BIT_CAP
    if bit_cap is not None:
        assert skipped > 0


def test_grid_refuses_too_many_ladder_tuples():
    with pytest.raises(OverflowError, match="1953781 ladder tuples"):
        verify_conjecture_grid(ConjectureConstraints(*[4] * 10))
    # ladder-free parameters add nothing, however large their bound
    report = verify_conjecture_grid(ConjectureConstraints(n=0, delta5=10**12))
    assert report.entries[0].exponents == ConjectureConstraints()
    assert len(report.entries) == 1 + 9


def test_grid_bit_cap_skips_and_reports(monkeypatch):
    # a grid that crosses the real cap of 4096 bits takes seconds
    monkeypatch.setattr(repdigits, "GRID_BIT_CAP", 16)
    report = verify_conjecture_grid(ConjectureConstraints(n=6, alpha=2, beta=2))
    assert report.bit_cap == 16
    assert report.skipped_over_cap > 0
    assert all(e.modulus_bits <= 16 for e in report.entries if e.expected)


def test_sweep_prefix_and_completeness():
    assert exact_condition_sweep(3000) == SWEEP_PREFIX
    assert len(exact_condition_sweep(10**5)) == 25
    assert len(exact_condition_sweep(3 * 10**5)) == 31
    # the sweep visits only k == 3 (mod 6); the brute scan visits every k
    brute = [k for k in range(1, 10**5 + 1) if pow(10, k, 9 * k) == 1]
    assert exact_condition_sweep(10**5) == brute
    assert exact_condition_sweep(1199) == [k for k in brute if k <= 1199]
    assert exact_condition_sweep(1) == exact_condition_sweep(2) == [1]
    assert exact_condition_sweep(0) == exact_condition_sweep(-5) == []


def test_sweep_members_satisfy_the_ladder_parameterization():
    primes = set(CONJECTURE_PRIMES.values())
    for k in exact_condition_sweep(10**4):
        rest = k
        for p in primes:
            while rest % p == 0:
                rest //= p
        assert rest == 1, k  # no factor outside the conjecture's primes


def test_zero_insertion_probe_mechanics():
    probe = zero_insertion_probe("18", 1, 2)
    assert probe.modified == "1008"
    assert probe.residue == 1008 % 9
    probe = zero_insertion_probe("18", 0, 1)
    assert probe.modified == "180"
    assert probe.is_niven
    with pytest.raises(ValueError):
        zero_insertion_probe("18", 3, 1)
    with pytest.raises(ValueError):
        zero_insertion_probe("18", 1, 0)


def test_zero_insertion_known_residues():
    assert zero_insertion_probe("1_(27)", 1, 1).residue == 18
    assert zero_insertion_probe("1_(81)", 1, 1).residue == 72
    assert zero_insertion_probe("1_(111)", 1, 1).residue == 102
    assert zero_insertion_probe("1_(111)", 1, 2).residue == 12


def test_distinguished_list_shape():
    assert len(DISTINGUISHED_PRIMES) == 33
    assert len(set(DISTINGUISHED_PRIMES)) == 33


def test_distinguished_primes_divide_repdigit_pinns():
    # p divides the repdigit PINN 1_(k) when 10^k == 1 (mod 9p) and k is a
    # width with 10^k == 1 (mod 9k).  Such a k exists when ord_p(10) has no
    # prime factor outside the conjecture's primes; look for one among
    # ord_p(10) * 3^j.
    primes = set(CONJECTURE_PRIMES.values())
    assert list(DISTINGUISHED_PRIMES) == sorted(DISTINGUISHED_PRIMES)
    for p in DISTINGUISHED_PRIMES:
        order = multiplicative_order(10, p)
        rest = order
        for q in primes:
            while rest % q == 0:
                rest //= q
        assert rest == 1, (p, order)
        widths = [order * 3**j for j in range(8)]
        assert any(
            pow(10, k, 9 * k) == 1 and pow(10, k, 9 * p) == 1 for k in widths
        ), p
