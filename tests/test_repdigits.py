"""Repdigit divisibility conditions, the exponent grid, and zero probes."""
from __future__ import annotations

import math
import random
import re
from itertools import product

import pytest

from permniven import repdigits
from permniven.digits import _parse_runs, expand
from permniven.numtheory import multiplicative_order, probable_prime
from permniven.repdigits import (
    CONJECTURE_PRIMES,
    DEFAULT_GRID_BOUNDS,
    DISTINGUISHED_PRIMES,
    ConjectureConstraints,
    ZeroInsertionProbe,
    exact_condition_sweep,
    repdigit_niven_check,
    verify_conjecture_grid,
    zero_insertion_probe,
)
from test_digits import reference_value_mod

SWEEP_PREFIX = [1, 3, 9, 27, 81, 111, 243, 333, 729, 999, 2187, 2997]


def test_exact_condition_is_divisibility_of_the_repdigit():
    # a * R_k is Niven iff 10^k == 1 (mod 9k); a cancels out.  This closed
    # form is decide_pinn's second decider for repdigits, so it is checked
    # here against the digit string itself.
    for a in range(1, 10):
        for k in range(1, 2001):
            expected = reference_value_mod(str(a) * k, a * k) == 0
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


def test_strict_condition_is_divisibility_of_the_repunit():
    # 10^k == 1 (mod 9ka) iff ka divides R_k = (10^k - 1) / 9; the check
    # reads both conditions off one power mod 9ka
    for a in range(1, 10):
        for k in range(1, 501):
            expected = reference_value_mod("1" * k, k * a) == 0
            assert repdigit_niven_check(a, k).strict == expected, (a, k)


def test_repdigit_check_validates_digit():
    with pytest.raises(ValueError):
        repdigit_niven_check(0, 3)
    with pytest.raises(ValueError):
        repdigit_niven_check(10, 3)


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
        over.k


def test_empty_exponents_mean_k_equals_one():
    cons = ConjectureConstraints()
    assert cons.factors == () and cons.k == 1 and cons.bit_estimate == 1
    assert repdigit_niven_check(5, cons.k).exact  # 5 is divisible by 5


def test_ladder():
    assert ConjectureConstraints(n=1, alpha=2).satisfies_ladder()
    assert not ConjectureConstraints(alpha=1).satisfies_ladder()
    assert not ConjectureConstraints(n=1, beta=1).satisfies_ladder()
    assert not ConjectureConstraints(n=3, delta2=1).satisfies_ladder()
    assert ConjectureConstraints(n=4, delta2=1, gamma1=1).satisfies_ladder()
    with pytest.raises(ValueError):
        ConjectureConstraints(n=-1)
    with pytest.raises(ValueError, match="exponents are non-negative"):
        ConjectureConstraints(n=1)._replace(delta5=-1)


def test_conjecture_primes_are_prime_with_3_power_orders():
    for name, p in CONJECTURE_PRIMES.items():
        assert probable_prime(p).is_prime, name
        if name == "n":
            continue
        order = multiplicative_order(10, p)
        # the whole parameterization works because each order is a 3-power
        assert order in (1, 3, 9, 27, 81, 243), (name, order)
    # 3 is the only base-10 Wieferich prime among them, so the others have
    # ord_{p^e}(10) = ord_p(10) * p^(e-1), which the grid's expected relies on
    assert [p for p in CONJECTURE_PRIMES.values() if pow(10, p - 1, p * p) == 1] == [3]


@pytest.mark.parametrize("j, primes", [
    (1, [37]),
    (2, [333667]),
    (3, [757, 440334654777631]),
    (4, [163, 9397, 2462401, 676421558270641, 130654897808007778425046117]),
])
def test_conjecture_primes_are_every_prime_of_order_3_to_81(j, primes):
    # every prime of order 3^j divides the cyclotomic value Phi_{3^j}(10),
    # so these products show that the list holds all of them: the tree of
    # exact_condition_sweep takes its children of these orders from it
    cyclotomic = (10 ** 3**j - 1) // (10 ** 3 ** (j - 1) - 1)
    of_order = [
        p for p in CONJECTURE_PRIMES.values()
        if pow(10, 3**j, p) == 1 and pow(10, 3 ** (j - 1), p) != 1
    ]
    assert sorted(of_order) == primes
    assert cyclotomic == 3 * math.prod(primes)
    assert all(probable_prime(p).is_prime for p in primes)


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


def test_grid_elapsed_is_not_part_of_report_identity():
    r = verify_conjecture_grid()
    clone = r._replace(elapsed=r.elapsed + 123.0)
    assert clone == r and not clone != r and hash(clone) == hash(r)
    assert verify_conjecture_grid() == r
    other = r._replace(skipped_over_cap=r.skipped_over_cap + 1)
    assert other != r and not other == r


def reference_grid(bounds):
    """The grid by the plain route: every tuple within bounds, filtered by
    ladder floors of its own, decided by pow with k itself as the exponent;
    then the nine minimal violations.  Returns (entries, skipped_over_cap)."""
    # each parameter with ord_p(10) = 3^j is allowed from n = j on
    names = list(CONJECTURE_PRIMES)[1:]
    floors = [
        round(math.log(multiplicative_order(10, CONJECTURE_PRIMES[name]), 3))
        for name in names
    ]
    entries = []
    skipped = 0
    for combo in product(*(range(e + 1) for e in bounds.as_tuple())):
        n = combo[0]
        if any(e and n < floor_n for e, floor_n in zip(combo[1:], floors)):
            continue
        exp = ConjectureConstraints(*combo)
        if exp.bit_estimate + 4 > repdigits.GRID_BIT_CAP:
            skipped += 1
            continue
        m = 9 * exp.k
        entries.append((combo, m.bit_length(), pow(10, exp.k, m) == 1, True))
    for name, floor_n in zip(names, floors):
        exp = ConjectureConstraints(n=floor_n - 1, **{name: 1})
        m = 9 * exp.k
        entries.append((exp.as_tuple(), m.bit_length(), pow(10, exp.k, m) == 1, False))
    return entries, skipped


# The reference visits every one of the 4^10 tuples of uniform bounds 3,
# about 1.5 s, so the lowered caps run on the default bounds only.
GRID_CASES = {
    **{f"uniform{e}": (ConjectureConstraints(*[e] * 10), None) for e in range(4)},
    "default": (DEFAULT_GRID_BOUNDS, None),
    "default-cap16": (DEFAULT_GRID_BOUNDS, 16),
    "default-cap64": (DEFAULT_GRID_BOUNDS, 64),
    # from n = 30 on, 3^n alone passes the cap, so whole levels of n are skipped
    "n40-cap64": (ConjectureConstraints(n=40), 64),
}


@pytest.mark.parametrize("bounds, bit_cap", GRID_CASES.values(), ids=GRID_CASES)
def test_grid_matches_the_plain_reference(monkeypatch, bounds, bit_cap):
    if bit_cap is not None:
        monkeypatch.setattr(repdigits, "GRID_BIT_CAP", bit_cap)
    report = verify_conjecture_grid(bounds)
    entries, skipped = reference_grid(bounds)
    assert [
        (e.exponents, e.modulus_bits, e.exact, e.expected)
        for e in report.entries
    ] == entries
    assert report.skipped_over_cap == skipped
    assert report.bit_cap == repdigits.GRID_BIT_CAP
    if bit_cap is not None:
        assert skipped > 0


def test_grid_decides_every_no_by_the_plain_pow(monkeypatch):
    # With every per-part check faked to "no", each tuple with a prime other
    # than 3 is decided by the plain pow(10, k, 9k), and the grid still
    # matches the reference.
    plain = []

    def no_part_passes(base, exp, mod):
        if mod == 9 * exp:
            plain.append(exp)
            return pow(base, exp, mod)
        return 0

    monkeypatch.setattr(repdigits, "pow", no_part_passes, raising=False)
    report = verify_conjecture_grid()
    entries, _ = reference_grid(DEFAULT_GRID_BOUNDS)
    assert [
        (e.exponents, e.modulus_bits, e.exact, e.expected)
        for e in report.entries
    ] == entries
    assert sorted(plain) == sorted(
        math.prod(p**x for p, x in zip(CONJECTURE_PRIMES.values(), e.exponents))
        for e in report.entries if any(e.exponents[1:])
    )


def is_power_of_3(m):
    while m % 3 == 0:
        m //= 3
    return m == 1


@pytest.mark.parametrize("bounds", [DEFAULT_GRID_BOUNDS, ConjectureConstraints(n=3000)])
def test_grid_takes_the_power_of_3_from_the_lifting(monkeypatch, bounds):
    # 3^(n+2) passes by v3(10^k - 1) = 2 + v3(k), so no call raises 10 to a
    # power modulo a power of 3, and n = 3000 takes no 3^3002-sized pow
    moduli = []

    def spy(base, exp, mod):
        moduli.append(mod)
        return pow(base, exp, mod)

    monkeypatch.setattr(repdigits, "pow", spy, raising=False)
    report = verify_conjecture_grid(bounds)
    assert report.all_ok
    assert moduli and not any(is_power_of_3(m) for m in moduli)


def test_the_ladder_rests_on_lifting_and_on_no_wieferich_square():
    # the finite part of the README's proof that the ladder is exact
    for n in range(300):
        r = pow(10, 3**n, 3 ** (n + 3))
        assert (r - 1) % 3 ** (n + 2) == 0 and r != 1, n
    for name, j in repdigits._LADDER.items():
        p = CONJECTURE_PRIMES[name]
        assert pow(10, 3**j, p) == 1 and pow(10, 3**j, p * p) != 1, name


def test_the_ladder_is_the_exact_condition_on_random_tuples():
    # n up to 7, each other exponent 0 or, one time in four, 1 to 3: k stays
    # under 810 bits, and about 40% of the tuples break the ladder, far
    # more than the nine minimal violations
    rng = random.Random(21)
    broken = kept = 0
    for _ in range(2000):
        exp = ConjectureConstraints(
            rng.randrange(8),
            *(rng.randrange(1, 4) if rng.random() < 0.25 else 0 for _ in range(9)),
        )
        k = exp.k
        assert exp.satisfies_ladder() == (pow(10, k, 9 * k) == 1), exp
        if exp.satisfies_ladder():
            kept += 1
        else:
            broken += 1
    assert broken > 500 and kept > 500


def test_grid_refuses_too_many_ladder_tuples():
    with pytest.raises(OverflowError, match="1953781 ladder tuples"):
        verify_conjecture_grid(ConjectureConstraints(*[4] * 10))
    # ladder-free parameters add nothing, however large their bound
    report = verify_conjecture_grid(ConjectureConstraints(n=0, delta5=10**12))
    assert report.entries[0].exponents == (0,) * 10
    assert len(report.entries) == 1 + 9


def test_grid_bit_cap_skips_and_reports(monkeypatch):
    # a grid that crosses the real cap of 4096 bits takes seconds
    monkeypatch.setattr(repdigits, "GRID_BIT_CAP", 16)
    report = verify_conjecture_grid(ConjectureConstraints(n=6, alpha=2, beta=2))
    assert report.bit_cap == 16
    assert report.skipped_over_cap > 0
    assert all(e.modulus_bits <= 16 for e in report.entries if e.expected)


def reference_sweep(limit):
    """All k <= limit with 10^k == 1 (mod 9k), scanning only the k that can
    qualify.

    Let k > 1 qualify.  Then 10 is a unit mod 9k, so k is odd and 5 does not
    divide it.  Let p be the smallest prime factor of k.  The order of 10
    mod p divides k, as 10^k == 1 (mod p), and divides p - 1 by Fermat.
    Every prime factor of p - 1 is below p and so does not divide k, hence
    gcd(k, p - 1) = 1, the order is 1, and p divides 10 - 1 = 9: p = 3.
    So k is an odd multiple of 3, k == 3 (mod 6), and 5 does not divide it.
    """
    if limit < 1:
        return []
    return [1] + [
        k for k in range(3, limit + 1, 6) if k % 5 and pow(10, k, 9 * k) == 1
    ]


def test_sweep_prefix_and_completeness():
    assert exact_condition_sweep(3000) == SWEEP_PREFIX
    assert len(exact_condition_sweep(10**5)) == 25
    assert len(exact_condition_sweep(3 * 10**5)) == 31
    # the tree against the k == 3 (mod 6) scan: every limit to 3000, whose
    # reference is a prefix of the scan to 3000, and three larger ones
    scan = reference_sweep(3000)
    for limit in range(1, 3001):
        assert exact_condition_sweep(limit) == [k for k in scan if k <= limit], limit
    for limit in (10**5, 3 * 10**5, 10**6):
        assert exact_condition_sweep(limit) == reference_sweep(limit), limit
    # the brute scan visits every k
    brute = [k for k in range(1, 10**5 + 1) if pow(10, k, 9 * k) == 1]
    assert exact_condition_sweep(10**5) == brute
    assert exact_condition_sweep(1199) == [k for k in brute if k <= 1199]
    assert exact_condition_sweep(1) == exact_condition_sweep(2) == [1]
    assert exact_condition_sweep(0) == exact_condition_sweep(-5) == []
    # a limit that is itself a width keeps it, one below drops it
    for k in exact_condition_sweep(10**7):
        assert exact_condition_sweep(k)[-1] == k
        assert k not in exact_condition_sweep(k - 1)


def test_sweep_past_the_reference():
    # 178 widths to 10^9, as an independent walk that factored Phi_d(10)
    # for d <= 40 found.  3^6 * 313471 is one: 313471 has order 729, so
    # only the search among p == 1 (mod 486) finds it.
    widths = exact_condition_sweep(10**9)
    assert len(widths) == 178
    assert 3**6 * 313471 in widths
    assert all(pow(10, k, 9 * k) == 1 for k in widths)


def test_sweep_refuses_a_limit_above_the_cap():
    assert repdigits.SWEEP_LIMIT_CAP == 10**10
    with pytest.raises(OverflowError, match=str(repdigits.SWEEP_LIMIT_CAP)):
        exact_condition_sweep(repdigits.SWEEP_LIMIT_CAP + 1)


def test_sweep_checks_children_and_widths(monkeypatch):
    # a walk whose pow says 10^k == 1 for every k modulo the numbers in
    # `fooled`, while the closed form's pow stays true
    fooled = set()

    def walk_pow(base, exp, mod):
        return 1 if mod in fooled else pow(base, exp, mod)

    monkeypatch.setattr(repdigits, "pow", walk_pow, raising=False)
    # 371 = 7 * 53 == 1 (mod 74) is a candidate child of 111 but not prime
    fooled.add(371)
    assert exact_condition_sweep(10**5) == reference_sweep(10**5)
    # 333667, of order 9, becomes a child of 1 and of 3; the closed form
    # refuses both
    fooled.add(333667)
    with pytest.raises(ArithmeticError, match=r"k = (333667|1001001),"):
        exact_condition_sweep(10**7)


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
    assert probe.modulus == 9
    assert probe.residue == 1008 % 9
    probe = zero_insertion_probe("18", 0, 1)
    assert probe.modified == "180"
    assert probe.is_niven
    with pytest.raises(ValueError):
        zero_insertion_probe("18", 3, 1)
    with pytest.raises(ValueError):
        zero_insertion_probe("18", 1, 0)


def reference_probe(base: str, position: int, zeros: int) -> ZeroInsertionProbe:
    """The probe over the expanded digit string, sliced and reduced by
    Horner's rule, with every run of three or more written as d_(n)."""
    digits = expand(_parse_runs(base))
    assert 0 <= position <= len(digits) and zeros >= 1
    cut = len(digits) - position
    modified = digits[:cut] + "0" * zeros + digits[cut:]
    modulus = sum(map(int, digits))
    residue = reference_value_mod(modified, modulus)
    text = re.sub(r"(\d)\1\1+", lambda run: f"{run[1]}_({len(run[0])})", modified)
    return ZeroInsertionProbe(text, modulus, residue, residue == 0)


def test_zero_insertion_probe_matches_the_expanded_reference():
    rng = random.Random(29)
    for _ in range(400):
        runs = [(rng.choice("0123456789" if rng.random() < 0.5 else "019"),
                 rng.choice([1, 2, 3, rng.randint(1, 60)]))
                for _ in range(rng.randint(1, 6))]
        if not any(d != "0" for d, _ in runs):
            runs.append(("7", 2))
        base = "".join(d if n == 1 else f"{d}_({n})" for d, n in runs)
        width = sum(n for _, n in runs)
        # the ends, and a cut inside or at the edge of a random run
        j = rng.randrange(len(runs))
        inside = sum(n for _, n in runs[j + 1:]) + rng.randint(0, runs[j][1])
        for position in (0, width, inside):
            zeros = rng.choice([1, 2, 3, rng.randint(1, 40)])
            assert zero_insertion_probe(base, position, zeros) == reference_probe(
                base, position, zeros
            ), (base, position, zeros)
    # zeros that touch zeros merge into one run
    assert zero_insertion_probe("100", 0, 1).modified == "10_(3)"
    assert zero_insertion_probe("0_(3)1", 1, 2).modified == "0_(5)1"


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
