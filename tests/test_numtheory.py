"""Primality, factoring, and multiplicative orders."""
from __future__ import annotations

import random
from math import gcd

import pytest

from permniven.numtheory import (
    TRIAL_LIMIT,
    PrimalityVerdict,
    factorize,
    jacobi,
    multiplicative_order,
    probable_prime,
)

PRIMES_BELOW_3000 = [
    p for p in range(2, 3000)
    if all(p % d for d in range(2, int(p**0.5) + 1))
]


def test_jacobi_matches_euler_criterion_for_primes():
    for p in PRIMES_BELOW_3000:
        if p == 2:
            continue
        for a in range(0, min(p, 40)):
            expected = pow(a, (p - 1) // 2, p)
            if expected == p - 1:
                expected = -1
            assert jacobi(a, p) == expected, (a, p)


def test_jacobi_is_multiplicative_in_the_numerator():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randrange(3, 10**6) | 1
        a, b = rng.randrange(n), rng.randrange(n)
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


def test_jacobi_rejects_even_modulus():
    with pytest.raises(ValueError):
        jacobi(3, 10)


def test_probable_prime_exhaustive_small():
    small = set(PRIMES_BELOW_3000)
    for n in range(1, 3000):
        v = probable_prime(n)
        assert isinstance(v, PrimalityVerdict)
        assert v.is_prime == (n in small), n
        assert v.method == "deterministic"


# 2047 = 23*89 is the first strong pseudoprime to base 2; the rest are
# Carmichael numbers and other classic Miller-Rabin trouble spots.
@pytest.mark.parametrize("n", [2047, 3215031751, 561, 1105, 1729, 41041, 825265])
def test_probable_prime_rejects_pseudoprimes(n):
    assert not probable_prime(n).is_prime


@pytest.mark.parametrize(
    "n, method",
    [
        (2**31 - 1, "deterministic"),
        (2**61 - 1, "deterministic"),
        (10**24 + 7, "deterministic"),  # still below the 13-base bound
        (2**89 - 1, "probabilistic"),
        (2**127 - 1, "probabilistic"),
    ],
)
def test_probable_prime_large_and_method_tag(n, method):
    v = probable_prime(n)
    assert v.is_prime
    assert v.method == method


def test_probable_prime_rejects_large_composites():
    # A 60-digit semiprime; BPSW has no known counterexamples.
    p, q = 2**89 - 1, 2**107 - 1
    assert not probable_prime(p * q).is_prime


def test_factorize_reconstructs_and_yields_primes():
    rng = random.Random(37)
    ns = [rng.randrange(2, 10**12) for _ in range(200)]
    # past 10^12 more factors lie beyond trial division and fall to rho
    ns += [rng.randrange(2, 10**16) for _ in range(300)]
    for n in ns:
        f = factorize(n)
        prod = 1
        for p, e in f.items():
            assert probable_prime(p).is_prime
            prod *= p**e
        assert prod == n
    assert factorize(2**10) == {2: 10}
    assert factorize(86455449) == {3: 2, 9606161: 1}


@pytest.mark.parametrize(
    "n, factors",
    [
        (10007**2, {10007: 2}),
        (10007**3 * 999983**2, {10007: 3, 999983: 2}),
        (99991 * 99989, {99991: 1, 99989: 1}),
        (65537**4, {65537: 4}),
        ((2**61 - 1) * 1000003, {2**61 - 1: 1, 1000003: 1}),
    ],
)
def test_factorize_finds_factors_beyond_trial_division(n, factors):
    # every prime here lies above the trial-division limit, so rho finds it
    assert min(factors) > TRIAL_LIMIT
    assert factorize(n) == factors


def test_multiplicative_order_matches_brute_force():
    rng = random.Random(41)
    for _ in range(200):
        m = rng.randrange(2, 4000)
        base = rng.randrange(2, m)
        if gcd(base, m) != 1:
            with pytest.raises(ValueError, match=r"gcd\("):
                multiplicative_order(base, m)
            continue
        t = multiplicative_order(base, m)
        r, brute = base % m, 1
        while r != 1:
            r = r * base % m
            brute += 1
        assert t == brute, (base, m)


@pytest.mark.parametrize(
    "m, order",
    [
        (3, 1), (9, 1), (27, 3), (81, 9), (111, 3), (37, 3),
        (333667, 9), (757, 27), (9397, 81), (163, 81), (2462401, 81),
    ],
)
def test_known_orders_of_ten(m, order):
    assert multiplicative_order(10, m) == order


def test_multiplicative_order_edge_cases():
    assert multiplicative_order(10, 1) == 1
    with pytest.raises(ValueError):
        multiplicative_order(10, 0)
    with pytest.raises(ValueError, match=r"gcd\("):
        multiplicative_order(10, 20)
