"""Supporting number theory: factorization, multiplicative order, primality.

Everything here is arbitrary-precision.  The factorizer does trial division
up to 10^4 and then Brent's variant of Pollard rho under a wall-clock budget;
orders that would need factorizations beyond that budget are reported as
unavailable instead of guessed.  Rho finds a factor between 10^4 and 10^6 in
a few hundred steps, long before trial division would reach it.
"""
from __future__ import annotations

import time
from math import gcd, isqrt, lcm
from typing import NamedTuple

__all__ = [
    "FactorizationTimeout",
    "PrimalityVerdict",
    "factorize",
    "multiplicative_order",
    "probable_prime",
]

TRIAL_LIMIT = 10**4
RHO_BUDGET_SECONDS = 5.0

# Deterministic Miller-Rabin with the first 13 prime bases is correct below
# this bound (3.3 * 10^24).
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


class FactorizationTimeout(Exception):
    pass


# --- primality ----------------------------------------------------------------

def _miller_rabin_witness(n: int, a: int) -> bool:
    """True when a proves n composite."""
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("n must be odd and positive")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _is_square(n: int) -> bool:
    r = isqrt(n)
    return r * r == n


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable prime test with Selfridge's parameter choice."""
    if _is_square(n):
        return False
    D = 5
    while True:
        j = jacobi(D % n, n)
        if j == -1:
            break
        if j == 0 and abs(D) % n != 0:
            return False
        D = -(D + 2) if D > 0 else -(D - 2)
    Q = (1 - D) // 4

    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1

    # compute U_d, V_d by the binary chain; P = 1
    U, V, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U = U * V % n
        V = (V * V - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            U, V = (U + V) % n, (V + D * U) % n
            if U % 2:
                U += n
            if V % 2:
                V += n
            U, V = U // 2 % n, V // 2 % n
            qk = qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * qk) % n
        if V == 0:
            return True
        qk = qk * qk % n
    return False


class PrimalityVerdict(NamedTuple):
    n: int
    is_prime: bool
    method: str  # "deterministic" or "probabilistic"


def probable_prime(n: int) -> PrimalityVerdict:
    """Deterministic Miller-Rabin below 3.3e24, Baillie-PSW above."""
    if n < 2:
        return PrimalityVerdict(n, False, "deterministic")
    for p in _MR_BASES:
        if n == p:
            return PrimalityVerdict(n, True, "deterministic")
        if n % p == 0:
            return PrimalityVerdict(n, False, "deterministic")
    if n < _MR_DETERMINISTIC_BOUND:
        composite = any(_miller_rabin_witness(n, a) for a in _MR_BASES)
        return PrimalityVerdict(n, not composite, "deterministic")
    if _miller_rabin_witness(n, 2):
        return PrimalityVerdict(n, False, "deterministic")
    return PrimalityVerdict(n, _strong_lucas_prp(n), "probabilistic")


# --- factorization --------------------------------------------------------------

def _brent_rho(n: int, deadline: float) -> int:
    """One nontrivial factor of composite odd n, or raises on timeout."""
    seed = 1
    while True:
        y, c, m = seed, seed + 1, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            if time.monotonic() > deadline:
                raise FactorizationTimeout(f"rho budget exhausted on {n}")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
        seed += 1  # cycle degenerated; retry with a new parameter


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}.

    Raises FactorizationTimeout when the rho budget of RHO_BUDGET_SECONDS
    runs out first.
    """
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    deadline = time.monotonic() + RHO_BUDGET_SECONDS
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    p = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    w = 0
    while p * p <= n and p <= TRIAL_LIMIT:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += wheel[w]
        w = (w + 1) % 8
    if n == 1:
        return factors
    stack = [n]
    while stack:
        m = stack.pop()
        if probable_prime(m).is_prime:
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _brent_rho(m, deadline)
        stack.extend((d, m // d))
    return factors


# --- multiplicative order --------------------------------------------------------

def _order_mod_prime_power(base: int, p: int, e: int) -> int:
    pe = p**e
    t = (p - 1) * p ** (e - 1)
    for q in factorize(t):
        while t % q == 0 and pow(base, t // q, pe) == 1:
            t //= q
    return t


def multiplicative_order(base: int, m: int) -> int:
    """Least t >= 1 with base^t == 1 (mod m).

    Needs the factorization of m and of each p-1, each under the time
    budget of ``factorize``.  Raises ValueError for m < 1 or gcd(base, m) > 1.
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    if m == 1:
        return 1
    if gcd(base, m) != 1:
        raise ValueError(f"gcd({base}, {m}) != 1")
    result = 1
    for p, e in factorize(m).items():
        result = lcm(result, _order_mod_prime_power(base, p, e))
    return result
