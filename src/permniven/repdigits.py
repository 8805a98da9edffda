"""Repdigit Niven machinery.

A repdigit a_(k) is Niven iff 10^k == 1 (mod 9k): writing a_(k) as
a(10^k - 1)/9, divisibility by the digit sum ka reduces to k | R_k, which
is the displayed congruence and does not involve a.  The widely stated
condition with modulus 9ka ("strict" below) is sufficient but not
necessary; both are computed side by side so the gap stays visible
(first divergence: a=3, k=3, where 333 is Niven yet 10^3 mod 81 = 28).

The solution grid: exponent tuples (n, alpha, beta, gamma1, gamma2,
delta1..delta5) build k = 3^n * m0^alpha * ... with each parameter's prime
chosen so its power of 10 has multiplicative order an exact power of 3;
the ladder constraints (n >= 1 when alpha > 0, and so on) are exactly what
makes ord(10, 9k) divide k.  verify_conjecture_grid checks both
directions: ladder-satisfying tuples must pass the exact condition,
minimal ladder violations must fail it.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product
from math import prod
from operator import attrgetter
from typing import NamedTuple, Sequence

from .digits import digit_sum_of, parse_number, value_mod

__all__ = [
    "CONJECTURE_PRIMES",
    "DISTINGUISHED_PRIMES",
    "ConjectureConstraints",
    "GridEntry",
    "GridReport",
    "RepdigitCheck",
    "ZeroInsertionProbe",
    "exact_condition_sweep",
    "modpow10",
    "repdigit_niven_check",
    "verify_conjecture_grid",
    "zero_insertion_probe",
]

# Parameter -> prime.  Each prime p at ladder level j satisfies
# ord_p(10) = 3^j exactly, which is what the minimal-index constraints
# encode.  Note delta2: the order-81 requirement pins 9397 (the frequently
# quoted 9937 is 19 * 523, composite, and its order is not a power of 3).
CONJECTURE_PRIMES: dict[str, int] = {
    "n": 3,
    "alpha": 37,
    "beta": 333667,
    "gamma1": 757,
    "gamma2": 440334654777631,
    "delta1": 163,
    "delta2": 9397,
    "delta3": 2462401,
    "delta4": 676421558270641,
    "delta5": 130654897808007778425046117,
}

# Minimum n required before each parameter may be nonzero.
_LADDER: dict[str, int] = {
    "alpha": 1,
    "beta": 2,
    "gamma1": 3,
    "gamma2": 3,
    "delta1": 4,
    "delta2": 4,
    "delta3": 4,
    "delta4": 4,
    "delta5": 4,
}

# ConjectureConstraints.k refuses widths of more bits: the two checks of
# 10^k mod 9k and mod 9ka take about a second at this size (2 cores, Python
# 3.11), and their time grows faster than the square of the bit length.
K_BIT_CAP = 6144

# verify_conjecture_grid skips tuples whose modulus 9k may exceed this many bits
GRID_BIT_CAP = 4096

# verify_conjecture_grid refuses bounds with more ladder tuples.  The
# 41637 tuples of n=12, alpha=beta=3, gamma1=gamma2=2 and each delta 1 take
# 3.7 s to check and 1.2 s to print as JSON, at a peak RSS of 154 MB
# (2 cores, Python 3.11).  Uniform bounds of 3 give 277 tuples, of 4
# already 1953781.
GRID_MAX_TUPLES = 50_000

# Primes reported among repdigit-PINN divisors, in ascending order.  Each
# entry p divides a repdigit PINN 1_(k): ord_p(10) is 3^a * q with q in
# {1, 37, 163, 757, 9397}, so some width k with 10^k == 1 (mod 9k) is a
# multiple of it.  One entry differs from the printed list, which reads
# 86455449.  That number is 3^2 * 9606161, and it divides no repdigit
# PINN: ord(10) = 2401540 is even, while every such width is odd.  Of the
# 163 one-digit substitutions, insertions, deletions and adjacent swaps of
# it, 23 are prime and exactly one, 96455449, has an order of the form
# above: ord(10) = 333 = 3^2 * 37, so it divides 1_(333), and 333 is such
# a width.  The list carries 96455449.
DISTINGUISHED_PRIMES: tuple[int, ...] = (
    3, 37, 163, 757, 1999, 8803, 9397, 13627, 15649, 231643, 313471,
    333667, 338293, 1014877, 1056241, 1168711, 2028119, 2064529, 2462401,
    2558791, 4448359, 9438277, 34720813, 96455449, 104620573, 127020961,
    178064569, 247629013, 618846643, 440334654777631, 676421558270641,
    2212394296770203368013, 130654897808007778425046117,
)


@dataclass(frozen=True, slots=True)
class ConjectureConstraints:
    """Grid exponent tuple with the minimal-index ladder."""

    n: int = 0
    alpha: int = 0
    beta: int = 0
    gamma1: int = 0
    gamma2: int = 0
    delta1: int = 0
    delta2: int = 0
    delta3: int = 0
    delta4: int = 0
    delta5: int = 0

    def __post_init__(self) -> None:
        if min(_exponents(self)) < 0:
            raise ValueError("exponents are non-negative")

    def as_tuple(self) -> tuple[int, ...]:
        return _exponents(self)

    def satisfies_ladder(self) -> bool:
        return all(
            getattr(self, name) == 0 or self.n >= floor_n
            for name, floor_n in _LADDER.items()
        )

    @property
    def factors(self) -> tuple[tuple[int, int], ...]:
        """k = 3^n * 37^alpha * ... as (prime, multiplicity), nonzero
        multiplicities only; empty for k = 1."""
        return tuple(
            (p, e) for name, p in CONJECTURE_PRIMES.items() if (e := getattr(self, name))
        )

    @property
    def bit_estimate(self) -> int:
        return sum(e * p.bit_length() for p, e in self.factors) + 1

    @property
    def k(self) -> int:
        if self.bit_estimate > K_BIT_CAP:
            raise OverflowError(
                f"k has about {self.bit_estimate} bits, above the {K_BIT_CAP}-bit cap"
            )
        return prod(p**e for p, e in self.factors)


# the exponents in field order, which is the order of CONJECTURE_PRIMES
_exponents = attrgetter(*CONJECTURE_PRIMES)


def modpow10(k: ConjectureConstraints | int | Sequence[int], m: int) -> int:
    """10^k mod m, raising 10 to one prime power of a factored k at a time.

    A factored k is a ConjectureConstraints or the sequence of its prime
    powers p**e, whose product is k.
    """
    if m < 2:
        raise ValueError("modulus must be >= 2")
    if isinstance(k, int):
        if k < 0:
            raise ValueError("exponent must be non-negative")
        return pow(10, k, m)
    if isinstance(k, ConjectureConstraints):
        k = [p**e for p, e in k.factors]
    r = 10 % m
    for q in k:
        r = pow(r, q, m)
    return r


class RepdigitCheck(NamedTuple):
    strict: bool  # 10^k == 1 (mod 9ka), the commonly quoted form
    exact: bool  # 10^k == 1 (mod 9k), necessary and sufficient


def repdigit_niven_check(a: int, k: ConjectureConstraints | int) -> RepdigitCheck:
    """Is the k-digit repdigit of a a Niven number?  Both conditions."""
    if not 1 <= a <= 9:
        raise ValueError("digit a must be 1..9")
    kv = k if isinstance(k, int) else k.k
    if kv < 1:
        raise ValueError("k must be >= 1")
    return RepdigitCheck(
        strict=modpow10(k, 9 * kv * a) == 1,
        exact=modpow10(k, 9 * kv) == 1,
    )


# --- the solution grid ------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class GridEntry:
    exponents: ConjectureConstraints
    modulus_bits: int  # bit length of 9k
    exact: bool
    expected: bool


@dataclass(frozen=True, slots=True)
class GridReport:
    bounds: ConjectureConstraints
    bit_cap: int
    entries: tuple[GridEntry, ...]
    skipped_over_cap: int
    elapsed: float

    @property
    def all_ok(self) -> bool:
        return all(e.exact == e.expected for e in self.entries)

    def failures(self) -> list[GridEntry]:
        return [e for e in self.entries if e.exact != e.expected]


DEFAULT_GRID_BOUNDS = ConjectureConstraints(
    n=6, alpha=2, beta=2, gamma1=1, gamma2=1,
    delta1=1, delta2=1, delta3=1, delta4=1, delta5=1,
)


def _minimal_violations() -> list[ConjectureConstraints]:
    return [
        ConjectureConstraints(n=floor_n - 1, **{name: 1})
        for name, floor_n in _LADDER.items()
    ]


def _grid_entry(
    exponents: ConjectureConstraints, prime_powers: Sequence[int], expected: bool
) -> GridEntry:
    m = 9 * prod(prime_powers)
    return GridEntry(
        exponents=exponents,
        modulus_bits=m.bit_length(),
        exact=modpow10(prime_powers, m) == 1,
        expected=expected,
    )


def _ladder_bounds(bounds: ConjectureConstraints, n: int) -> list[int]:
    """The bound of each parameter but n at this n: its own where the ladder
    allows the parameter, 0 where it does not."""
    return [
        bound if floor_n <= n else 0
        for floor_n, bound in zip(_LADDER.values(), bounds.as_tuple()[1:])
    ]


def _ladder_tuple_count(bounds: ConjectureConstraints) -> int:
    """How many tuples within bounds satisfy the ladder, in closed form: the
    sum over n of the tuples at that n, which stay the same from the top
    floor on."""
    top = max(_LADDER.values())

    def at(n: int) -> int:
        return prod(b + 1 for b in _ladder_bounds(bounds, n))

    below = sum(at(n) for n in range(min(bounds.n, top) + 1))
    return below + max(bounds.n - top, 0) * at(top)


def verify_conjecture_grid(bounds: ConjectureConstraints | None = None) -> GridReport:
    """Sweep the exponent grid within bounds.

    Ladder-satisfying tuples must pass the exact condition; the minimal
    ladder violations (n one below each parameter's floor) must fail it.
    Only ladder tuples are visited: for each n, the product over the
    parameters the ladder allows, the others fixed at 0, which keeps the
    order of the full product.  Tuples whose modulus may exceed
    GRID_BIT_CAP bits are counted as skipped, never passed silently.
    Raises OverflowError, before any work, when more than GRID_MAX_TUPLES
    tuples satisfy the ladder.
    """
    if bounds is None:
        bounds = DEFAULT_GRID_BOUNDS
    count = _ladder_tuple_count(bounds)
    if count > GRID_MAX_TUPLES:
        raise OverflowError(
            f"the grid has {count} ladder tuples, above the {GRID_MAX_TUPLES}-tuple cap"
        )
    t0 = time.monotonic()
    # Per parameter and exponent e it can take: (e, p**e, e * bits of p), the
    # bits summing to bit_estimate - 1.  p**e is left out (None) where its
    # bits alone put 9k over the cap, as every tuple holding it is skipped.
    table = []
    reach = [bounds.n] + _ladder_bounds(bounds, bounds.n)
    for p, bound in zip(CONJECTURE_PRIMES.values(), reach):
        bits = p.bit_length()
        table.append([
            (e, p**e if e * bits + 5 <= GRID_BIT_CAP else None, e * bits)
            for e in range(bound + 1)
        ])
    entries = []
    skipped = 0
    for n in range(bounds.n + 1):
        axes = [table[0][n:n + 1]] + [
            column[:bound + 1]
            for column, bound in zip(table[1:], _ladder_bounds(bounds, n))
        ]
        for combo in product(*axes):
            exponents, powers, bits = zip(*combo)
            # bit_estimate + 4 bounds the bit length of 9k from above
            if sum(bits) + 1 + 4 > GRID_BIT_CAP:
                skipped += 1
                continue
            entries.append(_grid_entry(
                ConjectureConstraints(*exponents), [q for q in powers if q > 1], expected=True
            ))
    entries.extend(
        _grid_entry(exp, [p**e for p, e in exp.factors], expected=False)
        for exp in _minimal_violations()
    )
    return GridReport(
        bounds=bounds,
        bit_cap=GRID_BIT_CAP,
        entries=tuple(entries),
        skipped_over_cap=skipped,
        elapsed=time.monotonic() - t0,
    )


def exact_condition_sweep(limit: int) -> list[int]:
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


# --- zero insertion ---------------------------------------------------------------

class ZeroInsertionProbe(NamedTuple):
    modified: str  # digit string after insertion
    residue: int  # value of the modified string mod the original digit sum
    is_niven: bool


def zero_insertion_probe(base: str, position: int, zeros: int) -> ZeroInsertionProbe:
    """Insert zeros into a number `position` digits before its end.

    The residue is taken modulo the base's digit sum, which the inserted
    zeros leave unchanged, so is_niven is simply residue == 0.
    """
    digits = parse_number(base)
    if not 0 <= position <= len(digits):
        raise ValueError(f"position must be 0..{len(digits)}")
    if zeros < 1:
        raise ValueError("insert at least one zero")
    cut = len(digits) - position
    modified = digits[:cut] + "0" * zeros + digits[cut:]
    residue = value_mod(modified, digit_sum_of(digits))
    return ZeroInsertionProbe(
        modified=modified, residue=residue, is_niven=residue == 0
    )
