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
makes ord(10, 9k) divide k.  The README proves it under `repdigit --grid`:
3^(n+2) divides 10^k - 1 by lifting the exponent, and no other parameter
prime p has 10^ord_p(10) == 1 (mod p^2), so ord_{p^e}(10) = ord_p(10) *
p^(e-1).  verify_conjecture_grid checks both directions, one prime power
of 9k at a time: ladder-satisfying tuples must pass the exact condition,
minimal ladder violations must fail it.

zero_insertion_probe splices zeros into a number's (digit, count) runs and
reduces the result with ``digits._runs_mod``, so its cost does not grow
with the width.
"""
from __future__ import annotations

import time
from itertools import product
from math import prod
from operator import getitem
from typing import NamedTuple

from .digits import _format_runs, _parse_runs, _runs_mod
from .numtheory import probable_prime

__all__ = [
    "CONJECTURE_PRIMES",
    "DEFAULT_GRID_BOUNDS",
    "DISTINGUISHED_PRIMES",
    "ConjectureConstraints",
    "GridEntry",
    "GridReport",
    "RepdigitCheck",
    "ZeroInsertionProbe",
    "exact_condition_sweep",
    "repdigit_niven_check",
    "verify_conjecture_grid",
    "zero_insertion_probe",
]

# Parameter -> prime.  Each prime p at ladder level j satisfies
# ord_p(10) = 3^j exactly, which is what the minimal-index constraints
# encode; for j = 1..4 they are all the primes of that order, and delta2
# is 9397, not the often quoted 9937 (test_repdigits.py multiplies them out).
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

# Minimum n required before each parameter may be nonzero: p | k needs
# ord_p(10) = 3^j to divide k = 3^n * ..., that is n >= j = log_3 ord_p(10).
_LADDER: dict[str, int] = {
    name: next(j for j in range(6) if pow(10, 3**j, p) == 1)
    for name, p in CONJECTURE_PRIMES.items()
    if name != "n"
}

# ConjectureConstraints.k refuses widths of more bits: the one power of 10
# mod 9ka that repdigit_niven_check raises takes 0.35-0.65 s at this size
# (2 cores, Python 3.11), and its time grows faster than the square of the
# bit length.
K_BIT_CAP = 6144

# exact_condition_sweep refuses larger limits.  It takes about 1.2 s at this
# limit (291 widths) and 12 s at 10^11 (471 widths; 2 cores, Python 3.11),
# most of it testing the candidates p == 1 (mod 74) for children of k = 111.
SWEEP_LIMIT_CAP = 10**10

# verify_conjecture_grid skips tuples whose modulus 9k may exceed this many bits
GRID_BIT_CAP = 4096

# verify_conjecture_grid refuses bounds with more ladder tuples.  A ladder
# tuple costs a product and no modular power, so the cap bounds the cost as
# well as the count.  The 41637 tuples of n=12, alpha=beta=3,
# gamma1=gamma2=2 and each delta 1 take 0.12-0.23 s to check and 0.09-0.15 s
# to write as JSON, at a peak RSS of 62 MB; n=49999 gives 50000 tuples, 2046
# of them under the bit cap, and takes 26-28 ms, since no n is visited past
# the one whose 3^n alone passes the cap (2 cores, Python 3.11).
# Uniform bounds of 3 give 277 tuples, of 4 already 1953781.
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


class _ExponentFields(NamedTuple):
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


class ConjectureConstraints(_ExponentFields):
    """Grid exponent tuple, in CONJECTURE_PRIMES order, with the minimal-index ladder."""

    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> ConjectureConstraints:
        self = super().__new__(cls, *args, **kwargs)
        if min(self) < 0:
            raise ValueError("exponents are non-negative")
        return self

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace validates too

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(self)

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


class RepdigitCheck(NamedTuple):
    strict: bool  # 10^k == 1 (mod 9ka), the commonly quoted form
    exact: bool  # 10^k == 1 (mod 9k), necessary and sufficient


def repdigit_niven_check(a: int, k: int) -> RepdigitCheck:
    """Is the k-digit repdigit of a a Niven number?  Both conditions."""
    if not 1 <= a <= 9:
        raise ValueError("digit a must be 1..9")
    if k < 1:
        raise ValueError("k must be >= 1")
    # 9k divides 9ka, so one power mod 9ka gives 10^k mod 9k as well
    r = pow(10, k, 9 * k * a)
    return RepdigitCheck(strict=r == 1, exact=r % (9 * k) == 1)


# --- the solution grid ------------------------------------------------------------

class GridEntry(NamedTuple):
    exponents: tuple[int, ...]  # in CONJECTURE_PRIMES order
    modulus_bits: int  # bit length of 9k
    exact: bool
    expected: bool


class GridReport(NamedTuple):
    bounds: ConjectureConstraints
    bit_cap: int
    entries: tuple[GridEntry, ...]
    skipped_over_cap: int
    elapsed: float  # the last field, and out of ==, != and hash

    def __eq__(self, other: object) -> bool:
        return self[:-1] == other[:-1] if type(other) is GridReport else NotImplemented

    __ne__ = object.__ne__  # the inverse of __eq__, where tuple's compares elapsed

    def __hash__(self) -> int:
        return hash(self[:-1])

    @property
    def all_ok(self) -> bool:
        return all(e.exact == e.expected for e in self.entries)

    def failures(self) -> list[GridEntry]:
        return [e for e in self.entries if e.exact != e.expected]


DEFAULT_GRID_BOUNDS = ConjectureConstraints(
    n=6, alpha=2, beta=2, gamma1=1, gamma2=1,
    delta1=1, delta2=1, delta3=1, delta4=1, delta5=1,
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
    order of the full product.  A tuple passes when every prime power of 9k
    does.  3^(n+2) always does, by lifting the exponent: v3(10^k - 1) =
    2 + n.  Each other p^e passes when 10^(3^n p^(e-1)) == 1 (mod p^e).
    That exponent divides k, so the "yes" is sound, and a part that passes
    at n passes at every larger n, so it is not checked again.  Any "no",
    and each minimal violation, is pow(10, k, 9k) itself.  The README
    proves that every part of a ladder tuple passes.  Tuples whose modulus
    may exceed GRID_BIT_CAP bits are counted as skipped, never passed
    silently: the skipped count is the ladder tuples less those checked,
    so the walk stops at the first n whose 3^n alone passes the cap.
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
    # bits summing to bit_estimate - 1.  The powers are None where their bits
    # alone put 9k over the cap.
    primes = list(CONJECTURE_PRIMES.values())
    table = []
    reach = [bounds.n] + _ladder_bounds(bounds, bounds.n)
    for p, bound in zip(primes, reach):
        bits = p.bit_length()
        table.append([
            (e, p**e if e * bits + 5 <= GRID_BIT_CAP else None, e * bits)
            for e in range(bound + 1)
        ])
    # passed[i][e]: whether p^e, p the prime of parameter i + 1, has passed at
    # some n so far; e = 0 puts no power of p in 9k
    passed = [[e == 0 for e in range(bound + 1)] for bound in reach[1:]]
    entries = []
    for n in range(bounds.n + 1):
        if table[0][n][1] is None:  # 3^n alone puts 9k over the cap from here on
            break
        allowed = _ladder_bounds(bounds, n)
        for p, column, bound, held in zip(primes[1:], table[1:], allowed, passed):
            for e, q, _ in column[1:bound + 1]:
                if q is not None and not held[e]:
                    held[e] = pow(10, 3**n * p ** (e - 1), q) == 1
        axes = [table[0][n:n + 1]] + [
            column[:bound + 1] for column, bound in zip(table[1:], allowed)
        ]
        for combo in product(*axes):
            exponents, powers, bits = zip(*combo)
            # bit_estimate + 4 bounds the bit length of 9k from above
            if sum(bits) + 1 + 4 > GRID_BIT_CAP:
                continue
            k = prod(powers)
            exact = all(map(getitem, passed, exponents[1:])) or pow(10, k, 9 * k) == 1
            entries.append(GridEntry(exponents, (9 * k).bit_length(), exact, True))
    skipped = count - len(entries)
    for name, floor_n in _LADDER.items():  # the minimal violations
        exp = ConjectureConstraints(n=floor_n - 1, **{name: 1})
        k = exp.k
        entries.append(
            GridEntry(exp.as_tuple(), (9 * k).bit_length(), pow(10, k, 9 * k) == 1, False)
        )
    return GridReport(
        bounds=bounds,
        bit_cap=GRID_BIT_CAP,
        entries=tuple(entries),
        skipped_over_cap=skipped,
        elapsed=time.monotonic() - t0,
    )


def exact_condition_sweep(limit: int) -> list[int]:
    """All k <= limit with 10^k == 1 (mod 9k), walked as a tree.

    The parent of k > 1 is k / P(k), P(k) its largest prime factor (the
    README proves it under `repdigit --sweep`), so the children of k are 3k
    when k is a power of 3, and pk for each prime p >= P(k), p != 3, whose
    order d = ord_p(10) divides k.  Then p == 1 (mod 2d).  For d = 3, 9, 27
    or 81, p is listed in CONJECTURE_PRIMES; any other d is a multiple of a
    prime q != 3 of k or of 243, so p is sought among the p == 1 (mod 2q)
    or (mod 486) up to limit // k.  Every width found is checked again by
    pow(10, k, 9k) == 1, the second decider.  Raises OverflowError, before
    any work, for a limit above SWEEP_LIMIT_CAP.
    """
    if limit > SWEEP_LIMIT_CAP:
        raise OverflowError(
            f"the sweep limit {limit} is above the cap of {SWEEP_LIMIT_CAP}"
        )
    if limit < 1:
        return []
    found = []
    # each node carries its factorization: k, the exponent of 3 in it, and
    # its other primes in ascending order
    stack = [(1, 0, ())]
    while stack:
        k, v3, primes = stack.pop()
        found.append(k)
        if not primes and 3 * k <= limit:
            stack.append((3 * k, v3 + 1, ()))
        top = limit // k
        low = primes[-1] if primes else 3
        children = {
            p for p in CONJECTURE_PRIMES.values()
            if p != 3 and low <= p <= top and pow(10, k, p) == 1
        }
        # p % 3 spares the pow for the third of the candidates that 3 divides
        for step in [2 * q for q in primes] + ([486] if v3 >= 5 else []):
            children.update(
                p for p in range(low + (1 - low) % step, top + 1, step)
                if p % 3 and pow(10, k, p) == 1 and probable_prime(p).is_prime
            )
        stack.extend(
            (p * k, v3, primes if p == low else primes + (p,)) for p in children
        )
    for k in found:
        if pow(10, k, 9 * k) != 1:
            raise ArithmeticError(f"the tree gave k = {k}, but 10^k != 1 (mod 9k)")
    return sorted(found)


# --- zero insertion ---------------------------------------------------------------

class ZeroInsertionProbe(NamedTuple):
    modified: str  # rep-block text of the number after insertion
    modulus: int  # the base's digit sum, which the inserted zeros leave unchanged
    residue: int  # value of the modified number mod the modulus
    is_niven: bool


def zero_insertion_probe(base: str, position: int, zeros: int) -> ZeroInsertionProbe:
    """Insert zeros into a number `position` digits before its end.

    The number stays in runs: the cut splits the run it falls in, and the
    zeros merge with any zeros they touch, so ``modified`` is the rep-block
    text of the result (``100`` with one zero at the end is ``10_(3)``).
    is_niven is simply residue == 0.
    """
    runs = _parse_runs(base)
    width = sum(n for _, n in runs)
    if not 0 <= position <= width:
        raise ValueError(f"position must be 0..{width}")
    if zeros < 1:
        raise ValueError("insert at least one zero")
    modulus = sum(d * n for d, n in runs)
    if modulus == 0:
        raise ValueError(f"the digit sum of {base} is 0, so no residue is defined")
    # the cut falls `left` digits into runs[i]
    i, left = 0, width - position
    while left and left >= runs[i][1]:
        left -= runs[i][1]
        i += 1
    head, tail = list(runs[:i]), list(runs[i:])
    if left:
        d, n = tail[0]
        head.append((d, left))
        tail[0] = (d, n - left)
    # only a zero run on either side of the cut can merge with the zeros
    if head and head[-1][0] == 0:
        zeros += head.pop()[1]
    if tail and tail[0][0] == 0:
        zeros += tail.pop(0)[1]
    runs = (*head, (0, zeros), *tail)
    residue = _runs_mod(runs, modulus)
    return ZeroInsertionProbe(_format_runs(runs), modulus, residue, residue == 0)
