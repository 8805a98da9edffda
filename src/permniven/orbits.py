"""Digit-permutation orbits and the permutation-invariant Niven predicate.

A multiset's orbit is the set of distinct digit arrangements.  Arrangements
with leading zeros are kept in the orbit and judged at their normalized
value, which equals the un-normalized value, so the verdict is unaffected.

Two predicates decide whether every orbit member is a Niven number:

* ``is_pinn_bruteforce`` walks the orbit in lexicographic order and divides.
* ``is_pinn_criterion`` checks a pair of congruence conditions that are
  exactly equivalent: transpositions generate the symmetric group, condition
  (a) pins all arrangements to one residue class mod the digit sum, and
  condition (b) anchors that class at zero.  Condition (a) reduces to all
  present digits agreeing modulo ``class_modulus(s, k)``, which the search
  scan uses to enumerate candidate classes directly.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator

from .digits import DigitMultiset, value_mod

__all__ = [
    "BudgetExceeded",
    "CriterionProof",
    "ExhaustiveProof",
    "FailureWitness",
    "PinnRecord",
    "class_modulus",
    "is_niven",
    "is_pinn",
    "is_pinn_bruteforce",
    "is_pinn_criterion",
    "make_record",
    "orbit",
    "orbit_closure_check",
    "values_permutation_closed",
]

DEFAULT_ORBIT_BUDGET = 10**7


class BudgetExceeded(Exception):
    """Orbit too large for exhaustive enumeration; use the criterion path."""


def _next_permutation(a: list) -> bool:
    # standard lexicographic successor, in place; works on ints or chars
    i = len(a) - 2
    while i >= 0 and a[i] >= a[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = len(a) - 1
    while a[j] <= a[i]:
        j -= 1
    a[i], a[j] = a[j], a[i]
    a[i + 1:] = a[len(a) - 1:i:-1]
    return True


def orbit(m: DigitMultiset) -> Iterator[str]:
    """Yield every distinct arrangement, lexicographically ascending."""
    a = [d for d in range(10) for _ in range(m.counts[d])]
    while True:
        yield "".join(map(str, a))
        if not _next_permutation(a):
            return


def is_niven(s: str) -> bool:
    ds = sum(map(int, s))
    return value_mod(s, ds) == 0


@dataclass(frozen=True, slots=True)
class ExhaustiveProof:
    """Quotients value/digit_sum for each orbit member, in orbit order."""

    quotients: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class FailureWitness:
    permutation: str
    residue: int


@dataclass(frozen=True, slots=True)
class CriterionProof:
    digit_pairs_checked: tuple[tuple[int, int], ...]
    position_gaps_checked: tuple[int, ...]
    base_residue: int


@dataclass(frozen=True, slots=True)
class PinnRecord:
    multiset: DigitMultiset
    canonical: str
    digit_sum: int
    orbit_size: int
    proof: CriterionProof | ExhaustiveProof

    @property
    def value(self) -> int:
        return int(self.canonical)


def is_pinn_bruteforce(
    m: DigitMultiset, budget: int = DEFAULT_ORBIT_BUDGET
) -> tuple[bool, ExhaustiveProof | FailureWitness]:
    """Divide every orbit member by the digit sum.

    Success carries all integer quotients; failure carries the
    lexicographically first bad arrangement and its residue.
    """
    if m.orbit_size > budget:
        raise BudgetExceeded(f"orbit {m.orbit_size} exceeds budget {budget}")
    s = m.digit_sum
    quotients = []
    for perm in orbit(m):
        v = int(perm)
        q, r = divmod(v, s)
        if r:
            return False, FailureWitness(permutation=perm, residue=r)
        quotients.append(q)
    return True, ExhaustiveProof(quotients=tuple(quotients))


def class_modulus(s: int, k: int) -> int:
    """The modulus T(s, k) to which all present digits of a PINN class with
    digit sum s and width k are congruent (see ``is_pinn_criterion``)."""
    return s // gcd(s, 9) if k > 1 else 1


def is_pinn_criterion(m: DigitMultiset) -> tuple[bool, CriterionProof]:
    """Exact congruence test, no enumeration, O(pairs + k).

    (a) every transposition keeps the residue mod s: swapping digits u > v
        at positions i and i + d changes the value by
        (u-v) * 10^i * (10^d - 1), so s must divide that for every gap d
        and offset i.  Offset 0 is the strongest, giving
        u == v (mod s / gcd(s, 10^d - 1)) for every d < k.  Since 9 divides
        every 10^d - 1, gap 1 binds: all present digits are congruent
        modulo T = s / gcd(s, 9) (T = 1 when k = 1, which has no gaps);
    (b) the canonical arrangement is divisible by s.

    The proof lists the digit pairs checked and the gaps they cover: a pair
    that passes covers every gap 1..k-1, and a pair that fails does so
    already at gap 1.
    """
    k = m.k
    s = m.digit_sum
    t = class_modulus(s, k)
    present = m.present_digits
    gaps = tuple(range(1, k)) if len(present) > 1 else ()
    pairs = []
    for i, v in enumerate(present):
        for u in present[i + 1:]:
            pairs.append((u, v))
            if (u - v) % t:
                return False, CriterionProof(
                    digit_pairs_checked=tuple(pairs),
                    position_gaps_checked=gaps if len(pairs) > 1 else (1,),
                    base_residue=-1,
                )
    base = value_mod(m.canonical, s)
    return base == 0, CriterionProof(
        digit_pairs_checked=tuple(pairs),
        position_gaps_checked=gaps,
        base_residue=base,
    )


def is_pinn(m: DigitMultiset, budget: int = DEFAULT_ORBIT_BUDGET) -> bool:
    """Criterion when the orbit is large, brute force otherwise."""
    if m.orbit_size > budget:
        return is_pinn_criterion(m)[0]
    return is_pinn_bruteforce(m, budget)[0]


def make_record(
    m: DigitMultiset, budget: int = DEFAULT_ORBIT_BUDGET, prefer_brute: bool = False
) -> PinnRecord | None:
    """Build a verified record for m, or None when m is not a PINN class."""
    if prefer_brute and m.orbit_size <= budget:
        ok, proof = is_pinn_bruteforce(m, budget)
    else:
        ok, proof = is_pinn_criterion(m)
    if not ok:
        return None
    return PinnRecord(
        multiset=m,
        canonical=m.canonical,
        digit_sum=m.digit_sum,
        orbit_size=m.orbit_size,
        proof=proof,
    )


# --- permutation closure ------------------------------------------------------

def values_permutation_closed(values: Iterable[int]) -> bool:
    """True iff every same-length rearrangement of each value is present.

    Rearrangements that would lead with zero drop to fewer digits and are
    not required (they belong to shorter-length value sets).
    """
    vals = set(values)
    for v in vals:
        a = sorted(str(v))
        while True:
            if a[0] != "0" and int("".join(a)) not in vals:
                return False
            if not _next_permutation(a):
                break
    return True


def orbit_closure_check(records: Iterable[PinnRecord], k: int) -> bool:
    """True iff the k-digit value set spanned by the records' orbits is
    closed under digit permutation."""
    values: set[int] = set()
    for rec in records:
        if rec.multiset.k != k:
            raise ValueError(f"record {rec.canonical} has length {rec.multiset.k}, not {k}")
        for perm in orbit(rec.multiset):
            if perm[0] != "0":
                values.add(int(perm))
    return values_permutation_closed(values)
