"""Digit-permutation orbits and the permutation-invariant Niven predicate.

A multiset's orbit is the set of distinct digit arrangements.  Arrangements
with leading zeros are kept in the orbit and judged at their normalized
value, which equals the un-normalized value, so the verdict is unaffected.

Three deciders settle whether every orbit member is a Niven number, each by
its own reasoning:

* ``is_pinn_bruteforce`` walks the orbit in lexicographic order and divides;
  it is the test oracle, and no production path calls it.
* ``is_pinn_criterion`` checks a pair of congruence conditions that are
  exactly equivalent: transpositions generate the symmetric group, condition
  (a) pins all arrangements to one residue class mod the digit sum, and
  condition (b) anchors that class at zero.  Condition (a) reduces to all
  present digits agreeing modulo ``class_modulus(s, k)``, which the search
  scan uses to enumerate candidate classes directly.
* ``is_pinn_residue_count`` counts the arrangements in each residue class
  mod the digit sum with a DP over (unused digit counts, residue), so it
  never enumerates the orbit; its cost is ``residue_table_size(m)``.

``decide_pinn``, the verdict rule of ``check`` and ``families --verify``,
runs the criterion and, when its table fits the budget, the DP.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd, prod
from typing import Iterator

from .digits import DigitMultiset, value_mod

__all__ = [
    "BudgetExceeded",
    "CriterionProof",
    "FailureWitness",
    "PinnRecord",
    "class_modulus",
    "decide_pinn",
    "is_niven",
    "is_pinn_bruteforce",
    "is_pinn_criterion",
    "is_pinn_residue_count",
    "make_record",
    "orbit",
    "residue_table_size",
]

DEFAULT_ORBIT_BUDGET = 10**7


class BudgetExceeded(Exception):
    """Orbit or residue table too large for the budget; use the criterion."""


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
    proof: CriterionProof


def is_pinn_bruteforce(
    m: DigitMultiset, budget: int = DEFAULT_ORBIT_BUDGET
) -> tuple[bool, FailureWitness | None]:
    """Divide every orbit member by the digit sum.

    Failure carries the lexicographically first bad arrangement and its
    residue.  Raises BudgetExceeded when the orbit exceeds the budget.
    """
    if m.orbit_size > budget:
        raise BudgetExceeded(f"orbit {m.orbit_size} exceeds budget {budget}")
    s = m.digit_sum
    for perm in orbit(m):
        r = int(perm) % s
        if r:
            return False, FailureWitness(permutation=perm, residue=r)
    return True, None


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


def residue_table_size(m: DigitMultiset) -> int:
    """Entries of ``is_pinn_residue_count``'s table: one per state, that is
    per sub-multiset of unused digits and residue mod the digit sum."""
    return prod(c + 1 for c in m.counts) * m.digit_sum


def is_pinn_residue_count(
    m: DigitMultiset, budget: int = DEFAULT_ORBIT_BUDGET
) -> tuple[bool, FailureWitness | None]:
    """Count the arrangements of m in each residue class mod its digit sum s.

    Positions fill from the most significant digit.  A state is the vector
    of digit counts still unused plus the residue mod s of what the digits
    placed so far add to the value; with u digits unused, placing d adds
    d * 10^(u-1).  Each state holds how many prefixes reach it with each
    residue.  m is a PINN iff all orbit_size arrangements end at residue 0.
    Otherwise the table is walked back from a non-zero final residue, which
    yields an arrangement with that residue as the witness.  Raises
    BudgetExceeded when ``residue_table_size(m)`` exceeds the budget.
    """
    size = residue_table_size(m)
    if size > budget:
        raise BudgetExceeded(f"residue table {size} exceeds budget {budget}")
    s = m.digit_sum
    orbit_size = m.orbit_size
    digits = m.present_digits[::-1]
    radices = [m.counts[d] + 1 for d in digits]
    strides = [prod(radices[i + 1:]) for i in range(len(digits))]
    powers = [pow(10, e, s) for e in range(m.k)]
    # The unused counts index the states in mixed radix, the first digit
    # most significant.  Placing a digit lowers the index, so a descending
    # sweep reaches each state after every state that leads to it.  A
    # state's residue counts are packed into one int, `width` bits per
    # residue: adding d * 10^(u-1) rotates the slots, and no count exceeds
    # the orbit size.
    width = orbit_size.bit_length()
    low = [(1 << (width * j)) - 1 for j in range(s + 1)]
    # levels[u - 1]: each digit's rotation by a = d * 10^(u-1) mod s as
    # (mask, left shift, right shift), one list per distinct power of ten.
    rotations = {
        p: [(low[s - a], width * a, width * (s - a)) for a in (d * p % s for d in digits)]
        for p in set(powers)
    }
    levels = [rotations[p] for p in powers]
    top = prod(radices) - 1
    table = [0] * (top + 1)
    table[top] = 1
    # The last digit (the smallest, often the many zeros) varies fastest, so
    # the other digits that can still be placed are fixed across its loop.
    *heads, last = radices
    idx = top + 1
    for head in product(*(range(c - 1, -1, -1) for c in heads)):
        placeable = [(j, strides[j]) for j, u in enumerate(head) if u]
        with_last = placeable + [(len(heads), 1)]
        base = sum(head)
        for u in range(last - 1, -1, -1):
            idx -= 1
            packed = table[idx]
            level = levels[base + u - 1]
            for j, stride in with_last if u else placeable:
                mask, left, right = level[j]
                table[idx - stride] += ((packed & mask) << left) | (packed >> right)
    counts = [table[0] >> (width * r) & low[1] for r in range(s)]
    if sum(counts) != orbit_size:
        raise ArithmeticError(f"residue counts sum to {sum(counts)}, not {orbit_size}")
    if counts[0] == orbit_size:
        return True, None
    residue = next(r for r in range(1, s) if counts[r])
    placed = []
    idx, r = 0, residue
    while idx != top:
        unused = [idx // stride % radix for stride, radix in zip(strides, radices)]
        power = powers[sum(unused)]
        for d, u, stride, radix in zip(digits, unused, strides, radices):
            prev = (r - d * power) % s
            # d was placed last if a copy of it is used and the state with
            # that copy unused reaches the residue before it
            if u < radix - 1 and table[idx + stride] >> (width * prev) & low[1]:
                placed.append(str(d))
                idx, r = idx + stride, prev
                break
    return False, FailureWitness(permutation="".join(reversed(placed)), residue=residue)


def decide_pinn(
    m: DigitMultiset, budget: int = DEFAULT_ORBIT_BUDGET
) -> tuple[bool, CriterionProof | FailureWitness, bool]:
    """The criterion's verdict on m, cross-checked by the residue-counting DP
    when its table has at most budget entries.

    Returns (ok, proof, residue_counted): ok only when every decider that
    ran says PINN, with the criterion's proof.  A "no" carries a witness
    found in O(k): the canonical arrangement when its residue is the
    defect; for a failed pair u > v, whichever of the arrangements ending
    in vu and in uv is not divisible (they differ by 9(u - v), which the
    digit sum does not divide); the DP's when only the DP says no.  Raises
    ArithmeticError when both arrangements of the failed pair divide.
    """
    ok, proof = is_pinn_criterion(m)
    if ok:
        if residue_table_size(m) > budget:
            return True, proof, False
        dp_ok, witness = is_pinn_residue_count(m, budget)
        return (True, proof, True) if dp_ok else (False, witness, True)
    if proof.base_residue > 0:
        return False, FailureWitness(m.canonical, proof.base_residue), False
    u, v = proof.digit_pairs_checked[-1]
    rest = m.canonical.replace(str(u), "", 1).replace(str(v), "", 1)
    for perm in (f"{rest}{v}{u}", f"{rest}{u}{v}"):
        r = value_mod(perm, m.digit_sum)
        if r:
            return False, FailureWitness(perm, r), False
    raise ArithmeticError(f"the criterion rejects digits {u} and {v} of {m}, "
                          "but both arrangements ending in them divide")


def make_record(m: DigitMultiset) -> PinnRecord | None:
    """A criterion-proved record for m, or None when m is not a PINN class."""
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

