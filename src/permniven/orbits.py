"""Digit-permutation orbits and the permutation-invariant Niven predicate.

A multiset's orbit is the set of distinct digit arrangements.  Arrangements
with leading zeros are kept in the orbit and judged at their normalized
value, which equals the un-normalized value, so the verdict is unaffected.

Two deciders settle whether every orbit member is a Niven number, each by
its own reasoning, and neither enumerates the orbit:

* ``is_pinn_criterion`` checks a pair of congruence conditions that are
  exactly equivalent: transpositions generate the symmetric group, condition
  (a) pins all arrangements to one residue class mod the digit sum, and
  condition (b) anchors that class at zero, which ``digits._runs_mod``
  checks on the canonical arrangement's runs.  Condition (a) reduces to all
  present digits agreeing modulo ``class_modulus(s, k)``, which the search
  scan uses to enumerate candidate classes directly.
* ``is_pinn_residue_count`` counts the arrangements in each residue class
  mod the digit sum with a DP over (unused digit counts, residue); its cost
  is ``residue_table_size(m)``.

Brute force, walking the orbit and dividing, is the definition itself; it
lives with the tests as the oracle both deciders are checked against.

``decide_pinn``, the verdict rule of ``check`` and ``families --verify``,
runs the criterion and puts a second decider behind every "yes": the
closed form 10^k == 1 (mod 9k) for a repdigit, and otherwise the DP on the
multiset with its zeros capped at max(1, v2(s), v5(s)) for digit sum s,
at most six, whose table then does not grow with the width.
"""
from __future__ import annotations

from itertools import product
from math import gcd, prod
from typing import NamedTuple

from .digits import DigitMultiset, _format_runs, _parse_runs, _runs_mod, expand
from .repdigits import repdigit_niven_check

__all__ = [
    "BudgetExceeded",
    "CriterionProof",
    "FailureWitness",
    "PinnRecord",
    "decide_pinn",
    "is_niven",
    "is_pinn_criterion",
    "is_pinn_residue_count",
]

# A guard, not a knob: decide_pinn's tables stay far below it unless the
# criterion is wrong, and a verdict never comes from skipping a decider.
DEFAULT_ORBIT_BUDGET = 10**7
# A PINN with two distinct digits has digit sum s <= 81 (see decide_pinn),
# so 2^6 and 5^2 bound the powers of 2 and 5 in s that zeros can meet.
_MAX_CLASS_SUM = 81


class BudgetExceeded(Exception):
    """The DP's residue table has more than DEFAULT_ORBIT_BUDGET entries."""


def is_niven(text: str) -> bool:
    """Whether the number the text names, plain digits or rep-block, is
    divisible by its digit sum.  Raises ValueError for a digit sum of 0."""
    runs = _parse_runs(text)
    digit_sum = sum(d * c for d, c in runs)
    if digit_sum == 0:
        raise ValueError(f"the digit sum of {text} is 0, so no residue is defined")
    return _runs_mod(runs, digit_sum) == 0


class FailureWitness(NamedTuple):
    permutation: str
    residue: int


class CriterionProof(NamedTuple):
    digit_pairs_checked: tuple[tuple[int, int], ...]
    position_gaps_checked: range
    base_residue: int


class PinnRecord(NamedTuple):
    multiset: DigitMultiset
    proof: CriterionProof


def class_modulus(s: int, k: int) -> int:
    """The modulus T(s, k) to which all present digits of a PINN class with
    digit sum s and width k are congruent (see ``is_pinn_criterion``)."""
    return s // gcd(s, 9) if k > 1 else 1


def is_pinn_criterion(m: DigitMultiset) -> tuple[bool, CriterionProof]:
    """Exact congruence test, no enumeration, O(pairs + 10 log k).

    (a) every transposition keeps the residue mod s: swapping digits u > v
        at positions i and i + d changes the value by
        (u-v) * 10^i * (10^d - 1), so s must divide that for every gap d
        and offset i.  Offset 0 is the strongest, giving
        u == v (mod s / gcd(s, 10^d - 1)) for every d < k.  Since 9 divides
        every 10^d - 1, gap 1 binds: all present digits are congruent
        modulo T = s / gcd(s, 9) (T = 1 when k = 1, which has no gaps);
    (b) the canonical arrangement is divisible by s, which ``_runs_mod``
        decides from its runs.

    The proof lists the digit pairs checked and the gaps they cover, as a
    range: a pair that passes covers every gap 1..k-1, and a pair that fails
    does so already at gap 1.
    """
    k = m.k
    s = m.digit_sum
    t = class_modulus(s, k)
    present = m.present_digits
    gaps = range(1, k if len(present) > 1 else 1)
    pairs = []
    for i, v in enumerate(present):
        for u in present[i + 1:]:
            pairs.append((u, v))
            if (u - v) % t:
                return False, CriterionProof(
                    digit_pairs_checked=tuple(pairs),
                    position_gaps_checked=gaps if len(pairs) > 1 else range(1, 2),
                    base_residue=-1,
                )
    base = _runs_mod(m.runs, s)
    return base == 0, CriterionProof(
        digit_pairs_checked=tuple(pairs),
        position_gaps_checked=gaps,
        base_residue=base,
    )


def residue_table_size(m: DigitMultiset) -> int:
    """Entries of ``is_pinn_residue_count``'s table: one per state, that is
    per sub-multiset of unused digits and residue mod the digit sum."""
    return prod(c + 1 for c in m.counts) * m.digit_sum


def is_pinn_residue_count(m: DigitMultiset) -> tuple[bool, FailureWitness | None]:
    """Count the arrangements of m in each residue class mod its digit sum s.

    Positions fill from the most significant digit.  A state is the vector
    of digit counts still unused plus the residue mod s of what the digits
    placed so far add to the value; with u digits unused, placing d adds
    d * 10^(u-1).  Each state holds how many prefixes reach it with each
    residue.  m is a PINN iff all orbit_size arrangements end at residue 0,
    which one comparison of the final packed counts decides.  Otherwise
    the table is walked back from a non-zero final residue, which yields
    an arrangement with that residue as the witness.  Raises
    BudgetExceeded when ``residue_table_size(m)`` exceeds
    DEFAULT_ORBIT_BUDGET.
    """
    s = m.digit_sum
    orbit_size = m.orbit_size
    digits = m.present_digits[::-1]
    radices = [m.counts[d] + 1 for d in digits]
    size = residue_table_size(m)
    if size > DEFAULT_ORBIT_BUDGET:
        raise BudgetExceeded(f"residue table {size} exceeds budget {DEFAULT_ORBIT_BUDGET}")
    top = prod(radices) - 1
    strides = [prod(radices[i + 1:]) for i in range(len(digits))]
    powers = [pow(10, e, s) for e in range(m.k)]
    # The unused counts index the states in mixed radix, the first digit
    # most significant.  Placing a digit lowers the index, so a descending
    # sweep reaches each state after every state that leads to it.  A
    # state's residue counts are packed into one int, `width` bits per
    # residue: adding d * 10^(u-1) rotates the slots, and no count exceeds
    # the orbit size.
    width = orbit_size.bit_length()
    # levels[u - 1]: each digit's rotation by a = d * 10^(u-1) mod s as
    # (mask, left shift, right shift), or None when a = 0 and the slots
    # stay put (the zero digit, or d * 10^(u-1) divisible by s); one list
    # per distinct power of ten.
    rotations = {
        p: [((1 << width * (s - a)) - 1, width * a, width * (s - a)) if a else None
            for a in (d * p % s for d in digits)]
        for p in set(powers)
    }
    levels = [rotations[p] for p in powers]
    table = [0] * (top + 1)
    table[top] = 1
    # The last digit (the smallest, often the zeros) varies fastest, so the
    # other digits that can still be placed are fixed across its loop.
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
                if rotation := level[j]:
                    mask, left, right = rotation
                    table[idx - stride] += ((packed & mask) << left) | (packed >> right)
                else:
                    table[idx - stride] += packed
    # Slot 0 holds every arrangement and the others none exactly when the
    # packed int equals orbit_size, which fits in slot 0's `width` bits.
    if table[0] == orbit_size:
        return True, None
    slot = (1 << width) - 1
    counts = [table[0] >> (width * r) & slot for r in range(s)]
    if sum(counts) != orbit_size:
        raise ArithmeticError(f"residue counts sum to {sum(counts)}, not {orbit_size}")
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
            if u < radix - 1 and table[idx + stride] >> (width * prev) & slot:
                placed.append(str(d))
                idx, r = idx + stride, prev
                break
    return False, FailureWitness(permutation="".join(reversed(placed)), residue=residue)


def decide_pinn(m: DigitMultiset) -> tuple[bool, CriterionProof | FailureWitness, bool]:
    """The criterion's verdict on m, with a second decider behind every "yes".

    Returns (ok, proof, residue_counted): ok only when both deciders say
    PINN, with the criterion's proof.  The second decider is

    * for a repdigit a_(k), the closed form 10^k == 1 (mod 9k) of
      ``repdigits.repdigit_niven_check``, which shares no loop with the
      criterion's residue; no arrangement can show a disagreement, so one
      raises ArithmeticError;
    * for any other class, the residue-counting DP (residue_counted True)
      on m with its zeros capped at c(s) = max(1, v2(s), v5(s)), v_p the
      power of p in s.  By the criterion's theorem, m is a PINN iff its
      present digits agree mod T = s / gcd(s, 9), which does not involve
      how many zeros there are, and s divides N * 10^z, N the canonical
      arrangement of the nonzero digits and z the zeros.  Since
      gcd(s, 10^z) = gcd(s, 10^c) for every z >= c, every z >= c gives
      the verdict of z = c (the README's zero reduction); c >= 1 keeps 0
      a present digit, so (a) still sees it.  Two distinct digits that
      agree mod T differ by a multiple of T, so T <= 9 and s <= 81, where
      c <= 6.  A DP witness lifts back to m with the removed zeros in
      front, which keep its value.  A digit sum above 81 would contradict
      the criterion, so then nothing is capped.

    A "no" carries a witness, found from the runs by ``_runs_mod`` in
    O(10 log k) and only then written out: the canonical arrangement when
    its residue is the defect; for a failed pair u > v, the rest of the
    digits descending and then vu or uv, whichever is not divisible (they
    differ by 9(u - v), which the digit sum does not divide); the lifted
    DP witness when only the DP says no.  Raises ArithmeticError when both
    arrangements of the failed pair divide, and BudgetExceeded when the DP's
    table passes DEFAULT_ORBIT_BUDGET, which only a wrong criterion allows.
    """
    ok, proof = is_pinn_criterion(m)
    if ok:
        if m.is_repdigit:
            if not repdigit_niven_check(m.present_digits[0], m.k).exact:
                raise ArithmeticError(
                    f"the criterion accepts the {m.k}-digit repdigit of "
                    f"{m.present_digits[0]}s, but 10^k != 1 (mod 9k)"
                )
            return True, proof, False
        zeros = m.counts[0]
        s = m.digit_sum
        if s <= _MAX_CLASS_SUM:
            # c(s): s & -s is 2^v2(s), and v5(s) <= 2 since 5^3 > 81
            zeros = min(zeros, max(1, (s & -s).bit_length() - 1, (s % 5 == 0) + (s % 25 == 0)))
        dp_ok, witness = is_pinn_residue_count(DigitMultiset((zeros, *m.counts[1:])))
        if dp_ok:
            return True, proof, True
        lifted = "0" * (m.counts[0] - zeros) + witness.permutation
        return False, FailureWitness(lifted, witness.residue), True
    if proof.base_residue > 0:
        return False, FailureWitness(m.canonical, proof.base_residue), False
    u, v = proof.digit_pairs_checked[-1]
    counts = list(m.counts)
    counts[u] -= 1
    counts[v] -= 1
    rest = tuple((d, c) for d in range(9, -1, -1) if (c := counts[d]))
    for a, b in ((v, u), (u, v)):
        runs = (*rest, (a, 1), (b, 1))
        if r := _runs_mod(runs, m.digit_sum):
            return False, FailureWitness(expand(runs), r), False
    raise ArithmeticError(f"the criterion rejects digits {u} and {v} of "
                          f"{_format_runs(m.runs)}, "
                          "but both arrangements ending in them divide")
