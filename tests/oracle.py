"""The brute-force PINN oracle: the definition that the deciders are tested
against.  It walks the orbit by its own lexicographic successor and divides
every arrangement, so it shares no code with the package's deciders.
"""
from __future__ import annotations

from typing import Iterator

from permniven.digits import DigitMultiset
from permniven.orbits import FailureWitness


def orbit(m: DigitMultiset) -> Iterator[str]:
    """Yield every distinct arrangement, leading zeros included,
    lexicographically ascending."""
    a = [str(d) for d in range(10) for _ in range(m.counts[d])]
    while True:
        yield "".join(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


def is_pinn_bruteforce(m: DigitMultiset) -> tuple[bool, FailureWitness | None]:
    """Divide every orbit member by the digit sum.  Failure carries the
    lexicographically first bad arrangement and its residue."""
    s = m.digit_sum
    for perm in orbit(m):
        r = int(perm) % s
        if r:
            return False, FailureWitness(permutation=perm, residue=r)
    return True, None
