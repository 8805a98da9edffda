"""Digit-level data model.

Numbers are handled as digit sequences and digit multisets, never as machine
integers, so lengths far beyond 64-bit value range are fine.  Between the
input text and a residue, digits are held as (digit, count) runs, most
significant first: ``_parse_runs`` is the one reader of number text, plain
or rep-block, ``_runs_mod`` reduces the runs run by run, in O(log k) per
run for width k, without building the string, and ``_format_runs`` writes
them back.  A digit multiset is the order-free content of a number and is
the identity that matters for permutation-invariance questions; its
canonical arrangement is at most ten runs.

Rep-block notation compresses runs: ``1_(26)01`` means twenty-six ones
followed by ``01``.  Runs of three or more render in block form, shorter
runs stay literal.
"""
from __future__ import annotations

import re
import sys
from itertools import compress
from math import comb
from operator import mul

__all__ = [
    "DigitMultiset",
    "expand",
    "multiset_count",
    "value_mod",
]

# A run of one digit, and in a block its last copy may carry a repeat
# count, so plain digits cost one match per run.  One alternative per
# digit: a backreference, (\d)\1*, keeps state for every repeat, about
# 76 MB on a run of 10^6 digits.
_RUN = "|".join(f"{d}+" for d in "0123456789")
_RUN_RE = re.compile(_RUN, re.ASCII)
_BLOCK_RE = re.compile(f"({_RUN})" + r"(?:_\((\d+)\))?", re.ASCII)


# --- rep-block notation -----------------------------------------------------

def expand(blocks: tuple[tuple[int, int], ...]) -> str:
    """Expand ((digit, repeat), ...) to a digit string."""
    if not blocks:
        raise ValueError("empty block form")
    out = []
    for d, n in blocks:
        if not 0 <= d <= 9:
            raise ValueError(f"digit out of range: {d}")
        if n < 1:
            raise ValueError(f"repeat count must be positive: {n}")
        out.append(str(d) * n)
    return "".join(out)


def _parse_runs(text: str) -> tuple[tuple[int, int], ...]:
    """The maximal (digit, count) runs of the number text names, adjacent
    digits distinct, read from the text without expanding the digits."""
    text = text.strip()
    if not text:
        raise ValueError("empty number")
    if text.isascii() and text.isdigit():  # plain digits: each match is a maximal run
        return tuple([(ord(run[0]) - 48, len(run)) for run in _RUN_RE.findall(text)])
    pos = 0
    runs: list[tuple[int, int]] = []
    while pos < len(text):
        m = _BLOCK_RE.match(text, pos)
        if not m:
            raise ValueError(f"bad rep-block syntax at {text[pos:]!r}")
        d = ord(text[pos]) - 48
        count = int(m.group(2)) if m.group(2) else 1
        if count < 1:
            raise ValueError("zero repeat count")
        if count > sys.maxsize:
            raise ValueError(f"repeat count above {sys.maxsize}")
        n = m.end(1) - pos - 1 + count
        if runs and runs[-1][0] == d:
            n += runs.pop()[1]
        runs.append((d, n))
        pos = m.end()
    return tuple(runs)


def _format_runs(runs: tuple[tuple[int, int], ...]) -> str:
    """Rep-block text of the runs: d_(n) for a run of three or more."""
    return "".join(f"{d}_({n})" if n >= 3 else str(d) * n for d, n in runs)


def _runs_mod(runs: tuple[tuple[int, int], ...], m: int) -> int:
    """The value of the runs' digits mod m, run by run: appending c copies
    of d to r gives r * 10^c + d * (10^c - 1) / 9.  With x = 10^c mod 9m,
    (x - 1) / 9 is (10^c - 1) / 9 mod m.  Leading zeros add nothing."""
    if m < 1:
        raise ValueError("modulus must be positive")
    r = 0
    for d, c in runs:
        x = pow(10, c, 9 * m)
        r = (r * x + d * (x - 1) // 9) % m
    return r


def value_mod(text: str, m: int) -> int:
    """Value mod m of the number the text names, plain digits or rep-block."""
    return _runs_mod(_parse_runs(text), m)


# --- multisets ---------------------------------------------------------------

class DigitMultiset:
    """Counts of digits 0..9; at least one nonzero digit must be present."""

    __slots__ = ("counts",)
    counts: tuple[int, int, int, int, int, int, int, int, int, int]

    def __init__(self, counts: tuple[int, ...]) -> None:
        counts = tuple(counts)
        # any count that is not an int, a float say, makes the sum no int
        if len(counts) != 10 or type(sum(counts)) is not int or min(counts) < 0:
            raise ValueError("counts must be 10 non-negative integers")
        if not any(counts[1:]):
            raise ValueError("all-zero multiset rejected")
        object.__setattr__(self, "counts", counts)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"DigitMultiset is immutable; cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        return self.counts == other.counts if type(other) is DigitMultiset else NotImplemented

    def __hash__(self) -> int:
        return hash(self.counts)

    def __repr__(self) -> str:
        return f"DigitMultiset(counts={self.counts!r})"

    def __reduce__(self) -> tuple:
        return DigitMultiset, (self.counts,)

    @classmethod
    def from_string(cls, text: str) -> DigitMultiset:
        """The digits of the number the text names, plain digits or rep-block."""
        return cls._from_runs(_parse_runs(text))

    @classmethod
    def _from_runs(cls, runs: tuple[tuple[int, int], ...]) -> DigitMultiset:
        counts = [0] * 10
        for d, n in runs:
            counts[d] += n
        return cls(counts)

    @property
    def k(self) -> int:
        return sum(self.counts)

    @property
    def digit_sum(self) -> int:
        return sum(map(mul, range(10), self.counts))

    @property
    def runs(self) -> tuple[tuple[int, int], ...]:
        """The canonical arrangement's (digit, count) runs, digits descending."""
        return tuple((d, c) for d in range(9, -1, -1) if (c := self.counts[d]))

    @property
    def canonical(self) -> str:
        """Digits sorted descending: the largest arrangement, never zero-led."""
        return "".join(map(mul, "9876543210", reversed(self.counts)))

    @property
    def orbit_size(self) -> int:
        # k! / (c0! ... c9!) as a product of binomials, never forming k!
        size, n = 1, 0
        for c in self.counts:
            n += c
            size *= comb(n, c)
        return size

    @property
    def value_count(self) -> int:
        """Arrangements not led by zero: the distinct k-digit values."""
        return self.orbit_size * (self.k - self.counts[0]) // self.k

    @property
    def present_digits(self) -> tuple[int, ...]:
        return tuple(compress(range(10), self.counts))

    @property
    def is_repdigit(self) -> bool:
        return self.counts.count(0) == 9

    def with_zeros(self, extra: int) -> DigitMultiset:
        if extra < 0:
            raise ValueError("zero count must be non-negative")
        counts = list(self.counts)
        counts[0] += extra
        return DigitMultiset(counts)


def multiset_count(k: int, allow_zero: bool = True) -> int:
    """Number of k-digit multisets naming a positive number.

    C(k+9,9) minus the all-zero multiset, or C(k+8,8) when zero is
    excluded entirely.
    """
    return comb(k + 9, 9) - 1 if allow_zero else comb(k + 8, 8)
