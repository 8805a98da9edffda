"""Exhaustive PINN search over digit multisets.

The search space is multisets, not numbers: the 10^k integers of width k
collapse to C(k+9,9) digit-content classes, and PINN membership depends
only on the class.  One serial scan covers every k-digit multiset, or only
the zero-free ones (digits 1..9) when zeros are excluded.

The scan is sum-first and visits only candidates.  By the congruence
criterion (``orbits.is_pinn_criterion``), a multiset of width k and digit
sum s is a PINN class exactly when all its present digits are congruent
modulo T = ``class_modulus(s, k)`` = s / gcd(s, 9) and its canonical
arrangement is divisible by s.  So for each digit sum the scan enumerates
just the multisets drawn from one residue class mod T that add up to s,
in the classes that can reach s (see ``search``), bounding each digit's
count by what the remaining digits can still sum to, and keeps those the
criterion accepts, each as a ``PinnRecord`` of the multiset and its proof.
Above s = 81, T exceeds 9, every residue class is a single digit, and only
the repdigit sums a * k can hold a class, so the scan visits the sums up
to min(9k, 81) and those, at most 90 in all at any width.  The space
covered is still every multiset, and ``multisets_scanned`` reports its
size.  Nothing in a report grows with k: canonical strings are built only
by the writers that print them.

A report's ``stage1_count`` counts its zero-free classes and
``stage2_count`` its classes with a zero, both read from the records; the
names are kept for the JSON schema.
"""
from __future__ import annotations

import heapq
import time
from collections import Counter
from typing import Iterator, NamedTuple

from .catalogs import GROUP_CORES, ZERO_FREE_EXTRAS
from .digits import DigitMultiset, multiset_count
from .families import _parsed
from .orbits import _MAX_CLASS_SUM, PinnRecord, class_modulus, is_pinn_criterion
from .repdigits import exact_condition_sweep

__all__ = [
    "CENSUS_MAX",
    "CensusResult",
    "SearchConfig",
    "SearchReport",
    "census",
    "report_values",
    "search",
]

CENSUS_MAX = 10**18


class _SearchFields(NamedTuple):
    k: int
    allow_zero: bool = True
    exclude_repdigits: bool = False


class SearchConfig(_SearchFields):
    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> SearchConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.k < 1:
            raise ValueError("k must be >= 1")
        return self

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace validates too


class SearchReport(NamedTuple):
    k: int
    records: tuple[PinnRecord, ...]
    multisets_scanned: int
    elapsed: float = 0.0  # the last field, and out of ==, != and hash

    def __eq__(self, other: object) -> bool:
        return self[:-1] == other[:-1] if type(other) is SearchReport else NotImplemented

    __ne__ = object.__ne__  # the inverse of __eq__, where tuple's compares elapsed

    def __hash__(self) -> int:
        return hash(self[:-1])

    @property
    def stage1_count(self) -> int:
        return sum(1 for r in self.records if not r.multiset.counts[0])

    @property
    def stage2_count(self) -> int:
        return len(self.records) - self.stage1_count


# --- scan kernel ----------------------------------------------------------------

def _class_members(digits: tuple[int, ...], k: int, s: int) -> list[tuple[int, ...]]:
    """Digit-count tuples of the k-digit multisets over `digits` (ascending)
    whose digit sum is s."""
    out = []
    counts = [0] * 10
    top = digits[-1]

    def fill(i: int, n: int, rem: int) -> None:
        d = digits[i]
        if d == top:  # the last digit's count is forced
            if d * n == rem:
                counts[d] = n
                out.append(tuple(counts))
                counts[d] = 0
            return
        # c copies of d leave n - c digits from digits[i+1:], whose sum must
        # lie between (n - c) * digits[i+1] and (n - c) * top
        nxt = digits[i + 1]
        lo = max(0, -((rem - n * nxt) // (nxt - d)))
        hi = min(n, (n * top - rem) // (top - d))
        for c in range(lo, hi + 1):
            counts[d] = c
            fill(i + 1, n - c, rem - c * d)
        counts[d] = 0

    fill(0, k, s)
    return out


def search(cfg: SearchConfig) -> SearchReport:
    """Every PINN class among the k-digit multisets, zero-free ones only
    when allow_zero is off, in canonical order.

    For a digit sum s, a residue class c0 < c0 + T < ... < c[-1] mod T is
    enumerated only when k * c0 <= s <= k * c[-1] and T divides s - k * c0,
    and that is exact: k digits from the class sum to k * c0 + T * j for
    every j from 0 to k * (len(c) - 1).
    """
    t0 = time.monotonic()
    k = cfg.k
    first = 0 if cfg.allow_zero else 1
    records = []
    # above 81 only a repdigit can be a class, and its sum is a * k
    top = min(9 * k, _MAX_CLASS_SUM)
    repdigit_sums = [a * k for a in range(1, 10) if a * k > top]
    for s in [*range(1 if cfg.allow_zero else k, top + 1), *repdigit_sums]:
        t = class_modulus(s, k)
        # each class by its least digit; above T = 9 every class is one digit
        for c0 in range(first, min(first + t, 10)):
            last = c0 + (9 - c0) // t * t
            if not (k * c0 <= s <= k * last and (s - k * c0) % t == 0):
                continue
            for counts in _class_members(tuple(range(c0, 10, t)), k, s):
                if cfg.exclude_repdigits and counts.count(0) == 9:
                    continue
                # the criterion keeps a candidate when s divides its canonical value
                m = DigitMultiset(counts)
                ok, proof = is_pinn_criterion(m)
                if ok:
                    records.append(PinnRecord(m, proof))
    # at one width, descending digit counts order the canonical strings
    records.sort(key=lambda r: r.multiset.counts[::-1])
    return SearchReport(
        k=k,
        records=tuple(records),
        multisets_scanned=multiset_count(k, allow_zero=cfg.allow_zero),
        elapsed=time.monotonic() - t0,
    )


# --- value expansion and census ---------------------------------------------------

def _next_permutation(a: list) -> bool:
    # standard lexicographic successor, in place
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


def _class_values(m: DigitMultiset) -> Iterator[int]:
    """The values of m's arrangements not led by zero, ascending."""
    # the least of them: the least nonzero digit, then the rest ascending
    a = sorted(m.canonical)
    a.insert(0, a.pop(m.counts[0]))
    while True:
        yield int("".join(a))
        if not _next_permutation(a):
            return


def report_values(report: SearchReport) -> list[int]:
    """All k-digit values covered by the report's classes, ascending: each
    class's values in order, merged."""
    return list(heapq.merge(*(_class_values(r.multiset) for r in report.records)))


class CensusResult(NamedTuple):
    pinn_count: int
    niven_count: int
    digit_sum_histogram: dict[int, int]


def _niven_count(max_value: int) -> int:
    """Niven numbers in [1, max_value], by digit DP for each digit sum s.

    Numbers below max_value are digit strings of its width L with leading
    zeros allowed.  For each s, f[m][r] holds the m-digit strings of digit
    sum r, counted by value mod s and packed into one int, `width` bits per
    residue as in ``orbits.is_pinn_residue_count``.  A leading digit d adds
    d * 10^(m-1), which rotates the residues by that amount mod s.  The
    walk down max_value's digits then counts, at each position, the strings
    that follow its prefix and put a smaller digit there: the tail must
    bring the digit sum to s and the value to 0 mod s.  The L - m digits
    in front of a tail of m add at most 9(L - m), so the walk reads f[m][r]
    only for r >= s - 9(L - m), and each row is kept from there up.
    """
    top = str(max_value)
    L = len(top)
    digits = [int(ch) for ch in top]
    # no lane counts more than the 10^(L-1) strings of the widest tail
    width = (10 ** (L - 1)).bit_length()
    lane = (1 << width) - 1
    count = 1 if max_value % sum(digits) == 0 else 0  # the walk counts below it
    for s in range(1, 9 * L + 1):
        low = [(1 << (width * j)) - 1 for j in range(s + 1)]

        def rotate(packed: int, a: int) -> int:
            return ((packed & low[s - a]) << (width * a)) | (packed >> (width * (s - a)))

        # f[m] holds f[m][r] for r = lo[m]..min(s, 9m) as row[r - lo[m]]
        lo = [max(0, s - 9 * (L - m)) for m in range(L)]
        f = [[1]]  # the empty string: digit sum 0, residue 0
        for m in range(1, L):
            prev = f[-1]
            base = lo[m - 1]
            p = pow(10, m - 1, s)
            row = []
            acc = 0
            # f[m][r] = sum over d <= 9 of f[m-1][r - d] rotated by d * p:
            # rotating f[m][r - 1] by p shifts every term one digit up,
            # the term that reaches d = 10 drops out and d = 0 comes in;
            # each lane holds at least what is subtracted, so no borrow
            # crosses a lane.  The slide starts at f[m-1]'s lower edge, so
            # its first sums miss terms below it; they lie under lo[m] and
            # are not kept.
            for r in range(base, min(s, 9 * m) + 1):
                acc = rotate(acc, p)
                if r - 10 >= base:
                    acc -= rotate(prev[r - 10 - base], 10 * p % s)
                if r - base < len(prev):
                    acc += prev[r - base]
                if r >= lo[m]:
                    row.append(acc)
            f.append(row)
        prefix_sum = prefix_mod = 0
        for i, t in enumerate(digits):
            m = L - 1 - i
            row = f[m]
            scale = pow(10, m, s)
            for d in range(t):
                r = s - prefix_sum - d - lo[m]
                if 0 <= r < len(row):
                    need = -(prefix_mod * 10 + d) * scale % s
                    count += row[r] >> (width * need) & lane
            prefix_sum += t
            prefix_mod = (prefix_mod * 10 + t) % s
            if prefix_sum > s:
                break
    return count


def _arrangements_upto(m: DigitMultiset, top: str) -> int:
    """Arrangements of m, leading zeros allowed, that are <= top, a digit
    string of width m.k, by multiset-permutation ranking in O(10k)."""
    counts = list(m.counts)
    n = m.k
    rest = m.orbit_size  # arrangements of the digits not yet placed
    below = 0
    for t in map(int, top):
        # those that follow top up to here and put a smaller digit here;
        # rest * counts[d] / n of them put d here
        below += rest * sum(counts[:t]) // n
        if not counts[t]:
            return below
        rest = rest * counts[t] // n
        counts[t] -= 1
        n -= 1
    return below + 1  # top itself


def _pinn_histogram(top: str) -> Counter[int]:
    """The PINNs <= top, a digit string not led by zero, counted by digit
    sum (README, "Counting").

    Written with L = len(top) digits, leading zeros allowed, each PINN is
    an arrangement of a core of width w <= L with L - w zeros, a zero-free
    extra of width <= L, or a repdigit a_(k) with k in S and 9 < k <= L,
    S being the widths of exact_condition_sweep(L).  Stripping the leading
    zeros maps the arrangements of a padded core one to one onto its
    values at widths w..L, so each class is counted by one ranking; a
    zero-free class narrower than L has all its arrangements below top.
    """
    L = len(top)
    histogram: Counter[int] = Counter()
    for cores in map(_parsed, GROUP_CORES):
        for m in cores:
            if m.k <= L:
                histogram[m.digit_sum] += _arrangements_upto(m.with_zeros(L - m.k), top)
    zero_free = [m for w, extras in ZERO_FREE_EXTRAS.items() if w <= L for m in _parsed(extras)]
    # the repdigits of widths 1, 3 and 9 are cores
    zero_free += [DigitMultiset((0,) * a + (k,) + (0,) * (9 - a))
                  for k in exact_condition_sweep(L) if k > 9 for a in range(1, 10)]
    for m in zero_free:
        histogram[m.digit_sum] += m.orbit_size if m.k < L else _arrangements_upto(m, top)
    return histogram


def census(max_value: int) -> CensusResult:
    """Count PINNs and Niven numbers in [1, max_value], with the PINN
    digit-sum histogram.

    Niven numbers come from ``_niven_count``'s digit DP and PINNs from
    ``_pinn_histogram``'s ranking over the classification.
    """
    if not 1 <= max_value <= CENSUS_MAX:
        raise ValueError(f"census covers 1..{CENSUS_MAX}")
    histogram = _pinn_histogram(str(max_value))
    return CensusResult(
        pinn_count=sum(histogram.values()),
        niven_count=_niven_count(max_value),
        digit_sum_histogram={s: c for s, c in sorted(histogram.items()) if c},
    )
