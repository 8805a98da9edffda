"""Two-stage exhaustive PINN search over digit multisets.

The search space is multisets, not numbers: the 10^k integers of width k
collapse to C(k+9,9) digit-content classes, and PINN membership depends
only on the class.  Stage 1 scans zero-free multisets (digits 1..9); stage
2 augments known shorter zero-free classes with zeros and re-verifies each
augmentation, because padding does not automatically preserve membership.

The scan is sum-first and visits only candidates.  By the congruence
criterion (``orbits.is_pinn_criterion``), a multiset of width k and digit
sum s is a PINN class exactly when all its present digits are congruent
modulo T = ``class_modulus(s, k)`` = s / gcd(s, 9) and its canonical
arrangement is divisible by s.  So for each digit sum the scan enumerates
just the multisets drawn from one residue class mod T that add up to s,
bounding each digit's count by what the remaining digits can still sum to,
and hands them to ``make_record``, whose criterion keeps those with a
canonical residue of zero.  Above s = 81, T exceeds 9, every residue class
is a single digit, and only repdigits remain.  The space covered is still
every multiset, and ``multisets_scanned`` reports its size.

Parallel scans split the digit-sum range into contiguous shards, one per
worker, all running the same kernel; records are sorted by canonical form
afterwards, so reports are byte-identical across worker counts once the
elapsed field is excluded.
"""
from __future__ import annotations

import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterable, NamedTuple

from .digits import DigitMultiset, multiset_count
from .orbits import (
    DEFAULT_ORBIT_BUDGET,
    PinnRecord,
    class_modulus,
    make_record,
    orbit,
)

__all__ = [
    "CENSUS_MAX",
    "CensusResult",
    "MissingLowerCatalog",
    "SearchConfig",
    "SearchReport",
    "TwoStageIncomplete",
    "census",
    "report_values",
    "search",
    "search_stage1",
    "search_stage2",
]

CENSUS_MAX = 10**7


class MissingLowerCatalog(Exception):
    pass


class TwoStageIncomplete(Exception):
    pass


@dataclass(frozen=True, slots=True)
class SearchConfig:
    k: int
    allow_zero: bool = True
    exclude_repdigits: bool = False
    orbit_budget: int = DEFAULT_ORBIT_BUDGET
    parallel_chunks: int = 1
    exhaustive_zero_scan: bool = False

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.orbit_budget < 1:
            raise ValueError("orbit_budget must be >= 1")
        if self.parallel_chunks < 1:
            raise ValueError("parallel_chunks must be >= 1")


@dataclass(frozen=True, slots=True)
class SearchReport:
    k: int
    records: tuple[PinnRecord, ...]
    stage1_count: int
    stage2_count: int
    multisets_scanned: int
    elapsed: float = field(compare=False, default=0.0)


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


def _class_candidates(
    k: int, s_lo: int, s_hi: int, allow_zero: bool, exclude_repdigits: bool
) -> list[tuple[int, ...]]:
    """Digit-count tuples of the k-digit multisets with digit sum s in
    [s_lo, s_hi] whose present digits share one residue class modulo
    class_modulus(s, k)."""
    first = 0 if allow_zero else 1
    out = []
    for s in range(s_lo, s_hi + 1):
        t = class_modulus(s, k)
        if t > 9:  # every residue class is a single digit
            classes = [(s // k,)] if s % k == 0 else []
        else:
            classes = [tuple(range(r if r >= first else r + t, 10, t)) for r in range(t)]
        for digits in classes:
            for counts in _class_members(digits, k, s):
                if not (exclude_repdigits and counts.count(0) == 9):
                    out.append(counts)
    return out


def _scan(cfg: SearchConfig, allow_zero: bool) -> tuple[list[PinnRecord], int]:
    k = cfg.k
    s_lo = 1 if allow_zero else k
    span = 9 * k - s_lo + 1
    edges = [s_lo + i * span // cfg.parallel_chunks for i in range(cfg.parallel_chunks + 1)]
    shards = [
        (k, edges[i], edges[i + 1] - 1, allow_zero, cfg.exclude_repdigits)
        for i in range(cfg.parallel_chunks)
    ]
    if cfg.parallel_chunks == 1:
        candidate_lists = [_class_candidates(*shards[0])]
    else:
        with ProcessPoolExecutor(max_workers=cfg.parallel_chunks) as pool:
            futures = [pool.submit(_class_candidates, *shard) for shard in shards]
            candidate_lists = [f.result() for f in futures]
    records = []
    for chunk in candidate_lists:
        for counts in chunk:
            # the criterion keeps a candidate when s divides its canonical value
            rec = make_record(DigitMultiset(counts))
            if rec is not None:
                records.append(rec)
    records.sort(key=lambda r: r.canonical)
    return records, multiset_count(k, allow_zero=allow_zero)


# --- stages ---------------------------------------------------------------------

def search_stage1(cfg: SearchConfig) -> SearchReport:
    """Find every PINN class among the C(k+8,8) zero-free k-digit multisets."""
    if cfg.allow_zero:
        raise ValueError("stage 1 requires allow_zero=False")
    t0 = time.monotonic()
    records, scanned = _scan(cfg, allow_zero=False)
    return SearchReport(
        k=cfg.k,
        records=tuple(records),
        stage1_count=len(records),
        stage2_count=0,
        multisets_scanned=scanned,
        elapsed=time.monotonic() - t0,
    )


def search_stage2(cfg: SearchConfig, lower: Iterable[PinnRecord]) -> SearchReport:
    """Re-verify zero augmentations of shorter zero-free classes and merge
    them with a fresh stage-1 scan at width k.

    Every augmentation is re-tested: padding a PINN class with zeros can
    break it (the new digit pairs (u, 0) must also satisfy the criterion),
    so inherited membership is never assumed.
    """
    if not cfg.allow_zero:
        raise ValueError("stage 2 requires allow_zero=True")
    t0 = time.monotonic()
    k = cfg.k
    lower = list(lower)
    lengths = set()
    for rec in lower:
        j = rec.multiset.k
        if rec.multiset.counts[0]:
            raise ValueError(f"lower record {rec.canonical} contains zeros")
        if j >= k:
            raise ValueError(f"lower record {rec.canonical} is not shorter than k={k}")
        lengths.add(j)
    # Lengths 1..9 all have zero-free classes, so a gap there means the
    # caller's catalog is incomplete.  Beyond 9 an absent length is
    # legitimate (most have no zero-free classes at all).
    missing = [j for j in range(1, min(k - 1, 9) + 1) if j not in lengths]
    if missing:
        raise MissingLowerCatalog(f"no zero-free classes for lengths {missing}")

    stage1 = search_stage1(replace(cfg, allow_zero=False))
    augmented = []
    for rec in sorted(lower, key=lambda r: (r.multiset.k, r.canonical)):
        m = rec.multiset.with_zeros(k - rec.multiset.k)
        if cfg.exclude_repdigits and m.is_repdigit:
            continue
        padded = make_record(m)
        if padded is not None:
            augmented.append(padded)
    records = sorted(
        list(stage1.records) + augmented, key=lambda r: r.canonical
    )
    return SearchReport(
        k=k,
        records=tuple(records),
        stage1_count=stage1.stage1_count,
        stage2_count=len(augmented),
        multisets_scanned=stage1.multisets_scanned + len(lower),
        elapsed=time.monotonic() - t0,
    )


def search(cfg: SearchConfig) -> SearchReport:
    """Full search at width k: stage 1, or both stages when zeros are in.

    With exhaustive_zero_scan set, additionally scans every k-digit
    multiset outright and demands set equality with the two-stage result;
    a mismatch raises TwoStageIncomplete naming the disputed classes.
    """
    if not cfg.allow_zero:
        return search_stage1(cfg)
    t0 = time.monotonic()
    lower = []
    for j in range(1, cfg.k):
        sub = replace(cfg, k=j, allow_zero=False, exclude_repdigits=False)
        lower.extend(search_stage1(sub).records)
    report = search_stage2(cfg, lower)
    if cfg.exhaustive_zero_scan:
        full_records, full_scanned = _scan(cfg, allow_zero=True)
        if cfg.exclude_repdigits:
            full_records = [
                r for r in full_records if not r.multiset.is_repdigit
            ]
        got = {r.multiset for r in report.records}
        want = {r.multiset for r in full_records}
        if got != want:
            diff = sorted(m.canonical for m in got ^ want)
            raise TwoStageIncomplete(
                f"two-stage and full scans disagree on: {diff}"
            )
        report = replace(
            report,
            multisets_scanned=report.multisets_scanned + full_scanned,
        )
    return replace(report, elapsed=time.monotonic() - t0)


# --- value expansion and census ---------------------------------------------------

def report_values(report: SearchReport) -> list[int]:
    """All k-digit values covered by the report's classes, ascending."""
    values = []
    for rec in report.records:
        values.extend(
            int(perm) for perm in orbit(rec.multiset) if perm[0] != "0"
        )
    values.sort()
    return values


class CensusResult(NamedTuple):
    pinn_count: int
    niven_count: int
    digit_sum_histogram: dict[int, int]


def _niven_count_upto(max_value: int) -> int:
    # digit sum maintained incrementally; a trailing 9 rolling over drops it by 9
    count = 0
    s = 0
    for n in range(1, max_value + 1):
        s += 1
        m = n
        while m % 10 == 0:
            s -= 9
            m //= 10
        if n % s == 0:
            count += 1
    return count


def census(max_value: int, orbit_budget: int = DEFAULT_ORBIT_BUDGET) -> CensusResult:
    """Count PINNs and Niven numbers in [1, max_value], with the PINN
    digit-sum histogram.

    Verifies on the way that every counted PINN class with more than one
    nonzero digit, repdigits aside, has digit sum divisible by 3 and
    within [3, 81].
    """
    if not 1 <= max_value <= CENSUS_MAX:
        raise ValueError(f"census covers 1..{CENSUS_MAX}")
    top_k = len(str(max_value))
    pinn_count = 0
    histogram: Counter[int] = Counter()
    for k in range(1, top_k + 1):
        report = search(SearchConfig(k=k, allow_zero=True, orbit_budget=orbit_budget))
        for rec in report.records:
            m = rec.multiset
            nonzero = m.k - m.counts[0]
            if nonzero > 1 and not m.is_repdigit:
                if rec.digit_sum % 3 or not 3 <= rec.digit_sum <= 81:
                    raise AssertionError(
                        f"digit-sum property violated by {rec.canonical}: "
                        f"sum {rec.digit_sum}"
                    )
            if k < top_k:
                n_values = rec.orbit_size * (m.k - m.counts[0]) // m.k
            else:
                n_values = sum(
                    1
                    for perm in orbit(m)
                    if perm[0] != "0" and int(perm) <= max_value
                )
            pinn_count += n_values
            histogram[rec.digit_sum] += n_values
    return CensusResult(
        pinn_count=pinn_count,
        niven_count=_niven_count_upto(max_value),
        digit_sum_histogram={s: c for s, c in sorted(histogram.items()) if c},
    )
