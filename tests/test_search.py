"""Multiset search, census, and determinism.

The search is one scan of every k-digit multiset.  The two-stage argument
(a class with a zero is a shorter zero-free class padded with zeros) is a
test-side reference for that scan.
"""
from __future__ import annotations

import importlib
import math
import random
import tracemalloc
from collections import Counter
from itertools import combinations_with_replacement, permutations

import pytest

from permniven.catalogs import GROUP_CORES, NN2_VALUES, ZERO_FREE_EXTRAS
from permniven.digits import DigitMultiset, multiset_count
from permniven.orbits import class_modulus, decide_pinn, is_pinn_criterion
from permniven.search import (
    CENSUS_MAX,
    SearchConfig,
    SearchReport,
    _arrangements_upto,
    _class_members,
    _pinn_histogram,
    census,
    report_values,
    search,
)
from oracle import is_pinn_bruteforce, orbit
from test_acceptance import CATALOG_OMISSIONS, ZERO_FREE_K10_TO_K14

# Fresh-search class counts per width.  The k=6 and k=9 values exceed the
# stored catalog tables by 6 and 7 classes respectively.
TRUE_CLASS_COUNTS = {1: 9, 2: 16, 3: 33, 4: 45, 5: 58, 6: 73, 7: 74, 8: 78, 9: 94}


def brute_classes(k: int) -> set[DigitMultiset]:
    """Oracle: scan every k-digit number and test all digit arrangements."""
    out = set()
    for n in range(10 ** (k - 1), 10**k):
        digits = [int(c) for c in str(n)]
        s = sum(digits)
        if all(
            int("".join(map(str, p))) % s == 0 for p in set(permutations(digits))
        ):
            out.add(DigitMultiset.from_string(str(n)))
    return out


@pytest.mark.parametrize("k", [1, 2, 3])
def test_search_matches_numeric_bruteforce(k):
    report = search(SearchConfig(k=k))
    assert {r.multiset for r in report.records} == brute_classes(k)


def test_two_digit_values_match_reference():
    assert report_values(search(SearchConfig(k=2))) == list(NN2_VALUES)


@pytest.mark.parametrize("k", sorted(TRUE_CLASS_COUNTS))
def test_class_counts(k):
    report = search(SearchConfig(k=k))
    assert len(report.records) == TRUE_CLASS_COUNTS[k]
    # canonical order, no duplicates
    canos = [r.multiset.canonical for r in report.records]
    assert canos == sorted(canos) and len(set(canos)) == len(canos)


@pytest.mark.parametrize("k", range(2, 15))
def test_two_stage_agrees_with_full_scan(k):
    # Padding the zero-free classes of every width below k with zeros and
    # keeping those the criterion accepts gives exactly the classes with a
    # zero at width k.
    padded = set()
    for j in range(1, k):
        for rec in search(SearchConfig(k=j, allow_zero=False)).records:
            m = rec.multiset.with_zeros(k - j)
            if is_pinn_criterion(m)[0]:
                padded.add(m)
    full = search(SearchConfig(k=k))
    assert padded == {r.multiset for r in full.records if r.multiset.counts[0]}
    assert len(padded) == full.stage2_count


def test_scan_size_and_stage_counts():
    for k in range(1, 15):
        for allow_zero in (True, False):
            report = search(SearchConfig(k=k, allow_zero=allow_zero))
            assert report.multisets_scanned == multiset_count(k, allow_zero)
            zero_free = [r for r in report.records if not r.multiset.counts[0]]
            assert report.stage1_count == len(zero_free)
            assert report.stage2_count == len(report.records) - len(zero_free)
            if not allow_zero:
                assert report.stage2_count == 0


def test_stage1_is_the_zero_free_slice():
    full = search(SearchConfig(k=4))
    stage1 = search(SearchConfig(k=4, allow_zero=False))
    assert len(stage1.records) == 12
    assert {r.multiset for r in stage1.records} == {
        r.multiset for r in full.records if r.multiset.counts[0] == 0
    }
    assert stage1.stage2_count == 0


def test_stage1_beyond_twenty_digits():
    # Zero-free classes do not stop at k = 20: width 21 has three, each
    # confirmed by dividing every arrangement.
    report = search(SearchConfig(k=21, allow_zero=False))
    multisets = [r.multiset for r in report.records]
    assert [(m.canonical, m.digit_sum, m.orbit_size) for m in multisets] == [
        ("44" + "1" * 19, 27, 210),
        ("7" + "1" * 20, 27, 21),
        ("88" + "2" * 19, 54, 210),
    ]
    for rec in report.records:
        assert is_pinn_bruteforce(rec.multiset)[0], rec.multiset.canonical


@pytest.mark.parametrize("k", range(1, 7))
def test_search_is_complete_against_bruteforce(k):
    # The scan and the criterion share one congruence argument, so the
    # reference here is orbit enumeration over every multiset.
    want = set()
    for combo in combinations_with_replacement(range(10), k):
        if any(combo):
            m = DigitMultiset.from_string("".join(map(str, combo)))
            if is_pinn_bruteforce(m)[0]:
                want.add(m)
    assert {r.multiset for r in search(SearchConfig(k=k)).records} == want


def _arrangements(digits):
    """Distinct arrangements of an ascending digit list, in lexicographic order."""
    a = list(digits)
    while True:
        yield a
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


def _reference_classes(k: int, alphabet: str) -> set[str]:
    """Canonical strings of the k-digit PINN classes over the alphabet.

    Shares nothing with the package: a multiset is rejected by the first
    arrangement whose value its digit sum does not divide, and a survivor
    divides every distinct arrangement.
    """
    out = set()
    for combo in combinations_with_replacement(alphabet, k):  # descending
        s = sum(map(int, combo))
        if s == 0 or int("".join(combo)) % s:
            continue
        if all(int("".join(a)) % s == 0 for a in _arrangements(sorted(combo))):
            out.add("".join(combo))
    return out


def test_search_is_complete_against_independent_reference():
    # Every nonzero multiset at k = 7..9 and every zero-free one at
    # k = 10..14, decided by dividing arrangements directly.
    for k, count in ((7, 74), (8, 78), (9, 94)):
        found = {r.multiset.canonical for r in search(SearchConfig(k=k)).records}
        assert len(found) == count
        assert found == _reference_classes(k, "9876543210"), k
    for k in range(10, 15):
        zero_free = search(SearchConfig(k=k, allow_zero=False))
        found = {r.multiset.canonical for r in zero_free.records}
        assert found == _reference_classes(k, "987654321"), k
        assert len(found) == (5 if k == 12 else 0)


def _scanned_classes(monkeypatch, k, allow_zero):
    """(s, digits, has a member) for each class the scan enumerates."""
    seen = []
    # the module, which the package's own `search` function shadows
    search_module = importlib.import_module("permniven.search")

    def spy(digits, k, s):
        members = _class_members(digits, k, s)
        seen.append((s, digits, bool(members)))
        return members

    monkeypatch.setattr(search_module, "_class_members", spy)
    search(SearchConfig(k=k, allow_zero=allow_zero))
    return seen


@pytest.mark.parametrize("allow_zero", [True, False])
def test_every_class_the_scan_enumerates_has_a_member(monkeypatch, allow_zero):
    # the scan's test on a class, k * c0 <= s <= k * c[-1] and T | s - k * c0,
    # keeps no class that cannot reach the digit sum
    for k in range(1, 301):
        seen = _scanned_classes(monkeypatch, k, allow_zero)
        assert seen and all(has for _, _, has in seen), k


@pytest.mark.parametrize("allow_zero", [True, False])
def test_the_scan_drops_no_class_that_reaches_the_sum(monkeypatch, allow_zero):
    # every digit sum and every residue class mod T: above s = 81, T > 9 and
    # only a singleton class at a repdigit sum has a member
    first = 0 if allow_zero else 1
    for k in range(1, 21):
        scanned = {(s, digits) for s, digits, _ in _scanned_classes(monkeypatch, k, allow_zero)}
        reached = set()
        for s in range(1, 9 * k + 1):
            t = class_modulus(s, k)
            for r in range(min(t, 10)):
                digits = tuple(d for d in range(first, 10) if d % t == r)
                if digits and _class_members(digits, k, s):
                    reached.add((s, digits))
        assert scanned == reached, k


def test_repdigit_exclusion():
    # all nine aaa classes are PINNs, so k=3 drops from 33 to 24
    assert len(search(SearchConfig(k=3, exclude_repdigits=True)).records) == 24
    assert len(search(SearchConfig(k=1, exclude_repdigits=True)).records) == 0


def test_elapsed_is_not_part_of_report_identity():
    r = search(SearchConfig(k=2))
    clone = SearchReport(
        k=r.k,
        records=r.records,
        multisets_scanned=r.multisets_scanned,
        elapsed=r.elapsed + 123.0,
    )
    assert clone == r and not clone != r and hash(clone) == hash(r)
    other = clone._replace(multisets_scanned=r.multisets_scanned + 1)
    assert other != r and not other == r


def test_search_memory_does_not_grow_with_width():
    # A record holds its multiset and proof and no canonical string, so the
    # 87 classes at width 10^6 fit in far less than one of their strings.
    tracemalloc.start()
    try:
        report = search(SearchConfig(k=10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.records) == 87
    assert peak < 2**20, peak


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(k=0)
    with pytest.raises(ValueError, match="k must be >= 1"):
        SearchConfig(k=3)._replace(k=0)


def test_report_values_expand_orbits():
    report = search(SearchConfig(k=3))
    values = report_values(report)
    assert values == sorted(values)
    assert len(values) == 82
    # every value really is k digits and every orbit member appears
    rec = next(r for r in report.records if r.multiset.canonical == "432")
    expected = {int(p) for p in orbit(rec.multiset) if p[0] != "0"}
    assert expected <= set(values)
    # the whole list, against every permutation of each class's digits
    for k in range(1, 8):
        for flags in ({}, {"allow_zero": False}, {"exclude_repdigits": True}):
            report = search(SearchConfig(k=k, **flags))
            expected = sorted(
                value
                for rec in report.records
                for value in {int("".join(p)) for p in permutations(rec.multiset.canonical)
                              if p[0] != "0"}
            )
            assert report_values(report) == expected, (k, flags)
    # the text report counts values without expanding them
    for k in range(1, 9):
        for allow_zero in (True, False):
            report = search(SearchConfig(k=k, allow_zero=allow_zero))
            counted = sum(r.multiset.value_count for r in report.records)
            assert counted == len(report_values(report)), (k, allow_zero)


def test_zero_padding_between_widths():
    # Padding a width-k class with one zero lands in the width-(k+1) set,
    # except 6 -> 7: the six digit-sum-27/54 classes special to k=6 do not
    # survive, so the textbook nesting picture breaks exactly there.
    classes = {
        k: {r.multiset for r in search(SearchConfig(k=k)).records}
        for k in range(1, 10)
    }
    for k in range(1, 9):
        padded = {m.with_zeros(1) for m in classes[k]}
        stranded = padded - classes[k + 1]
        if k == 6:
            assert len(stranded) == 6
            assert {m.digit_sum for m in stranded} <= {27, 54}
        else:
            assert not stranded, (k, sorted(m.canonical for m in stranded))


def _classes(texts) -> list[DigitMultiset]:
    return [DigitMultiset.from_string(t) for t in texts]


def test_classification_theorem():
    # The certificate of the README's "Classification": at every width k the
    # PINN classes are the zero-free non-repdigit classes of width k, the 87
    # cores narrower than k padded with zeros, and the repdigits a_(k) when
    # 10^k = 1 (mod 9k).
    cores = _classes(c for group in GROUP_CORES for c in group)
    extras = _classes(c for group in ZERO_FREE_EXTRAS.values() for c in group)
    assert len(set(cores)) == 87 and len(set(extras)) == len(extras) == 31
    # the classes pinned by acceptance criteria 4 and 5 are in the table
    pinned = {**CATALOG_OMISSIONS, **ZERO_FREE_K10_TO_K14}
    assert all(set(_classes(pinned[w])) <= set(_classes(ZERO_FREE_EXTRAS[w])) for w in pinned)

    # 1. A zero-free class wider than 81 has a digit sum above 81 and so is
    # a repdigit.  Up to width 81 the scan finds 91 others: the 60 cores
    # that are not repdigits and the 31 extras.
    zero_free = {}
    for k in range(1, 82):
        cfg = SearchConfig(k=k, allow_zero=False, exclude_repdigits=True)
        zero_free[k] = {r.multiset for r in search(cfg).records}
    found = set().union(*zero_free.values())
    assert len(found) == 91
    assert found == {m for m in cores if not m.is_repdigit} | set(extras)

    # 2. The padding law: every core stays a PINN with 1..6 zeros added, and
    # by the zero reduction six zeros decide any larger number of them.
    for m in cores:
        for z in range(1, 7):
            assert decide_pinn(m.with_zeros(z))[0], (m.canonical, z)

    # 3. The search equals the prediction at every width up to 300, well past
    # the 81 + 6 that the proof needs, and at wide widths, where its cost
    # does not grow with k: the repdigits qualify at 3^7 and 3^8 only.
    wide = (2187, 6561, 10**4, 99999, 10**5)
    assert [k for k in wide if pow(10, k, 9 * k) == 1] == [2187, 6561]
    for k in [*range(1, 301), *wide]:
        want = zero_free.get(k, set()) | {m.with_zeros(k - m.k) for m in cores if m.k < k}
        if pow(10, k, 9 * k) == 1:
            want |= set(_classes(f"{a}_({k})" for a in range(1, 10)))
        records = search(SearchConfig(k=k)).records
        assert [r.multiset for r in records] == sorted(want, key=lambda m: m.canonical), k
        for r in records:
            # the digit-sum law for more than one nonzero digit
            m = r.multiset
            if m.k - m.counts[0] > 1 and not m.is_repdigit:
                assert m.digit_sum % 3 == 0 and m.digit_sum <= 81, m.canonical


PER_K_VALUE_COUNTS = [9, 23, 82, 298, 968, 3008, 6980, 16036, 35794]


def test_census_counts():
    assert census(9) == (9, 9, {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1, 9: 1})
    assert census(99)[:2] == (32, 32)
    assert census(999).pinn_count == 114
    assert census(9999).pinn_count == 412
    assert census(10**5).pinn_count == 1381  # 100000 itself is one
    assert census(10**6).pinn_count == 4389
    assert census(10**7).pinn_count == 11369
    # cumulative per-width value counts tie the census to the searches
    assert census(10**4 - 1).pinn_count == sum(PER_K_VALUE_COUNTS[:4])


def test_census_counts_without_the_search(monkeypatch):
    # the census counts from the classification; the search stays the
    # independent reference of the tests below
    def refuse(cfg):
        raise AssertionError("census called search")

    monkeypatch.setitem(census.__globals__, "search", refuse)
    test_census_counts()


def _width_histogram(k: int) -> Counter[int]:
    """The k-digit PINN values by digit sum, from the search at width k."""
    histogram: Counter[int] = Counter()
    for rec in search(SearchConfig(k=k)).records:
        histogram[rec.multiset.digit_sum] += rec.multiset.value_count
    return histogram


def test_closed_form_counts_each_width_as_the_search_does():
    # count(k) - count(k - 1) is the search's value count at width k, digit
    # sum by digit sum, through the repdigit widths 27, 81, 111 and 243;
    # count(k), the ranking up to 10^k - 1, is the README's closed form
    cores = _classes(c for group in GROUP_CORES for c in group)
    extras = _classes(c for group in ZERO_FREE_EXTRAS.values() for c in group)
    assert _pinn_histogram("") == Counter()
    previous = Counter()
    for k in range(1, 301):
        current = _pinn_histogram("9" * k)
        assert current - previous == _width_histogram(k), k
        previous = current
        closed = sum(m.orbit_size * math.comb(k, m.k) for m in cores)
        closed += sum(m.orbit_size for m in extras if m.k <= k)
        closed += 9 * sum(1 for j in range(10, k + 1) if pow(10, j, 9 * j) == 1)
        assert sum(current.values()) == closed, k
    assert sum(_pinn_histogram("9" * 18).values()) == 10537248  # the PINNs below 10^18


def test_census_pinns_match_a_search_at_every_width(monkeypatch):
    # The reference route: a search at every width below the bound's, each
    # class counted with all its values, and at the bound's width the
    # arrangements not led by zero up to the bound.  The census ranks the
    # padded cores instead; its Niven DP is not under test here.
    monkeypatch.setitem(census.__globals__, "_niven_count", lambda max_value: 0)
    below = [Counter()]
    for k in range(1, 20):
        below.append(below[-1] + _width_histogram(k))

    def reference(max_value: int) -> tuple[int, dict[int, int]]:
        top = str(max_value)
        histogram = below[len(top) - 1].copy()
        for rec in search(SearchConfig(k=len(top))).records:
            m = rec.multiset
            # every zero-led arrangement lies below top, which is not
            zero_led = m.orbit_size - m.value_count
            histogram[m.digit_sum] += _arrangements_upto(m, top) - zero_led
        return sum(histogram.values()), {s: c for s, c in sorted(histogram.items()) if c}

    rng = random.Random(71)
    bounds = [b for n in range(1, 19) for b in (10**n - 1, 10**n)]
    bounds += [1000000, 3456789] + [rng.randrange(1, CENSUS_MAX + 1) for _ in range(20)]
    for b in bounds:
        result = census(b)
        assert (result.pinn_count, result.digit_sum_histogram) == reference(b), b


def brute_niven_counts(bounds) -> dict[int, int]:
    """Reference: Niven numbers in [1, b] for each bound b, by one walk over
    every integer up to the largest."""
    want = sorted(set(bounds))
    out = {}
    count = 0
    s = 0  # digit sum, kept incrementally: a trailing 9 rolling over drops it by 9
    n = 0
    for b in want:
        while n < b:
            n += 1
            s += 1
            m = n
            while m % 10 == 0:
                s -= 9
                m //= 10
            if n % s == 0:
                count += 1
        out[b] = count
    return out


def test_census_niven_count_against_bruteforce():
    rng = random.Random(61)
    small = [9, 100, 2500, 9999]
    bounds = small + [rng.randrange(1, 10**6 + 1) for _ in range(12)] + [3456789, 10**7]
    # the DP keeps each row only from the lowest digit sum the walk can
    # read; prefixes of nines make the walk read the lowest kept ones
    bounds += [999999, 1999999, 8999999, 9899999, 9999999]
    brute = brute_niven_counts(bounds)
    for b in small:
        assert brute[b] == sum(
            1 for n in range(1, b + 1) if n % sum(int(c) for c in str(n)) == 0
        )
    for b in bounds:
        assert census(b).niven_count == brute[b], b


def test_top_width_ranking_matches_orbit_enumeration():
    # every arrangement counts, zero-led ones included.  The census ranks
    # each core with L - w zeros, which are among the search's classes
    rng = random.Random(67)
    cores = _classes(c for group in GROUP_CORES for c in group)
    for k in range(1, 9):
        tops = {str(10 ** (k - 1)), "9" * k}
        tops.update(str(rng.randrange(10 ** (k - 1), 10**k)) for _ in range(6))
        classes = [rec.multiset for rec in search(SearchConfig(k=k)).records]
        assert {m.with_zeros(k - m.k) for m in cores if m.k <= k} <= set(classes)
        for m in classes:
            perms = list(orbit(m))
            # the class's own arrangements make tops that hit one exactly
            chosen = tops | {rng.choice(perms), m.canonical, perms[0]}
            for top in chosen:
                want = sum(1 for p in perms if p <= top)
                assert _arrangements_upto(m, top) == want, (m.canonical, top)


def test_census_at_large_bounds():
    # 10^n itself is a PINN (digit sum 1), so the PINNs up to 10^n are every
    # value of every class below width n + 1, plus one
    below = [sum(r.multiset.value_count for r in search(SearchConfig(k=k)).records)
             for k in range(1, 13)]
    assert census(10**8).niven_count == 6954793
    result = census(10**12)
    assert result.niven_count == 45975917532
    assert result.pinn_count == sum(below) + 1


def test_census_histogram_counts_values():
    result = census(9999)
    assert sum(result.digit_sum_histogram.values()) == result.pinn_count
    # digit sum 1: 1, 10, 100, 1000
    assert result.digit_sum_histogram[1] == 4


def test_census_bound_validation():
    with pytest.raises(ValueError):
        census(0)
    with pytest.raises(ValueError):
        census(CENSUS_MAX * 10)
