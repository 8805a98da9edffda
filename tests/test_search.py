"""Two-stage multiset search, census, and determinism."""
from __future__ import annotations

from itertools import combinations_with_replacement, permutations

import pytest

from permniven.catalogs import NN2_VALUES
from permniven.digits import DigitMultiset
from permniven.orbits import is_pinn_bruteforce, orbit
from permniven.search import (
    CENSUS_MAX,
    MissingLowerCatalog,
    SearchConfig,
    SearchReport,
    census,
    report_values,
    search,
    search_stage1,
    search_stage2,
)

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
            out.add(DigitMultiset.from_digits(digits))
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
    canos = [r.canonical for r in report.records]
    assert canos == sorted(canos) and len(set(canos)) == len(canos)


@pytest.mark.parametrize("k", range(2, 7))
def test_two_stage_agrees_with_full_scan(k):
    # exhaustive_zero_scan raises TwoStageIncomplete on any discrepancy
    search(SearchConfig(k=k, exhaustive_zero_scan=True))


def test_stage1_is_the_zero_free_slice():
    full = search(SearchConfig(k=4))
    stage1 = search_stage1(SearchConfig(k=4, allow_zero=False))
    assert len(stage1.records) == 12
    assert {r.multiset for r in stage1.records} == {
        r.multiset for r in full.records if r.multiset.counts[0] == 0
    }
    assert stage1.stage2_count == 0


def test_stage1_rejects_zero_allowing_config():
    with pytest.raises(ValueError):
        search_stage1(SearchConfig(k=4))


def test_stage1_beyond_twenty_digits():
    # Zero-free classes do not stop at k = 20: width 21 has three, each
    # confirmed by dividing every arrangement.
    report = search_stage1(SearchConfig(k=21, allow_zero=False))
    assert [(r.canonical, r.digit_sum, r.orbit_size) for r in report.records] == [
        ("44" + "1" * 19, 27, 210),
        ("7" + "1" * 20, 27, 21),
        ("88" + "2" * 19, 54, 210),
    ]
    for rec in report.records:
        assert is_pinn_bruteforce(rec.multiset)[0], rec.canonical


@pytest.mark.parametrize("k", range(1, 7))
def test_search_is_complete_against_bruteforce(k):
    # The scan and the criterion share one congruence argument, so the
    # reference here is orbit enumeration over every multiset.
    want = set()
    for combo in combinations_with_replacement(range(10), k):
        if any(combo):
            m = DigitMultiset.from_digits(combo)
            if is_pinn_bruteforce(m)[0]:
                want.add(m)
    assert {r.multiset for r in search(SearchConfig(k=k)).records} == want


def test_stage2_validates_the_lower_catalog():
    lower = []
    for j in range(1, 4):
        lower.extend(search_stage1(SearchConfig(k=j, allow_zero=False)).records)
    report = search_stage2(SearchConfig(k=4), lower)
    assert {r.multiset for r in report.records} == {
        r.multiset for r in search(SearchConfig(k=4)).records
    }
    # a gap in the lower lengths is detected
    short = [r for r in lower if r.multiset.k != 2]
    with pytest.raises(MissingLowerCatalog):
        search_stage2(SearchConfig(k=4), short)
    # zero-containing or over-length records are not a lower catalog
    with pytest.raises(ValueError):
        search_stage2(
            SearchConfig(k=4),
            search(SearchConfig(k=3)).records,
        )


def test_repdigit_exclusion():
    # all nine aaa classes are PINNs, so k=3 drops from 33 to 24
    assert len(search(SearchConfig(k=3, exclude_repdigits=True)).records) == 24
    assert len(search(SearchConfig(k=1, exclude_repdigits=True)).records) == 0


def test_zero_free_widths_ten_plus():
    # no zero-free PINNs at k = 10 or 11; five classes reappear at k = 12
    for k in (10, 11):
        assert (
            search_stage1(
                SearchConfig(k=k, allow_zero=False, exclude_repdigits=True)
            ).records
            == ()
        )
    twelve = search_stage1(
        SearchConfig(k=12, allow_zero=False, exclude_repdigits=True)
    )
    assert [r.canonical for r in twelve.records] == [
        "444441111111",
        "522222222222",
        "744411111111",
        "774111111111",
        "888882222222",
    ]


def test_parallel_chunks_change_nothing():
    base = search(SearchConfig(k=5))
    for chunks in (2, 3, 7):
        assert search(SearchConfig(k=5, parallel_chunks=chunks)) == base


def test_elapsed_is_not_part_of_report_identity():
    r = search(SearchConfig(k=2))
    clone = SearchReport(
        k=r.k,
        records=r.records,
        stage1_count=r.stage1_count,
        stage2_count=r.stage2_count,
        multisets_scanned=r.multisets_scanned,
        elapsed=r.elapsed + 123.0,
    )
    assert clone == r


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(k=0)
    with pytest.raises(ValueError):
        SearchConfig(k=3, orbit_budget=0)
    with pytest.raises(ValueError):
        SearchConfig(k=3, parallel_chunks=0)


def test_report_values_expand_orbits():
    report = search(SearchConfig(k=3))
    values = report_values(report)
    assert values == sorted(values)
    assert len(values) == 82
    # every value really is k digits and every orbit member appears
    rec = next(r for r in report.records if r.canonical == "432")
    expected = {int(p) for p in orbit(rec.multiset) if p[0] != "0"}
    assert expected <= set(values)


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


def test_census_niven_count_against_bruteforce():
    for bound in (9, 100, 2500, 9999):
        brute = sum(
            1 for n in range(1, bound + 1)
            if n % sum(int(c) for c in str(n)) == 0
        )
        assert census(bound).niven_count == brute


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
