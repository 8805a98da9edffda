"""JSON, CSV, and b-file emission."""
from __future__ import annotations

import csv
import io
import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permniven import repdigits
from permniven.digits import DigitMultiset, multiset_count
from permniven.orbits import CriterionProof, PinnRecord
from permniven.repdigits import (
    CONJECTURE_PRIMES,
    DEFAULT_GRID_BOUNDS,
    ConjectureConstraints,
    verify_conjecture_grid,
)
from permniven.search import SearchConfig, SearchReport, search
from permniven.serialize import (
    _proof_to_obj,
    bfile_text,
    grid_report_to_json,
    records_to_csv,
    report_to_json,
    to_json_text,
)


def test_report_json_is_deterministic():
    # every field but the elapsed time is a function of the query, so two
    # searches write the same bytes
    configs = [SearchConfig(k=k) for k in range(1, 15)]
    configs += [
        SearchConfig(k=12, allow_zero=False),
        SearchConfig(k=12, exclude_repdigits=True),
        SearchConfig(k=12, allow_zero=False, exclude_repdigits=True),
        # at k = 1 both spaces have the same size
        SearchConfig(k=1, allow_zero=False),
        SearchConfig(k=1, exclude_repdigits=True),
        # no class at all
        SearchConfig(k=13, allow_zero=False, exclude_repdigits=True),
    ]
    assert multiset_count(1, True) == multiset_count(1, False)
    assert not search(configs[-1]).records
    for cfg in configs:
        text = report_to_json(search(cfg))
        assert json.loads(text)["k"] == cfg.k
        assert report_to_json(search(cfg)) == text


def reference_obj(report):
    """The search report as the object its JSON text writes."""
    return {
        "k": report.k,
        "stage1_count": report.stage1_count,
        "stage2_count": report.stage2_count,
        "multisets_scanned": report.multisets_scanned,
        "records": [
            {
                "counts": list(r.multiset.counts),
                "canonical": r.multiset.canonical,
                "digit_sum": r.multiset.digit_sum,
                "orbit_size": r.multiset.orbit_size,
                "proof": _proof_to_obj(r.proof),
            }
            for r in report.records
        ],
    }


def test_report_json_is_json_dumps():
    reports = [
        search(SearchConfig(k, allow_zero, exclude_repdigits))
        for k in [*range(1, 41), 300, 3000]
        for allow_zero in (True, False)
        for exclude_repdigits in (True, False)
    ]
    empty = search(SearchConfig(k=13, allow_zero=False, exclude_repdigits=True))
    assert not empty.records
    # a repdigit proves with no pairs and no gaps; a rejected proof stops at
    # gap 1 with base residue -1
    repdigit = DigitMultiset((0, 0, 0, 3, 0, 0, 0, 0, 0, 0))
    rejected = DigitMultiset((0, 1, 2, 0, 0, 0, 0, 0, 0, 0))
    hand_built = SearchReport(
        k=3,
        records=(
            PinnRecord(repdigit, CriterionProof((), range(1, 1), 0)),
            PinnRecord(rejected, CriterionProof(((2, 1),), range(1, 2), -1)),
            PinnRecord(repdigit, CriterionProof((), range(1, 1), 0)),
        ),
        multisets_scanned=7,
    )
    for r in (*reports, empty, hand_built):
        expected = json.dumps(reference_obj(r), indent=2, sort_keys=True) + "\n"
        assert report_to_json(r) == expected, r.k
    assert json.loads(report_to_json(empty))["records"] == []


def test_report_json_excludes_elapsed():
    report = search(SearchConfig(k=3))
    obj = json.loads(report_to_json(report))
    assert set(obj) == {
        "k", "records", "stage1_count", "stage2_count", "multisets_scanned"
    }
    assert "elapsed" not in report_to_json(report)


def test_csv_emission_parses_back():
    report = search(SearchConfig(k=4))
    rows = list(csv.reader(io.StringIO(records_to_csv(report.records))))
    assert rows[0] == ["canonical", "k", "digit_sum", "orbit_size", "compressed"]
    assert len(rows) == len(report.records) + 1
    for row, m in zip(rows[1:], (r.multiset for r in report.records)):
        assert row[0] == m.canonical
        assert int(row[2]) == m.digit_sum
        assert int(row[3]) == m.orbit_size


def test_bfile_lines():
    assert bfile_text([10, 12, 18]) == "1 10\n2 12\n3 18\n"
    assert bfile_text([]) == ""
    assert bfile_text([18, 10, 12]).splitlines()[0] == "1 10"  # sorts
    # digit strings of one width sort as their values do
    assert bfile_text(["18", "10", "12"]) == "1 10\n2 12\n3 18\n"


def _grid_report_obj(report):
    """The grid report as the object the grid's JSON text writes."""
    names = tuple(CONJECTURE_PRIMES)
    return {
        "bounds": dict(zip(names, report.bounds.as_tuple())),
        "bit_cap": report.bit_cap,
        "skipped_over_cap": report.skipped_over_cap,
        "all_ok": report.all_ok,
        "entries": [
            {
                "exponents": dict(zip(names, e.exponents)),
                "modulus_bits": e.modulus_bits,
                "exact": e.exact,
                "expected": e.expected,
            }
            for e in report.entries
        ],
    }


@pytest.mark.parametrize(
    "bounds",
    [DEFAULT_GRID_BOUNDS, ConjectureConstraints(n=49999)]
    + [ConjectureConstraints(*[u] * 10) for u in range(4)],
    ids=["default", "n49999", "uniform0", "uniform1", "uniform2", "uniform3"],
)
def test_grid_report_json_is_json_dumps(bounds):
    report = verify_conjecture_grid(bounds)
    expected = json.dumps(_grid_report_obj(report), indent=2, sort_keys=True) + "\n"
    assert grid_report_to_json(report) == expected


def test_grid_report_json_with_skipped_and_failed_entries(monkeypatch):
    monkeypatch.setattr(repdigits, "GRID_BIT_CAP", 32)
    report = verify_conjecture_grid(ConjectureConstraints(n=4, alpha=2, beta=1, delta1=1))
    assert report.skipped_over_cap > 0 and report.bit_cap == 32
    # a failed entry writes all_ok false; no entries write an empty list
    failed = report._replace(entries=report.entries + (report.entries[0]._replace(exact=False),))
    empty = report._replace(entries=())
    for r in (report, failed, empty):
        expected = json.dumps(_grid_report_obj(r), indent=2, sort_keys=True) + "\n"
        assert grid_report_to_json(r) == expected
    assert json.loads(grid_report_to_json(failed))["all_ok"] is False
    assert json.loads(grid_report_to_json(empty))["entries"] == []


# keys and strings that need escaping: quotes, backslashes, control and
# non-ASCII characters, astral ones included
_texts = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600') | st.characters(),
    max_size=6,
)
_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**200), 2**200)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
    | _texts
    | st.lists(st.integers())  # the one-join path for int lists
    | st.lists(st.integers() | st.booleans())
)
_json_values = st.recursive(
    _leaves,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_texts, children, max_size=4)
    ),
    max_leaves=30,
)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_json_values)
def test_to_json_text_writes_what_json_dumps_writes(value):
    assert to_json_text(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_to_json_text_beyond_the_int_conversion_limit():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # as cli.run does while a command runs
    try:
        value = {"n": 7**6000, "gaps": [1, -(10**5000)]}
        assert len(str(value["n"])) > 4300
        assert to_json_text(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("value", [{1: 2}, {None: 1}, [{"a": {(1, 2): 3}}]])
def test_to_json_text_takes_only_str_keys(value):
    with pytest.raises(TypeError):
        to_json_text(value)
