"""JSON round trips, CSV, and b-file emission."""
from __future__ import annotations

import csv
import io
import json
import math
import sys
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permniven import repdigits
from permniven.digits import DigitMultiset, multiset_count
from permniven.orbits import PinnRecord, is_pinn_criterion
from permniven.repdigits import (
    CONJECTURE_PRIMES,
    DEFAULT_GRID_BOUNDS,
    ConjectureConstraints,
    verify_conjecture_grid,
)
from permniven.search import SearchConfig, search
from permniven.serialize import (
    _record_to_obj,
    bfile_text,
    grid_report_to_json,
    records_to_csv,
    report_from_json,
    report_to_json,
    to_json_text,
)


def test_report_round_trip():
    # the reader infers the space from multisets_scanned and tries both
    # exclude_repdigits settings, which the JSON does not mark
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
        report = search(cfg)
        text = report_to_json(report)
        back = report_from_json(text)
        assert back == report
        assert report_to_json(back) == text  # stable bytes


def _refused(obj) -> None:
    with pytest.raises(ValueError, match="not a search report of width"):
        report_from_json(json.dumps(obj))


def test_report_from_json_refuses_what_it_cannot_prove():
    # The reader runs the search again, so any text that no search writes
    # is refused: a class the criterion rejects or of another width, a
    # field edited, records out of order, repeated or left out, and a
    # multisets_scanned that is not the size of the space searched.
    text = report_to_json(search(SearchConfig(k=4)))
    assert report_from_json(text).records[0].proof.position_gaps_checked == range(1, 4)
    non_pinn = DigitMultiset.from_string("3100")  # 3 - 1 is not 0 mod 4
    foreign = [
        _record_to_obj(PinnRecord(non_pinn, is_pinn_criterion(non_pinn)[1])),
        json.loads(report_to_json(search(SearchConfig(k=5))))["records"][0],
    ]
    for rec in foreign:
        obj = json.loads(text)
        obj["records"][0] = rec
        _refused(obj)
    edits = [
        ("canonical", "1001"),
        ("digit_sum", 2),
        ("orbit_size", 5),
        ("position_gaps_checked", [1, 3, 2]),
        ("stage1_count", 13),
        ("k", 4.0),
        ("k", "4"),
    ]
    for key, value in edits:
        obj = json.loads(text)
        rec = obj["records"][0]
        target = obj if key in obj else rec if key in rec else rec["proof"]
        target[key] = value
        _refused(obj)
    reversed_ = json.loads(text)
    reversed_["records"].reverse()
    repeated = json.loads(text)
    repeated["records"].append(repeated["records"][-1])
    repeated["stage2_count"] += 1
    left_out = json.loads(text)
    left_out["records"].pop()
    left_out["stage2_count"] -= 1
    assert repeated["records"][-1]["counts"][0]  # the last class has a zero
    for obj in (reversed_, repeated, left_out):
        _refused(obj)
    # 7 counts no space; the zero-free one cannot hold this report's
    # classes with a zero
    for scanned in (7, multiset_count(4, allow_zero=False)):
        obj = json.loads(text)
        obj["multisets_scanned"] = scanned
        _refused(obj)
    # Texts too short for their width are refused before any work that grows
    # with it: one class at 10^8 with a one-digit canonical string, and the
    # classes the search finds at 10^8 without their canonical strings
    # (building them would take 8.7 GB).  An empty report at 10^12 differs
    # from the search's in its counts, before any k-digit string is built.
    k = 10**8
    one = json.loads(text)
    one.update(k=k, multisets_scanned=multiset_count(k), stage1_count=0, stage2_count=1)
    one["records"] = one["records"][:1]
    assert one["records"][0]["canonical"] == "1000"
    one["records"][0].update(counts=[k - 1, 1] + [0] * 8, canonical="1")
    report = search(SearchConfig(k=k))
    bare = {
        "k": k,
        "stage1_count": report.stage1_count,
        "stage2_count": report.stage2_count,
        "multisets_scanned": report.multisets_scanned,
        "records": [{"counts": list(r.multiset.counts)} for r in report.records],
    }
    k = 10**12
    empty = {"k": k, "stage1_count": 0, "stage2_count": 0,
             "multisets_scanned": multiset_count(k), "records": []}
    for obj in (one, bare, empty):
        tracemalloc.start()
        try:
            _refused(obj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6
    # JSON of another shape gets the same refusal, not a KeyError or TypeError
    for shape in ('{"records": []}', '{"k": 4, "records": 5}', "[]", "5"):
        with pytest.raises(ValueError, match="not a search report of width"):
            report_from_json(shape)


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
    failed = replace(report, entries=report.entries + (replace(report.entries[0], exact=False),))
    empty = replace(report, entries=())
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
