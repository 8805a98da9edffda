"""JSON round trips, CSV, and b-file emission."""
from __future__ import annotations

import csv
import io
import json

import pytest

from permniven.digits import DigitMultiset
from permniven.families import catalog, instantiate
from permniven.orbits import PinnRecord, is_pinn_criterion
from permniven.repdigits import ConjectureConstraints, verify_conjecture_grid
from permniven.search import SearchConfig, census, search
from permniven.serialize import (
    _record_to_obj,
    bfile_text,
    census_to_obj,
    family_instances_to_obj,
    grid_report_to_obj,
    records_to_csv,
    report_from_json,
    report_to_json,
)


def test_report_round_trip():
    configs = [SearchConfig(k=k) for k in range(1, 15)]
    for cfg in [*configs, SearchConfig(k=12, allow_zero=False)]:
        report = search(cfg)
        text = report_to_json(report)
        back = report_from_json(text)
        assert back == report
        assert report_to_json(back) == text  # stable bytes


def test_report_from_json_refuses_what_it_cannot_prove():
    # The reader rebuilds each class from its counts alone and re-proves it,
    # so a class the criterion rejects or of another width is refused even
    # when its other fields agree with it, and so is any field that the
    # rebuilt report would not write.
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
        with pytest.raises(ValueError, match="not a PINN class of width 4"):
            report_from_json(json.dumps(obj))
    edits = [
        ("canonical", "1001"),
        ("digit_sum", 2),
        ("orbit_size", 5),
        ("position_gaps_checked", [1, 3, 2]),
        ("stage1_count", 13),
    ]
    for key, value in edits:
        obj = json.loads(text)
        rec = obj["records"][0]
        target = obj if key in obj else rec if key in rec else rec["proof"]
        target[key] = value
        with pytest.raises(ValueError, match="do not match"):
            report_from_json(json.dumps(obj))


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


def test_family_instances_to_obj_uses_block_notation():
    objs = family_instances_to_obj([instantiate("ka", 12)])
    assert objs[0]["template"] == "ka"
    assert objs[0]["k"] == 12
    assert objs[0]["members"][0] == "10_(11)"
    objs = family_instances_to_obj(catalog(2))
    assert [o["template"] for o in objs] == ["N21", "N22"]


def test_grid_report_to_obj():
    report = verify_conjecture_grid(ConjectureConstraints(n=3, alpha=1))
    obj = grid_report_to_obj(report)
    assert obj["all_ok"] is True
    assert obj["bounds"]["n"] == 3
    assert len(obj["entries"]) == len(report.entries)
    assert {"exponents", "modulus_bits", "exact", "expected"} == set(
        obj["entries"][0]
    )
    json.dumps(obj)  # fully serializable


def test_census_to_obj():
    result = census(999)
    obj = census_to_obj(result, 999)
    assert obj["pinn_count"] == 114
    assert obj["max_value"] == 999
    assert sum(obj["digit_sum_histogram"].values()) == 114
    json.dumps(obj)
