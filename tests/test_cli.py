"""Exit codes and output formats of the command line front end."""
from __future__ import annotations

import json

import pytest

from permniven.catalogs import NN2_VALUES
from permniven.cli import run
from permniven.serialize import report_from_json


def test_check_pinn(capsys):
    assert run(["check", "2448"]) == 0
    out = capsys.readouterr().out
    assert "is a PINN" in out
    assert "digit sum 18" in out and "orbit 12" in out


def test_check_failure_names_a_witness(capsys):
    assert run(["check", "13"]) == 1
    assert "witness 13 mod 4 = 1" in capsys.readouterr().out


def test_check_accepts_block_notation(capsys):
    assert run(["check", "10_(3)"]) == 0
    assert "is a PINN" in capsys.readouterr().out


def test_check_json(capsys):
    assert run(["--format", "json", "check", "2448"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["is_pinn"] and obj["orbit_size"] == 12
    assert obj["proof"]["type"] == "exhaustive"


def test_check_rejects_garbage(capsys):
    assert run(["check", "12x"]) == 2
    assert "error" in capsys.readouterr().err


def test_check_refuses_value_list_formats(capsys):
    assert run(["--format", "bfile", "check", "2448"]) == 2
    assert run(["check", "2448", "--format", "csv"]) == 2


def test_search_text_and_bfile(capsys):
    assert run(["search", "--k", "2"]) == 0
    first = capsys.readouterr()
    assert "16 canonical multisets, 23 values" in first.out
    # the wall time goes to stderr, so stdout repeats byte for byte
    assert first.out.splitlines()[-1] == "scanned 54 multisets (stage 1: 7, stage 2: 9)"
    assert first.err.startswith("search took ")
    assert run(["search", "--k", "2"]) == 0
    assert capsys.readouterr().out == first.out
    assert run(["search", "--k", "2", "--format", "bfile"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1 10"
    assert [int(l.split()[1]) for l in lines] == list(NN2_VALUES)


def test_search_json_round_trips(capsys):
    assert run(["search", "--k", "4", "--format", "json", "--threads", "2"]) == 0
    report = report_from_json(capsys.readouterr().out)
    assert report.k == 4 and len(report.records) == 45


def test_search_flag_combinations(capsys):
    assert run(["search", "--k", "3", "--no-zeros", "--exclude-repdigits"]) == 0
    out = capsys.readouterr().out
    assert "8 canonical multisets" in out
    assert run(["search", "--k", "4", "--exhaustive-zero-scan"]) == 0
    capsys.readouterr()


def test_search_rejects_bad_k(capsys):
    assert run(["search", "--k", "0"]) == 2


def test_families_listing_and_verify(capsys):
    assert run(["families", "--k", "12"]) == 0
    out = capsys.readouterr().out
    assert "ka k=12: 9 members" in out
    assert "10_(11)" in out
    assert run(["families", "--k", "12", "--verify"]) == 0
    assert "verified: all 87 members" in capsys.readouterr().out


def test_families_below_minimum_width(capsys):
    assert run(["families", "--k", "9"]) == 2
    assert "k >= 10" in capsys.readouterr().err


def test_catalog_bounds_and_output(capsys):
    assert run(["catalog", "--k", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "family,k,canonical,digit_sum,orbit_size"
    assert len(lines) == 17  # 16 classes + header
    assert run(["catalog", "--k", "10"]) == 2


def test_repdigit_point_checks(capsys):
    assert run(["repdigit", "--n", "1", "--a", "3"]) == 0
    out = capsys.readouterr().out
    assert "exact condition 10^k = 1 (mod 9k): True" in out
    assert "strict condition 10^k = 1 (mod 9ka), a=3: False" in out
    assert run(["repdigit", "--alpha", "1"]) == 1  # k=37 is not Niven-repunit
    capsys.readouterr()
    assert run(["repdigit", "--n", "1", "--a", "11"]) == 2


def test_repdigit_json(capsys):
    assert run(["repdigit", "--n", "4", "--delta2", "1", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["k_factored"] == "3^4 * 9397"
    assert obj["ladder_satisfied"] and obj["exact"]


def test_repdigit_grid(capsys):
    assert run(["repdigit", "--grid", "--max-exp", "1", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["all_ok"] is True
    assert run(["repdigit", "--grid", "--format", "bfile"]) == 2


def test_repdigit_sweep(capsys):
    assert run(["repdigit", "--sweep", "3000", "--format", "bfile"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1 1" and lines[-1] == "12 2997"


def test_order(capsys):
    assert run(["order", "--m", "757"]) == 0
    assert "27" in capsys.readouterr().out
    assert run(["order", "--m", "50"]) == 2
    assert run(["order", "--m", "757", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == 27


def test_census(capsys):
    assert run(["census", "--max", "999"]) == 0
    assert "PINNs <= 999: 114" in capsys.readouterr().out
    assert run(["census", "--max", "999", "--format", "bfile"]) == 2
    assert run(["census", "--max", str(10**9)]) == 2


def test_probe(capsys):
    assert run(["probe-zero-insertion", "1_(27)", "1", "1"]) == 1
    assert "residue 18 (mod 27)" in capsys.readouterr().out
    assert run(["probe-zero-insertion", "18", "0", "1"]) == 0
    assert "Niven" in capsys.readouterr().out
    assert run(["probe-zero-insertion", "18", "9", "1"]) == 2


def test_usage_errors_from_argparse(capsys):
    assert run(["no-such-command"]) == 2
    assert run([]) == 2
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_global_flags_accepted_in_both_positions(capsys):
    assert run(["--format", "json", "search", "--k", "2"]) == 0
    first = capsys.readouterr().out
    assert run(["search", "--k", "2", "--format", "json"]) == 0
    assert capsys.readouterr().out == first
