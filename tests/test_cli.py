"""Exit codes and output formats of the command line front end."""
from __future__ import annotations

import json
import math
import re
import sys
import time
import tracemalloc

import pytest

from permniven.catalogs import NN2_VALUES
from permniven.cli import run
from permniven.digits import digit_sum_of, parse_number, value_mod
from permniven.serialize import report_from_json
from test_orbits import says_pinn


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
    assert obj["proof"]["type"] == "criterion"
    assert obj["proof"]["residue_counted"] is True


@pytest.mark.parametrize("number", ["1_(5000)", "1_(3000)2_(3000)"])
def test_check_beyond_the_int_conversion_limit(capsys, number):
    digits = parse_number(number)
    assert run(["check", number]) == 1
    out = capsys.readouterr().out
    found = re.search(r"is not a PINN: witness (\d+) mod (\d+) = (\d+)$", out)
    assert found, out[:200]
    perm, s, r = found.group(1), int(found.group(2)), int(found.group(3))
    assert sorted(perm) == sorted(digits) and s == digit_sum_of(digits)
    assert r != 0 and value_mod(perm, s) == r


def test_check_orbit_size_beyond_the_int_conversion_limit(capsys):
    limit = sys.get_int_max_str_digits()
    assert run(["check", "1_(10000)2_(10000)", "--format", "json"]) == 1
    assert sys.get_int_max_str_digits() == limit  # restored on return
    sys.set_int_max_str_digits(0)  # the orbit size has 6019 digits
    try:
        obj = json.loads(capsys.readouterr().out)
    finally:
        sys.set_int_max_str_digits(limit)
    assert obj["orbit_size"] == math.comb(20000, 10000)
    assert not obj["is_pinn"]


def test_check_rejects_a_repeat_count_beyond_sys_maxsize(capsys):
    assert run(["check", "1_(99999999999999999999)"]) == 2
    assert "repeat count" in capsys.readouterr().err


def test_check_large_pinn_orbit_by_residue_count(capsys):
    # an orbit of 1627920, which the DP settles from a 2268-entry table
    assert run(["check", "221_(5)0_(13)"]) == 0
    out = capsys.readouterr().out
    assert "is a PINN" in out
    assert "residue count puts all 1627920 arrangements at 0 mod 9" in out


def test_check_repdigit_is_cross_checked_by_the_closed_form(capsys):
    assert run(["check", "111"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "cross-check: 10^k = 1 (mod 9k)"
    assert run(["check", "3_(27)", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["proof"]["residue_counted"] is False


def test_check_cross_checks_a_wide_zero_padded_pinn(capsys):
    # the DP runs with the zeros capped at max(1, v2(s), v5(s)) <= 6, so
    # its table is small at any width
    assert run(["check", "24480_(100000)", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["is_pinn"] and obj["proof"]["residue_counted"] is True


def test_check_never_expands_a_pinn(capsys):
    # 10^8 zeros: the verdict, its proof and the printed form all come from
    # the runs, so no string of the number's width is built
    tracemalloc.start()
    try:
        assert run(["check", "24480_(100000000)"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**7
    k = 10**8 + 4
    assert capsys.readouterr().out.splitlines() == [
        f"24480_(100000000) is a PINN: k {k}, digit sum 18, orbit {math.perm(k, 4) // 2}",
        "proof: congruence criterion over 6 digit pairs and 100000003 position gaps",
        f"cross-check: the residue count puts all {math.perm(k, 4) // 2} "
        "arrangements at 0 mod 18",
    ]


def test_check_reports_deciders_that_disagree(capsys, monkeypatch):
    import permniven.orbits as orbits

    def rejects_a_pair(m):
        return False, orbits.CriterionProof(
            digit_pairs_checked=((4, 2),), position_gaps_checked=range(1, 2), base_residue=-1
        )

    # a pair rejection no arrangement backs up; a repdigit the closed form
    # refuses; a DP table past the internal guard
    for criterion, number in ((rejects_a_pair, "2448"), (says_pinn, "11"),
                              (says_pinn, "1_(200)20_(200)")):
        monkeypatch.setattr(orbits, "is_pinn_criterion", criterion)
        assert run(["check", number]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("verification failed: ")


def test_check_rejects_garbage(capsys):
    assert run(["check", "12x"]) == 2
    assert "error" in capsys.readouterr().err


def test_other_scripts_digits_are_a_usage_error(capsys):
    arabic = "\u0661\u0662"  # twelve in Arabic-Indic digits
    for argv in (
        ["check", arabic],
        ["check", f"1_({arabic})"],
        ["probe-zero-insertion", arabic, "0", "1"],
    ):
        assert run(argv) == 2, argv


def test_check_refuses_value_list_formats(capsys):
    assert run(["--format", "bfile", "check", "2448"]) == 2
    assert run(["check", "2448", "--format", "csv"]) == 2


# every command or repdigit mode with a format it has no writer for, and the
# library call that must not run before the refusal
_REFUSALS = [
    (["check", "2448"], "decide_pinn", "text, json", ["csv", "bfile"]),
    (["repdigit", "--grid"], "verify_conjecture_grid", "text, json, csv", ["bfile"]),
    (["repdigit", "--n", "1"], "repdigit_niven_check", "text, json", ["csv", "bfile"]),
    (["order", "--m", "7"], "multiplicative_order", "text, json", ["csv", "bfile"]),
    (["census", "--max", "999"], "census", "text, json, csv", ["bfile"]),
    (["probe-zero-insertion", "18", "1", "1"], "zero_insertion_probe", "text, json",
     ["csv", "bfile"]),
]


@pytest.mark.parametrize(
    "argv, entry, allowed",
    [
        (argv, entry, allowed)
        for base, entry, allowed, refused in _REFUSALS
        for fmt in refused
        for argv in (["--format", fmt, *base], [*base, "--format", fmt])
    ],
)
def test_a_format_without_a_writer_is_refused_before_any_work(capsys, monkeypatch, argv,
                                                              entry, allowed):
    import permniven.cli as cli

    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{entry} ran before the format was refused")

    monkeypatch.setattr(cli, entry, must_not_run)
    fmt = argv[argv.index("--format") + 1]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: format {fmt!r} is not valid here (choose from {allowed})\n"


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
    assert run(["search", "--k", "4", "--format", "json"]) == 0
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


def test_families_and_catalog_json_use_block_notation(capsys):
    assert run(["families", "--k", "12", "--format", "json"]) == 0
    ka = [f for f in json.loads(capsys.readouterr().out)["families"] if f["template"] == "ka"]
    assert len(ka) == 1
    assert ka[0]["k"] == 12
    assert ka[0]["members"][0] == "10_(11)"
    assert run(["catalog", "--k", "2", "--format", "json"]) == 0
    groups = json.loads(capsys.readouterr().out)["families"]
    assert [g["template"] for g in groups] == ["N21", "N22"]


def test_families_never_expands_a_member(capsys):
    # at k = 10^7 every member line and JSON entry is printed from its runs,
    # and the verification reads the counts, so no k-digit string is built
    for fmt in ("text", "json"):
        tracemalloc.start()
        try:
            assert run(["families", "--verify", "--k", "10000000", "--format", fmt]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6
        out = capsys.readouterr().out
        if fmt == "json":
            assert json.loads(out)["families"][0]["members"][0] == "10_(9999999)"
        else:
            assert out.splitlines()[1] == "  10_(9999999)"


def test_budget_only_where_it_is_read(capsys):
    assert run(["search", "--k", "6", "--budget", "1"]) == 2
    assert run(["--budget", "1", "check", "2448"]) == 2
    capsys.readouterr()
    # --budget still parses after check and families, and selects nothing
    assert run(["check", "2448"]) == 0
    plain = capsys.readouterr().out
    for budget in ("1", "-5"):
        assert run(["check", "2448", "--budget", budget]) == 0
        assert capsys.readouterr().out == plain
    assert run(["families", "--verify", "--k", "10", "--budget", "1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True


def test_families_below_minimum_width(capsys):
    # every family needs one zero, so the widest cores (9 digits) set the bound
    for k in (5, 9):
        assert run(["families", "--k", str(k)]) == 2
        assert capsys.readouterr().err == f"error: the ten families need k >= 10, got {k}\n"


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
    # every exponent 0 is the empty product
    assert run(["repdigit", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert (obj["k_factored"], obj["k"], obj["k_bits"]) == ("1", 1, 1)


def test_repdigit_grid(capsys):
    assert run(["repdigit", "--grid", "--max-exp", "1", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["all_ok"] is True
    assert run(["repdigit", "--grid", "--format", "bfile"]) == 2


def test_repdigit_grid_json_is_json_dumps_of_itself(capsys):
    assert run(["repdigit", "--grid", "--format", "json"]) == 0
    out = capsys.readouterr().out
    obj = json.loads(out)
    assert out == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    assert len(obj["entries"]) == 3514 and obj["all_ok"] is True


def test_repdigit_grid_text_keeps_the_time_off_stdout(capsys):
    runs = []
    for _ in range(2):
        assert run(["repdigit", "--grid"]) == 0
        runs.append(capsys.readouterr())
    assert runs[0].out == runs[1].out
    assert "took" not in runs[0].out
    assert re.fullmatch(r"grid took \d+\.\d\ds\n", runs[0].err)


def test_repdigit_grid_refuses_too_many_tuples_at_once(capsys):
    t0 = time.monotonic()
    assert run(["repdigit", "--grid", "--max-exp", "3", "--format", "json"]) == 0
    assert time.monotonic() - t0 < 1
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["entries"]) == 277 + 9 and obj["all_ok"]
    # uniform bounds of 4 hold 1953781 ladder tuples, about a minute of work
    t0 = time.monotonic()
    assert run(["repdigit", "--grid", "--max-exp", "4"]) == 2
    assert time.monotonic() - t0 < 1
    assert "1953781 ladder tuples" in capsys.readouterr().err
    # the count is closed-form, so no bound is too large to refuse
    assert run(["repdigit", "--grid", "--max-exp", str(10**30)]) == 2
    assert "ladder tuples" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, refused",
    [
        (["--sweep", "100", "--grid"], "--sweep"),
        (["--max-exp", "3"], "--max-exp"),
        (["--sweep", "100", "--max-exp", "3"], "--max-exp"),
        (["--grid", "--alpha", "2", "--a", "5"], "--a, --alpha"),
        (["--grid", "--n", "0"], "--n"),
        (["--sweep", "100", "--a", "1"], "--a"),
    ],
)
def test_repdigit_refuses_a_flag_its_mode_ignores(capsys, argv, refused):
    assert run(["repdigit", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert refused in captured.err


def test_repdigit_sweep(capsys):
    assert run(["repdigit", "--sweep", "3000", "--format", "bfile"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1 1" and lines[-1] == "12 2997"


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_repdigit_sweep_rejects_a_limit_below_one(capsys, limit):
    assert run(["repdigit", "--sweep", limit]) == 2
    assert "--sweep" in capsys.readouterr().err


def test_repdigit_sweep_refuses_a_limit_over_the_cap_at_once(capsys):
    # the walk takes about a second at the cap of 10^10 and grows past it
    t0 = time.monotonic()
    assert run(["repdigit", "--sweep", "10000000001"]) == 2
    assert time.monotonic() - t0 < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cap of 10000000000" in captured.err


def test_repdigit_refuses_a_width_over_the_bit_cap_at_once(capsys):
    # k = 3^500000 has a million bits; 10^k mod 9k would run for hours
    t0 = time.monotonic()
    assert run(["repdigit", "--n", "500000"]) == 2
    assert time.monotonic() - t0 < 1
    assert "6144-bit cap" in capsys.readouterr().err


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
    assert run(["census", "--max", str(10**18 + 1)]) == 2
    assert run(["census", "--max", "0"]) == 2


def test_census_json(capsys):
    assert run(["census", "--max", "999", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["pinn_count"] == 114
    assert obj["max_value"] == 999
    assert sum(obj["digit_sum_histogram"].values()) == 114


def test_census_at_the_cap_within_seconds(capsys):
    t0 = time.monotonic()
    assert run(["census", "--max", str(10**18), "--format", "json"]) == 0
    assert time.monotonic() - t0 < 5
    obj = json.loads(capsys.readouterr().out)
    assert obj["max_value"] == 10**18
    assert sum(obj["digit_sum_histogram"].values()) == obj["pinn_count"]


def test_probe(capsys):
    assert run(["probe-zero-insertion", "1_(27)", "1", "1"]) == 1
    assert "residue 18 (mod 27)" in capsys.readouterr().out
    assert run(["probe-zero-insertion", "18", "0", "1"]) == 0
    assert "Niven" in capsys.readouterr().out
    assert run(["probe-zero-insertion", "18", "9", "1"]) == 2
    capsys.readouterr()
    assert run(["probe-zero-insertion", "000", "0", "1"]) == 2
    assert "digit sum of 000 is 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "0_(5)"],
        ["repdigit", "--alpha", "-1"],
        ["repdigit", "--grid", "--max-exp", "-1"],
        ["order", "--m", "0"],
        ["probe-zero-insertion", "18", "0", "0"],
        ["probe-zero-insertion", "1x", "0", "1"],
    ],
)
def test_input_the_library_refuses_is_a_usage_error(capsys, argv):
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_an_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    import permniven.cli as cli

    def faulty_census(max_value):
        raise ValueError("an internal fault")

    monkeypatch.setattr(cli, "census", faulty_census)
    assert run(["census", "--max", "999"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "an internal fault" in captured.err


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


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--k", "7"],
        ["search", "--k", "12", "--no-zeros"],
        ["check", "2448"],
        ["check", "13"],
        ["families", "--k", "12", "--verify"],
        ["census", "--max", "999"],
        ["repdigit", "--n", "4", "--delta2", "1", "--a", "3"],
        ["repdigit", "--sweep", "3000"],
        ["repdigit", "--grid", "--max-exp", "2"],
        ["order", "--m", "757"],
        ["probe-zero-insertion", "1_(27)", "1", "1"],
    ],
)
def test_json_output_is_indented_sorted_json(capsys, argv):
    run([*argv, "--format", "json"])
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
