"""Acceptance gate: twelve numbered criteria, one verdict line each.

Run with `pytest -v tests/test_acceptance.py`: each criterion is a single
test, so the verbose listing shows exactly one PASSED/FAILED line per
criterion.  Where the printed reference data and a fresh exhaustive search
disagree, the disagreement is pinned here with its evidence: criterion 4
names the 13 classes the printed k=6 and k=9 tables omit, and criterion 5
names the five zero-free non-repdigit classes of width 12.  Each pinned
class is confirmed by dividing every arrangement, and any new disagreement
in either direction fails the criterion.
"""
from __future__ import annotations

import random
import time
from itertools import combinations_with_replacement

import pytest

from permniven.catalogs import NN2_VALUES
from permniven.cli import run
from permniven.digits import DigitMultiset
from permniven.families import FAMILY_IDS, catalog, instantiate, verify_family
from permniven.numtheory import factorize, probable_prime
from permniven.orbits import decide_pinn, is_pinn_criterion
from permniven.repdigits import DISTINGUISHED_PRIMES, verify_conjecture_grid, zero_insertion_probe
from permniven.search import SearchConfig, report_values, search
from permniven.serialize import report_to_json
from oracle import is_pinn_bruteforce
from test_orbits import values_permutation_closed


def _passed(n: int, detail: str) -> None:
    print(f"criterion {n:02d} PASS: {detail}")


def test_criterion_01_two_digit_catalog():
    t0 = time.perf_counter()
    values = report_values(search(SearchConfig(k=2)))
    elapsed = time.perf_counter() - t0
    assert values == list(NN2_VALUES)
    assert elapsed < 1.0
    _passed(1, f"k=2 search returns the 23 reference values in {elapsed:.2f}s")


def test_criterion_02_three_digit_catalog_and_closure():
    t0 = time.perf_counter()
    report = search(SearchConfig(k=3))
    elapsed = time.perf_counter() - t0
    assert len(report.records) == 33
    assert {r.multiset for r in report.records} == {m for g in catalog(3) for m in g.members}
    assert values_permutation_closed(report_values(report))
    assert elapsed < 1.0
    _passed(2, f"33 classes, value set permutation-closed, {elapsed:.2f}s")


def test_criterion_03_stage1_k4():
    t0 = time.perf_counter()
    stage1 = search(SearchConfig(k=4, allow_zero=False))
    elapsed = time.perf_counter() - t0
    expected = set({g.template_id: g.members for g in catalog(4)}["N45"])
    assert len(stage1.records) == 12
    assert {r.multiset for r in stage1.records} == expected
    assert elapsed < 1.0
    _passed(3, f"exactly the 12 zero-free 4-digit classes, {elapsed:.2f}s")


# Classes the printed k=6 and k=9 tables omit.  Each has digit sum 27 or
# 54, and that digit sum divides every one of its arrangements.
CATALOG_OMISSIONS = {
    6: ("555552", "744444", "774441", "777411", "855522", "885222"),
    9: ("444444111", "555222222", "744441111", "774411111", "777111111",
        "852222222", "888888222"),
}

# The zero-free non-repdigit classes at k = 10..14: five, all of width 12.
ZERO_FREE_K10_TO_K14 = {
    12: ("444441111111", "522222222222", "744411111111", "774111111111",
         "888882222222"),
}


def test_criterion_04_catalog_reproduction_k5_to_k9():
    t0 = time.perf_counter()
    sizes = {g.template_id: len(g.members) for k in range(5, 10) for g in catalog(k)}
    assert sizes["N67"] == 9 and sizes["N89"] == 4 and sizes["N910"] == 9
    problems = []
    for k in range(5, 10):
        found = {r.multiset for r in search(SearchConfig(k=k)).records}
        stored = {m for g in catalog(k) for m in g.members}
        omitted = {DigitMultiset.from_string(c) for c in CATALOG_OMISSIONS.get(k, ())}
        for m in sorted(stored - found, key=lambda m: m.canonical):
            problems.append(f"  k={k}: {m.canonical} is stored but not found")
        for m in sorted(found - stored - omitted, key=lambda m: m.canonical):
            problems.append(
                f"  k={k}: {m.canonical} (digit sum {m.digit_sum}) is found "
                "but neither stored nor a known omission"
            )
        for m in sorted(omitted, key=lambda m: m.canonical):
            if m in stored:
                problems.append(f"  k={k}: known omission {m.canonical} is stored")
            if m not in found:
                problems.append(f"  k={k}: known omission {m.canonical} is not found")
            if not is_pinn_bruteforce(m)[0]:
                problems.append(
                    f"  k={k}: known omission {m.canonical} fails orbit enumeration"
                )
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    if problems:
        pytest.fail(
            "search output, the stored k=5..9 tables and the known omissions "
            "disagree:\n" + "\n".join(problems),
            pytrace=False,
        )
    omissions = sum(len(v) for v in CATALOG_OMISSIONS.values())
    _passed(
        4,
        f"k=5..9 tables reproduced, plus the {omissions} classes they omit "
        f"(brute-force confirmed), in {elapsed:.1f}s",
    )


def test_criterion_05_zero_free_classes_k10_to_k14():
    t0 = time.perf_counter()
    problems = []
    for k in range(10, 15):
        report = search(
            SearchConfig(k=k, allow_zero=False, exclude_repdigits=True)
        )
        found = [r.multiset.canonical for r in report.records]
        expected = list(ZERO_FREE_K10_TO_K14.get(k, ()))
        if found != expected:
            problems.append(f"  k={k}: found {found}, expected {expected}")
        for r in report.records:
            if r.multiset.canonical in expected and not is_pinn_bruteforce(r.multiset)[0]:
                problems.append(
                    f"  k={k}: {r.multiset.canonical} (digit sum {r.multiset.digit_sum}, "
                    f"orbit {r.multiset.orbit_size}) fails orbit enumeration"
                )
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    if problems:
        pytest.fail(
            "zero-free non-repdigit classes at k=10..14 differ from the "
            "expected five at k=12:\n" + "\n".join(problems),
            pytrace=False,
        )
    _passed(
        5,
        "zero-free non-repdigit classes at k=10..14 are exactly the five at "
        f"k=12 (brute-force confirmed), {elapsed:.1f}s",
    )


def test_criterion_06_criterion_oracle_equivalence():
    checked = 0
    for k in range(1, 7):
        for combo in combinations_with_replacement(range(10), k):
            if not any(combo):
                continue
            m = DigitMultiset.from_string("".join(map(str, combo)))
            assert is_pinn_criterion(m)[0] == is_pinn_bruteforce(m)[0], m.canonical
            checked += 1
    rng = random.Random(20260815)
    for k in (7, 8):
        for _ in range(5000):
            digits = [rng.randrange(10) for _ in range(k)]
            if not any(digits):
                continue
            m = DigitMultiset.from_string("".join(map(str, digits)))
            assert is_pinn_criterion(m)[0] == is_pinn_bruteforce(m)[0], m.canonical
            checked += 1
    _passed(6, f"criterion == brute force on {checked} multisets, 0 disagreements")


def test_criterion_07_families_verify_k10_to_k16():
    t0 = time.perf_counter()
    members = 0
    cross_checked = 0
    for k in range(10, 17):
        for fid in FAMILY_IDS:
            inst = instantiate(fid, k)
            for m, ok, _proof in verify_family(inst):
                assert ok, f"{fid} member {m.canonical} at k={k} failed"
                members += 1
                if decide_pinn(m)[2]:
                    cross_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _passed(
        7,
        f"{members} family members verified at k=10..16 "
        f"({cross_checked} residue-count cross-checked) in {elapsed:.1f}s",
    )


def test_criterion_08_zero_insertion_residues():
    cases = [
        ("1_(27)", 1, 1, 18, 27),
        ("1_(81)", 1, 1, 72, 81),
        ("1_(111)", 1, 1, 102, 111),
        ("1_(111)", 1, 2, 12, 111),
    ]
    for base, pos, zeros, residue, modulus in cases:
        probe = zero_insertion_probe(base, pos, zeros)
        assert probe.residue == residue, (base, pos, zeros, probe.residue)
        assert not probe.is_niven
    _passed(8, "all four zero-insertion residues match: 18, 72, 102, 12")


def test_criterion_09_conjecture_grid():
    t0 = time.perf_counter()
    report = verify_conjecture_grid()
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    bad = [
        f"  {e.exponents}: exact={e.exact}, expected={e.expected}"
        for e in report.failures()
    ]
    assert not bad, "grid entries off the expected verdict:\n" + "\n".join(bad)
    negatives = sum(1 for e in report.entries if not e.expected)
    assert negatives == 9
    assert report.skipped_over_cap == 0
    _passed(
        9,
        f"{len(report.entries)} exponent tuples consistent "
        f"({negatives} minimal violations all fail) in {elapsed:.1f}s",
    )


def test_criterion_10_digit_sum_census():
    offenders = []
    for k in range(1, 10):
        for rec in search(SearchConfig(k=k)).records:
            m = rec.multiset
            if m.k - m.counts[0] < 2:
                continue  # single nonzero digit: sum is just that digit
            s = m.digit_sum
            if s % 3 != 0 or not 3 <= s <= 81:
                offenders.append(f"  {m.canonical}: digit sum {s}")
    assert not offenders, (
        "multi-nonzero-digit classes with digit sum outside 3Z or [3, 81]:\n"
        + "\n".join(offenders)
    )
    _passed(10, "all k<=9 classes with 2+ nonzero digits have 3 | s and s in [3, 81]")


def test_criterion_11_distinguished_primality():
    t0 = time.perf_counter()
    composures = []
    for n in DISTINGUISHED_PRIMES:
        verdict = probable_prime(n)
        if not verdict.is_prime:
            factors = factorize(n)
            shown = " * ".join(
                f"{p}^{e}" if e > 1 else str(p) for p, e in sorted(factors.items())
            )
            composures.append(f"  {n} = {shown}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    if composures:
        pytest.fail(
            "listed numbers that are not prime:\n"
            + "\n".join(composures)
            + "\n(the other "
            + str(len(DISTINGUISHED_PRIMES) - len(composures))
            + " entries all verify prime)",
            pytrace=False,
        )
    _passed(11, f"all 33 listed numbers verify prime in {elapsed:.1f}s")


def test_criterion_12_run_to_run_determinism(capsys):
    outs = {}
    for fmt in ("json", "text"):
        runs = []
        for _ in range(3):
            assert run(["search", "--k", "6", "--format", fmt]) == 0
            runs.append(capsys.readouterr())
        assert runs[0].out == runs[1].out == runs[2].out, fmt
        outs[fmt] = runs[0]
    assert outs["json"].out == report_to_json(search(SearchConfig(k=6)))
    # the text report's wall time goes to stderr, never to stdout
    assert outs["text"].err.startswith("search took ")
    assert "took" not in outs["text"].out
    _passed(12, "search --k 6 stdout byte-identical over 3 runs in json and text")
