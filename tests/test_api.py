"""The package's public surface: every exported name and nothing more, the
semantics of its record types, and what importing the command line loads."""
from __future__ import annotations

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import permniven

SRC = Path(__file__).resolve().parent.parent / "src"

EXPORTS = [
    "BudgetExceeded",
    "CENSUS_MAX",
    "CONJECTURE_PRIMES",
    "CensusResult",
    "ConjectureConstraints",
    "CriterionProof",
    "DEFAULT_GRID_BOUNDS",
    "DISTINGUISHED_PRIMES",
    "DigitMultiset",
    "FAMILY_IDS",
    "FactorizationTimeout",
    "FailureWitness",
    "FamilyInstance",
    "GridEntry",
    "GridReport",
    "PinnRecord",
    "PrimalityVerdict",
    "RepdigitCheck",
    "SearchConfig",
    "SearchReport",
    "ZeroInsertionProbe",
    "bfile_text",
    "catalog",
    "census",
    "decide_pinn",
    "exact_condition_sweep",
    "expand",
    "factorize",
    "instantiate",
    "is_niven",
    "is_pinn_criterion",
    "is_pinn_residue_count",
    "multiplicative_order",
    "multiset_count",
    "probable_prime",
    "records_to_csv",
    "repdigit_niven_check",
    "report_to_json",
    "report_values",
    "search",
    "value_mod",
    "verify_conjecture_grid",
    "verify_family",
    "zero_insertion_probe",
]


def test_exports_are_pinned_and_resolve():
    # a name added to or dropped from the surface must be added here too
    assert sorted(permniven.__all__) == EXPORTS
    for name in EXPORTS:
        assert hasattr(permniven, name), name


def _records():
    """One instance of each exported record type, as the library builds it."""
    report = permniven.search(permniven.SearchConfig(k=3))
    grid = permniven.verify_conjecture_grid(permniven.ConjectureConstraints(n=1, alpha=1))
    record = report.records[0]
    return [
        permniven.SearchConfig(k=3, allow_zero=False),
        report,
        record,
        record.multiset,
        record.proof,
        permniven.decide_pinn(permniven.DigitMultiset.from_string("13"))[1],
        permniven.instantiate("ka", 9),
        permniven.probable_prime(96455449),
        grid,
        grid.bounds,
        grid.entries[0],
        permniven.repdigit_niven_check(3, 3),
        permniven.zero_insertion_probe("18", 1, 2),
        permniven.census(1000),
    ]


def test_every_exported_record_type_is_sampled():
    exported = {
        name for name in EXPORTS
        if isinstance(obj := getattr(permniven, name), type) and not issubclass(obj, Exception)
    }
    assert {type(r).__name__ for r in _records()} == exported


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_round_trip_and_refuse_assignment(record):
    # the repr shows every field, the reports' elapsed too
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(clone) is type(record) and clone == record and repr(clone) == repr(record)
    for name in (*getattr(type(record), "_fields", ("counts",)), "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_the_command_line_imports_without_dataclasses_or_inspect():
    # each pulls in a tree of modules that a one-shot command pays for at start-up
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import permniven.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    assert done.stdout == "[]\n"
