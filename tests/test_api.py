"""The package's public surface: every exported name, and nothing more."""
from __future__ import annotations

import permniven

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
