"""Permutation-invariant Niven numbers: search, proofs, families, repdigits.

A positive integer is a PINN when every rearrangement of its digits
(leading zeros dropped) is divisible by the digit sum.  The library works
on digit multisets, so an entire permutation orbit is one object, and
offers an exact congruence criterion and a residue-counting DP, each
equivalent to brute-force orbit checking and combined into one verdict
rule (``decide_pinn``) that cross-checks every PINN verdict at any width
(repdigits by the closed form 10^k = 1 (mod 9k)), an exhaustive search
by width with census utilities, the ten infinite families with
verification, and a lab for repdigit divisibility conditions and the
multiplicative-order machinery behind them.
"""
from .digits import (
    DigitMultiset,
    digit_sum_of,
    expand,
    compress,
    format_number,
    multiset_count,
    parse_number,
    value_mod,
)
from .families import (
    FAMILY_IDS,
    FamilyInstance,
    KTooSmall,
    catalog,
    instantiate,
    verify_family,
)
from .numtheory import (
    FactorizationTimeout,
    NotCoprime,
    PrimalityVerdict,
    factorize,
    multiplicative_order,
    probable_prime,
)
from .orbits import (
    BudgetExceeded,
    CriterionProof,
    FailureWitness,
    PinnRecord,
    decide_pinn,
    is_niven,
    is_pinn_bruteforce,
    is_pinn_criterion,
    is_pinn_residue_count,
    orbit,
)
from .repdigits import (
    CONJECTURE_PRIMES,
    DEFAULT_GRID_BOUNDS,
    DISTINGUISHED_PRIMES,
    ConjectureConstraints,
    GridEntry,
    GridReport,
    RepdigitCheck,
    ZeroInsertionProbe,
    exact_condition_sweep,
    repdigit_niven_check,
    verify_conjecture_grid,
    zero_insertion_probe,
)
from .search import (
    CENSUS_MAX,
    CensusResult,
    SearchConfig,
    SearchReport,
    census,
    report_values,
    search,
)
from .serialize import (
    bfile_text,
    records_to_csv,
    report_from_json,
    report_to_json,
)

__version__ = "0.1.0"

__all__ = [
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
    "KTooSmall",
    "NotCoprime",
    "PinnRecord",
    "PrimalityVerdict",
    "RepdigitCheck",
    "SearchConfig",
    "SearchReport",
    "ZeroInsertionProbe",
    "bfile_text",
    "catalog",
    "census",
    "compress",
    "decide_pinn",
    "digit_sum_of",
    "exact_condition_sweep",
    "expand",
    "factorize",
    "format_number",
    "instantiate",
    "is_niven",
    "is_pinn_bruteforce",
    "is_pinn_criterion",
    "is_pinn_residue_count",
    "multiplicative_order",
    "multiset_count",
    "orbit",
    "parse_number",
    "probable_prime",
    "records_to_csv",
    "repdigit_niven_check",
    "report_from_json",
    "report_to_json",
    "report_values",
    "search",
    "value_mod",
    "verify_conjecture_grid",
    "verify_family",
    "zero_insertion_probe",
]
