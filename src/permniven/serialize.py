"""Machine-readable output: JSON (round-trips), CSV, and b-file lines.

Search reports serialize without the elapsed field; every other field is
a pure function of the inputs, so two runs of the same query produce
byte-identical output.  parse(serialize(r))
reconstructs a report equal to r (report equality ignores elapsed).
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import fields
from typing import Any, Iterable, Sequence

from .digits import DigitMultiset, format_number
from .families import FamilyInstance
from .orbits import CriterionProof, FailureWitness, PinnRecord
from .repdigits import ConjectureConstraints, GridReport
from .search import CensusResult, SearchReport

__all__ = [
    "bfile_text",
    "census_to_obj",
    "csv_text",
    "family_instances_to_obj",
    "grid_report_to_obj",
    "records_to_csv",
    "report_from_json",
    "report_to_json",
    "to_json_text",
]


def to_json_text(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# --- proofs and records -------------------------------------------------------------

def _proof_to_obj(proof: Any) -> dict[str, Any]:
    if isinstance(proof, CriterionProof):
        return {
            "type": "criterion",
            "digit_pairs_checked": [list(p) for p in proof.digit_pairs_checked],
            "position_gaps_checked": list(proof.position_gaps_checked),
            "base_residue": proof.base_residue,
        }
    if isinstance(proof, FailureWitness):
        return {
            "type": "failure",
            "permutation": proof.permutation,
            "residue": proof.residue,
        }
    raise TypeError(f"unknown proof {proof!r}")


def _proof_from_obj(obj: dict[str, Any]):
    kind = obj["type"]
    if kind == "criterion":
        gaps = obj["position_gaps_checked"]
        if gaps != list(range(1, len(gaps) + 1)):
            raise ValueError("position_gaps_checked must be the gaps 1..n")
        return CriterionProof(
            digit_pairs_checked=tuple(
                tuple(p) for p in obj["digit_pairs_checked"]
            ),
            position_gaps_checked=range(1, len(gaps) + 1),
            base_residue=obj["base_residue"],
        )
    if kind == "failure":
        return FailureWitness(permutation=obj["permutation"], residue=obj["residue"])
    raise ValueError(f"unknown proof type {kind!r}")


def _record_to_obj(rec: PinnRecord) -> dict[str, Any]:
    return {
        "counts": list(rec.multiset.counts),
        "canonical": rec.canonical,
        "digit_sum": rec.digit_sum,
        "orbit_size": rec.orbit_size,
        "proof": _proof_to_obj(rec.proof),
    }


def _record_from_obj(obj: dict[str, Any]) -> PinnRecord:
    return PinnRecord(
        multiset=DigitMultiset(tuple(obj["counts"])),
        canonical=obj["canonical"],
        digit_sum=obj["digit_sum"],
        orbit_size=obj["orbit_size"],
        proof=_proof_from_obj(obj["proof"]),
    )


# --- search reports ----------------------------------------------------------------

def report_to_json(report: SearchReport) -> str:
    obj = {
        "k": report.k,
        "stage1_count": report.stage1_count,
        "stage2_count": report.stage2_count,
        "multisets_scanned": report.multisets_scanned,
        "records": [_record_to_obj(r) for r in report.records],
    }
    return to_json_text(obj)


def report_from_json(text: str) -> SearchReport:
    obj = json.loads(text)
    return SearchReport(
        k=obj["k"],
        records=tuple(_record_from_obj(r) for r in obj["records"]),
        stage1_count=obj["stage1_count"],
        stage2_count=obj["stage2_count"],
        multisets_scanned=obj["multisets_scanned"],
    )


def csv_text(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """A header line, then one line per row, each ended by "\\n"."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def records_to_csv(records: Iterable[PinnRecord]) -> str:
    return csv_text(
        ["canonical", "k", "digit_sum", "orbit_size", "compressed"],
        (
            (
                rec.canonical,
                rec.multiset.k,
                rec.digit_sum,
                rec.orbit_size,
                format_number(rec.canonical),
            )
            for rec in records
        ),
    )


def bfile_text(values: Sequence[int] | Sequence[str]) -> str:
    """OEIS b-file lines: "index value", 1-based, ascending.

    The values are ints, or digit strings that all have the same width, so
    that string order is numeric order; a digit string is written as given.
    """
    return "".join(
        f"{i} {v}\n" for i, v in enumerate(sorted(values), start=1)
    )


# --- one-way views for the CLI -------------------------------------------------------

def family_instances_to_obj(instances: Iterable[FamilyInstance]) -> list[dict[str, Any]]:
    return [
        {
            "template": inst.template_id,
            "k": inst.k,
            "members": [format_number(m.canonical) for m in inst.members],
        }
        for inst in instances
    ]


_EXPONENT_NAMES = tuple(f.name for f in fields(ConjectureConstraints))


def grid_report_to_obj(report: GridReport) -> dict[str, Any]:
    return {
        "bounds": dict(zip(_EXPONENT_NAMES, report.bounds.as_tuple())),
        "bit_cap": report.bit_cap,
        "skipped_over_cap": report.skipped_over_cap,
        "all_ok": report.all_ok,
        "entries": [
            {
                "exponents": dict(zip(_EXPONENT_NAMES, e.exponents.as_tuple())),
                "modulus_bits": e.modulus_bits,
                "exact": e.exact,
                "expected": e.expected,
            }
            for e in report.entries
        ],
    }


def census_to_obj(result: CensusResult, max_value: int) -> dict[str, Any]:
    return {
        "max_value": max_value,
        "pinn_count": result.pinn_count,
        "niven_count": result.niven_count,
        "digit_sum_histogram": {
            str(s): c for s, c in result.digit_sum_histogram.items()
        },
    }
