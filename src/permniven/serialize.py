"""Writers shared by the command line's output formats: JSON text, CSV,
b-file lines, the search report and the repdigit grid.  Each command's own
output objects are built where its writers are, in ``cli``.

Every JSON text is exactly what ``json.dumps(obj, indent=2,
sort_keys=True)`` writes, and a newline.  ``to_json_text`` writes it by one
recursive walk that joins each container's items, since with ``indent`` set
CPython's ``json`` falls back to its pure-Python encoder.  Two writers of
many same-shaped items format each item from a template instead, in the
same bytes: ``report_to_json`` for a search report's records and
``grid_report_to_json`` for the repdigit grid's entries.

Search reports serialize without the elapsed field; every other field is
a pure function of the inputs, so two runs of the same query produce
byte-identical output.
"""
from __future__ import annotations

import csv
import io
import json
from functools import cache
from operator import itemgetter
from typing import Any, Callable, Iterable, Sequence

from .digits import _format_runs
from .orbits import CriterionProof, FailureWitness, PinnRecord
from .repdigits import CONJECTURE_PRIMES, GridReport
from .search import SearchReport

__all__ = [
    "bfile_text",
    "records_to_csv",
    "report_to_json",
]


_encode_str = json.encoder.encode_basestring_ascii  # C, escapes to ASCII
_LEAF_TEXT: dict[type, Callable[[Any], str]] = {
    str: _encode_str,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}
_INTS_ONLY = {int}


def _json_text(o: Any, nl: str) -> str:
    """o as json.dumps(indent=2, sort_keys=True) writes it on a line that
    starts with nl, a newline and the indent."""
    leaf = _LEAF_TEXT.get(type(o))
    if leaf is not None:
        return leaf(o)
    inner = nl + "  "
    sep = "," + inner
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        if set(map(type, o)) == _INTS_ONLY:  # a gap list: one join
            items = map(int.__repr__, o)
        else:
            items = [_json_text(v, inner) for v in o]
        return f"[{inner}{sep.join(items)}{nl}]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        # _encode_str raises TypeError for a key that is not a str
        items = [f"{_encode_str(k)}: {_json_text(v, inner)}" for k, v in sorted(o.items())]
        return f"{{{inner}{sep.join(items)}{nl}}}"
    return json.dumps(o)  # floats, and subclasses of str and int


def to_json_text(obj: Any) -> str:
    """Exactly ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``.

    With ``indent`` set, CPython's ``json`` runs its pure-Python encoder, a
    generator per container; this writer builds each container's text from
    its items' in one join.  Dict keys must be ``str``.
    """
    return _json_text(obj, "\n") + "\n"


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


# --- search reports ----------------------------------------------------------------

# A search record has one fixed shape, so, as for the grid below, each is one
# %-format of a template; its proof's pair and gap lists repeat across records
# and are written once per distinct list.
_RECORD = (
    '{\n      "canonical": "%s",\n      "counts": [\n        '
    + ",\n        ".join(["%d"] * 10)
    + '\n      ],\n      "digit_sum": %d,\n      "orbit_size": %d,\n      "proof": {'
    '\n        "base_residue": %d,\n        "digit_pairs_checked": %s,'
    '\n        "position_gaps_checked": %s,\n        "type": "criterion"\n      }\n    }'
)
_REPORT = (
    '{\n  "k": %d,\n  "multisets_scanned": %d,\n  "records": %s,'
    '\n  "stage1_count": %d,\n  "stage2_count": %d\n}\n'
)


def report_to_json(report: SearchReport) -> str:
    """``to_json_text`` of the report's object, byte for byte: k,
    multisets_scanned, records, stage1_count and stage2_count, each record
    with canonical, counts, digit_sum, orbit_size and its criterion proof
    as ``_proof_to_obj`` writes it."""
    once = cache(lambda seq: _json_text(list(seq), "\n        "))  # pairs or gaps
    records = ",\n    ".join([
        _RECORD % (
            m.canonical, *m.counts, m.digit_sum, m.orbit_size, p.base_residue,
            once(p.digit_pairs_checked), once(p.position_gaps_checked),
        )
        for m, p in ((r.multiset, r.proof) for r in report.records)
    ])
    return _REPORT % (
        report.k, report.multisets_scanned,
        f"[\n    {records}\n  ]" if records else "[]",
        report.stage1_count, report.stage2_count,
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
            (m.canonical, m.k, m.digit_sum, m.orbit_size, _format_runs(m.runs))
            for m in (rec.multiset for rec in records)
        ),
    )


def bfile_text(values: Iterable[int] | Iterable[str]) -> str:
    """OEIS b-file lines: "index value", 1-based, ascending.

    The values are ints, or digit strings that all have the same width, so
    that string order is numeric order; a digit string is written as given.
    """
    return "".join(
        f"{i} {v}\n" for i, v in enumerate(sorted(values), start=1)
    )


# --- the repdigit grid -------------------------------------------------------------

# The grid's JSON has one fixed shape, so each entry is one %-format of a
# template instead of a walk over a dict per entry.  The exponent tuples are
# read in key order, which sort_keys gives, not in CONJECTURE_PRIMES order.
_GRID_NAMES = sorted(CONJECTURE_PRIMES)
_grid_exponents = itemgetter(*map(list(CONJECTURE_PRIMES).index, _GRID_NAMES))
_JSON_BOOL = ("false", "true")


def _exponents_template(nl: str) -> str:
    inner = nl + "  "
    keys = ("," + inner).join(f"{_encode_str(name)}: %d" for name in _GRID_NAMES)
    return f"{{{inner}{keys}{nl}}}"


_GRID_ENTRY = (
    '{\n      "exact": %s,\n      "expected": %s,\n      "exponents": '
    + _exponents_template("\n      ")
    + ',\n      "modulus_bits": %d\n    }'
)
_GRID_REPORT = (
    '{\n  "all_ok": %s,\n  "bit_cap": %d,\n  "bounds": '
    + _exponents_template("\n  ")
    + ',\n  "entries": %s,\n  "skipped_over_cap": %d\n}\n'
)


def grid_report_to_json(report: GridReport) -> str:
    """``to_json_text`` of the report's object, byte for byte: all_ok,
    bit_cap, bounds, entries and skipped_over_cap, each entry with exact,
    expected, exponents and modulus_bits, exponents keyed by parameter name."""
    entries = ",\n    ".join([
        _GRID_ENTRY % (
            _JSON_BOOL[e.exact], _JSON_BOOL[e.expected],
            *_grid_exponents(e.exponents), e.modulus_bits,
        )
        for e in report.entries
    ])
    return _GRID_REPORT % (
        _JSON_BOOL[report.all_ok], report.bit_cap, *_grid_exponents(report.bounds.as_tuple()),
        f"[\n    {entries}\n  ]" if entries else "[]", report.skipped_over_cap,
    )
