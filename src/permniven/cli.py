"""Batch command line front end.

Subcommands map one-to-one onto the library entry points: check, search,
families, catalog, repdigit, order, census, probe-zero-insertion.  Output
goes to stdout in one of four formats (text, json, csv, bfile); bfile is
only meaningful for plain value lists.  Exit status is 0 on success, 1
when a verification produced a negative verdict or could not finish
(deciders that disagree included), and 2 on usage errors.

`check` and `families --verify` share ``orbits.decide_pinn``: the
congruence criterion, cross-checked by the residue-counting DP when its
table has at most `--budget` entries.

Numbers may be typed as plain digits or in run-compressed notation, so
`1_(26)01` names the 28-digit number with twenty-six leading ones.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import sys
from typing import Any, Sequence

from .digits import (
    DigitMultiset,
    digit_sum_of,
    format_number,
    parse_number,
)
from .families import TEMPLATES, KTooSmall, instantiate, verify_family
from .families import catalog as reference_catalog
from .numtheory import FactorizationTimeout, NotCoprime, multiplicative_order
from .orbits import DEFAULT_ORBIT_BUDGET, decide_pinn
from .repdigits import (
    DEFAULT_GRID_BOUNDS,
    ConjectureConstraints,
    exact_condition_sweep,
    repdigit_niven_check,
    verify_conjecture_grid,
    zero_insertion_probe,
)
from .search import (
    CENSUS_MAX,
    SearchConfig,
    census,
    report_values,
    search,
)
from .serialize import (
    _proof_to_obj,
    bfile_text,
    census_to_obj,
    family_instances_to_obj,
    grid_report_to_obj,
    records_to_csv,
    report_to_json,
    to_json_text,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _require_format(fmt: str, *allowed: str) -> None:
    if fmt not in allowed:
        raise UsageError(
            f"format {fmt!r} is not valid here (choose from {', '.join(allowed)})"
        )


def _csv_rows(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# --- subcommands ---------------------------------------------------------------------

def _cmd_check(ns: argparse.Namespace) -> int:
    _require_format(ns.format, "text", "json")
    digits = parse_number(ns.number)
    m = DigitMultiset.from_string(digits)
    s = m.digit_sum
    ok, proof, residue_counted = decide_pinn(m, ns.budget)
    pretty = digits if len(digits) <= 40 else format_number(digits)
    if ns.format == "json":
        obj: dict[str, Any] = {
            "input": ns.number,
            "canonical": m.canonical,
            "k": m.k,
            "digit_sum": s,
            "orbit_size": m.orbit_size,
            "is_pinn": ok,
        }
        if ok:
            obj["proof"] = {**_proof_to_obj(proof), "residue_counted": residue_counted}
        else:
            obj["witness"] = _proof_to_obj(proof)
        sys.stdout.write(to_json_text(obj))
    elif ok:
        print(f"{pretty} is a PINN: k {m.k}, digit sum {s}, orbit {m.orbit_size}")
        print(
            "proof: congruence criterion over "
            f"{len(proof.digit_pairs_checked)} digit pairs and "
            f"{len(proof.position_gaps_checked)} position gaps"
        )
        if residue_counted:
            print(f"cross-check: the residue count puts all {m.orbit_size} "
                  f"arrangements at 0 mod {s}")
    else:
        print(
            f"{pretty} is not a PINN: witness "
            f"{proof.permutation} mod {s} = {proof.residue}"
        )
    return EXIT_OK if ok else EXIT_VERIFICATION


def _cmd_search(ns: argparse.Namespace) -> int:
    cfg = SearchConfig(
        k=ns.k,
        allow_zero=not ns.no_zeros,
        exclude_repdigits=ns.exclude_repdigits,
    )
    report = search(cfg)
    if ns.format == "json":
        sys.stdout.write(report_to_json(report))
    elif ns.format == "csv":
        sys.stdout.write(records_to_csv(report.records))
    elif ns.format == "bfile":
        sys.stdout.write(bfile_text(report_values(report)))
    else:
        n_values = sum(rec.multiset.value_count for rec in report.records)
        print(
            f"k={report.k}: {len(report.records)} canonical multisets, "
            f"{n_values} values"
        )
        for rec in report.records:
            print(
                f"  {format_number(rec.canonical)}"
                f"  digit_sum={rec.digit_sum} orbit={rec.orbit_size}"
            )
        print(
            f"scanned {report.multisets_scanned} multisets "
            f"(stage 1: {report.stage1_count}, stage 2: {report.stage2_count})"
        )
        # wall time varies run to run, so it stays off the deterministic stdout
        print(f"search took {report.elapsed:.2f}s", file=sys.stderr)
    return EXIT_OK


def _render_instances(ns: argparse.Namespace, instances, verify_failures=None) -> None:
    if ns.format == "json":
        obj: dict[str, Any] = {"k": ns.k, "families": family_instances_to_obj(instances)}
        if verify_failures is not None:
            obj["verified"] = not verify_failures
            obj["failures"] = [
                {"template": tid, "canonical": m.canonical}
                for tid, m in verify_failures
            ]
        sys.stdout.write(to_json_text(obj))
    elif ns.format == "csv":
        rows = [
            (inst.template_id, inst.k, m.canonical, m.digit_sum, m.orbit_size)
            for inst in instances
            for m in inst.members
        ]
        sys.stdout.write(
            _csv_rows(["family", "k", "canonical", "digit_sum", "orbit_size"], rows)
        )
    elif ns.format == "bfile":
        # one line per class, by canonical representative
        values = {int(m.canonical) for inst in instances for m in inst.members}
        sys.stdout.write(bfile_text(sorted(values)))
    else:
        for inst in instances:
            print(f"{inst.template_id} k={inst.k}: {len(inst.members)} members")
            for m in inst.members:
                print(f"  {format_number(m.canonical)}")
        if verify_failures is not None:
            if verify_failures:
                for tid, m in verify_failures:
                    print(f"FAILED {tid}: {format_number(m.canonical)}")
            else:
                total = sum(len(inst.members) for inst in instances)
                print(f"verified: all {total} members")


def _cmd_families(ns: argparse.Namespace) -> int:
    instances = [instantiate(tpl, ns.k) for tpl in TEMPLATES]
    failures = None
    if ns.verify:
        failures = []
        for inst in instances:
            for m, ok, _proof in verify_family(inst, ns.budget):
                if not ok:
                    failures.append((inst.template_id, m))
    _render_instances(ns, instances, failures)
    return EXIT_VERIFICATION if failures else EXIT_OK


def _cmd_catalog(ns: argparse.Namespace) -> int:
    if not 1 <= ns.k <= 9:
        raise UsageError("catalog covers k = 1..9")
    _render_instances(ns, reference_catalog(ns.k))
    return EXIT_OK


def _factored_str(cons: ConjectureConstraints) -> str:
    return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in cons.factors) or "1"


def _cmd_repdigit(ns: argparse.Namespace) -> int:
    if ns.sweep is not None:
        if ns.sweep < 1:
            raise UsageError("--sweep LIMIT must be >= 1")
        values = exact_condition_sweep(ns.sweep)
        if ns.format == "json":
            sys.stdout.write(to_json_text({"limit": ns.sweep, "k_values": values}))
        elif ns.format == "csv":
            sys.stdout.write(_csv_rows(["k"], [(v,) for v in values]))
        elif ns.format == "bfile":
            sys.stdout.write(bfile_text(values))
        else:
            print(f"k <= {ns.sweep} with 10^k = 1 (mod 9k): {len(values)} values")
            print(" ".join(str(v) for v in values))
        return EXIT_OK

    if ns.grid:
        _require_format(ns.format, "text", "json", "csv")
        if ns.max_exp is None:
            bounds = DEFAULT_GRID_BOUNDS
        else:
            bounds = ConjectureConstraints(*([ns.max_exp] * 10))
        try:
            report = verify_conjecture_grid(bounds)
        except OverflowError as exc:  # too many ladder tuples, refused before any work
            raise UsageError(str(exc)) from exc
        if ns.format == "json":
            sys.stdout.write(to_json_text(grid_report_to_obj(report)))
        elif ns.format == "csv":
            rows = [
                ("*".join(map(str, e.exponents.as_tuple())), e.modulus_bits, e.exact, e.expected)
                for e in report.entries
            ]
            sys.stdout.write(
                _csv_rows(["exponents", "modulus_bits", "exact", "expected"], rows)
            )
        else:
            print(
                f"{len(report.entries)} exponent tuples checked, "
                f"{report.skipped_over_cap} skipped over the {report.bit_cap}-bit cap"
            )
            for e in report.failures():
                print(f"FAILED {e.exponents.as_tuple()}: exact={e.exact} expected={e.expected}")
            if report.all_ok:
                print("all tuples consistent with the exact condition")
            # wall time varies run to run, so it stays off the deterministic stdout
            print(f"grid took {report.elapsed:.2f}s", file=sys.stderr)
        return EXIT_OK if report.all_ok else EXIT_VERIFICATION

    _require_format(ns.format, "text", "json")
    if not 1 <= ns.a <= 9:
        raise UsageError("--a must be a digit 1..9")
    cons = ConjectureConstraints(
        n=ns.n, alpha=ns.alpha, beta=ns.beta, gamma1=ns.gamma1, gamma2=ns.gamma2,
        delta1=ns.delta1, delta2=ns.delta2, delta3=ns.delta3, delta4=ns.delta4,
        delta5=ns.delta5,
    )
    try:
        chk = repdigit_niven_check(ns.a, cons)
    except OverflowError as exc:  # k above K_BIT_CAP, refused before any work
        raise UsageError(str(exc)) from exc
    k_value = cons.k
    if ns.format == "json":
        obj = {
            "a": ns.a,
            "k_factored": _factored_str(cons),
            "k": k_value,
            "k_bits": cons.bit_estimate,
            "ladder_satisfied": cons.satisfies_ladder(),
            "exact": chk.exact,
            "strict": chk.strict,
            "is_niven": chk.exact,
        }
        sys.stdout.write(to_json_text(obj))
    else:
        shown = f" = {k_value}" if str(k_value) != _factored_str(cons) else ""
        print(f"k = {_factored_str(cons)}{shown} ({cons.bit_estimate} bits)")
        print(f"ladder satisfied: {cons.satisfies_ladder()}")
        print(f"exact condition 10^k = 1 (mod 9k): {chk.exact}")
        print(f"strict condition 10^k = 1 (mod 9ka), a={ns.a}: {chk.strict}")
        verdict = "is" if chk.exact else "is not"
        print(f"the k-digit repdigit of {ns.a}s {verdict} a Niven number")
    return EXIT_OK if chk.exact else EXIT_VERIFICATION


def _cmd_order(ns: argparse.Namespace) -> int:
    _require_format(ns.format, "text", "json")
    t = multiplicative_order(10, ns.m)
    if ns.format == "json":
        sys.stdout.write(to_json_text({"base": 10, "modulus": ns.m, "order": t}))
    else:
        print(f"multiplicative order of 10 modulo {ns.m}: {t}")
    return EXIT_OK


def _cmd_census(ns: argparse.Namespace) -> int:
    _require_format(ns.format, "text", "json", "csv")
    if not 1 <= ns.max <= CENSUS_MAX:
        raise UsageError(f"--max must be in 1..{CENSUS_MAX}")
    try:
        result = census(ns.max)
    except AssertionError as exc:
        print(f"census invariant violated: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    if ns.format == "json":
        sys.stdout.write(to_json_text(census_to_obj(result, ns.max)))
    elif ns.format == "csv":
        sys.stdout.write(
            _csv_rows(
                ["digit_sum", "count"],
                sorted(result.digit_sum_histogram.items()),
            )
        )
    else:
        print(f"PINNs <= {ns.max}: {result.pinn_count}")
        print(f"Niven numbers <= {ns.max}: {result.niven_count}")
        for s, c in sorted(result.digit_sum_histogram.items()):
            print(f"  digit sum {s}: {c}")
    return EXIT_OK


def _cmd_probe(ns: argparse.Namespace) -> int:
    _require_format(ns.format, "text", "json")
    probe = zero_insertion_probe(ns.number, ns.position, ns.zeros)
    modulus = digit_sum_of(parse_number(ns.number))
    if ns.format == "json":
        obj = {
            "base": ns.number,
            "position": ns.position,
            "zeros": ns.zeros,
            "modified": format_number(probe.modified),
            "modulus": modulus,
            "residue": probe.residue,
            "is_niven": probe.is_niven,
        }
        sys.stdout.write(to_json_text(obj))
    else:
        verdict = "Niven" if probe.is_niven else "not Niven"
        print(
            f"{format_number(probe.modified)}: residue {probe.residue} "
            f"(mod {modulus}), {verdict}"
        )
    return EXIT_OK if probe.is_niven else EXIT_VERIFICATION


# --- parser --------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser, top: bool) -> None:
    # --format exists on the root parser and on every subcommand, so it may
    # be given in either position; the subcommand copy suppresses its
    # default to avoid clobbering a value parsed at the root.
    parser.add_argument(
        "--format",
        choices=("text", "json", "csv", "bfile"),
        default="text" if top else argparse.SUPPRESS,
        help="output format (bfile only for value lists)",
    )


def _add_budget(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_ORBIT_BUDGET,
        help="cap on the residue-count table that cross-checks the "
        "congruence criterion (default 10^7)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permniven",
        description="Search and verify permutation-invariant Niven numbers.",
    )
    _add_common(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="PINN verdict with proof or witness")
    p.add_argument("number", help="digits or run-compressed form like 1_(26)01")
    _add_budget(p)
    _add_common(p, top=False)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("search", help="all k-digit PINNs by canonical multiset")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--no-zeros", action="store_true", help="zero-free classes only")
    p.add_argument("--exclude-repdigits", action="store_true")
    p.add_argument(
        "--exhaustive-zero-scan",
        action="store_true",
        help="accepted for compatibility; selects nothing, every search is the full scan",
    )
    _add_common(p, top=False)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("families", help="instantiate the ten infinite families")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--verify", action="store_true", help="re-prove every member")
    _add_budget(p)
    _add_common(p, top=False)
    p.set_defaults(func=_cmd_families)

    p = sub.add_parser("catalog", help="reference catalog groups for k = 1..9")
    p.add_argument("--k", type=int, required=True)
    _add_common(p, top=False)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("repdigit", help="repdigit Niven conditions and the exponent grid")
    p.add_argument("--a", type=int, default=1, help="repeated digit (default 1)")
    for name in ("n", "alpha", "beta", "gamma1", "gamma2",
                 "delta1", "delta2", "delta3", "delta4", "delta5"):
        p.add_argument(f"--{name}", type=int, default=0, help=f"exponent {name}")
    p.add_argument("--grid", action="store_true", help="sweep the exponent grid")
    p.add_argument("--max-exp", type=int, default=None,
                   help="uniform per-parameter bound for --grid")
    p.add_argument("--sweep", type=int, default=None, metavar="LIMIT",
                   help="list every k <= LIMIT satisfying the exact condition")
    _add_common(p, top=False)
    p.set_defaults(func=_cmd_repdigit)

    p = sub.add_parser("order", help="multiplicative order of 10")
    p.add_argument("--m", type=int, required=True, help="modulus")
    _add_common(p, top=False)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("census", help="PINN and Niven counts up to a bound")
    p.add_argument("--max", type=int, required=True)
    _add_common(p, top=False)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser(
        "probe-zero-insertion",
        help="insert zeros into a number and test divisibility by its digit sum",
    )
    p.add_argument("number", help="digits or run-compressed form")
    p.add_argument("position", type=int, help="digits kept to the right of the insertion")
    p.add_argument("zeros", type=int, help="how many zeros to insert")
    _add_common(p, top=False)
    p.set_defaults(func=_cmd_probe)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use, not at import, and reused by every later run()
    return build_parser()


def run(argv: Sequence[str] | None = None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # exact orbit sizes and widths print in full, however many digits they
    # have, so the int/str conversion limit is lifted while a command runs
    # (argument parsing above keeps it)
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        return ns.func(ns)
    except (UsageError, NotCoprime, KTooSmall, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FactorizationTimeout, ArithmeticError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
