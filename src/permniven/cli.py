"""Batch command line front end.

Subcommands map one-to-one onto the library entry points: check, search,
families, catalog, repdigit, order, census, probe-zero-insertion.  Output
goes to stdout as text, json, csv or bfile; each command's writers, one per
format it writes, decide which, and any other is refused before any work.
Exit status is 0 on success, 1 when a verification produced a negative
verdict or could not finish (deciders that disagree and internal faults
included), and 2 on usage errors and nothing else: a malformed argument,
or a value the library refuses because of what the user typed.

`check` and `families --verify` share ``orbits.decide_pinn``: the
congruence criterion, and behind every "yes" a second decider, the closed
form 10^k = 1 (mod 9k) for a repdigit and the residue-counting DP for any
other class.  `--budget` is still accepted and selects nothing.

Numbers may be typed as plain digits or in run-compressed notation, so
`1_(26)01` names the 28-digit number with twenty-six leading ones.
"""
from __future__ import annotations

import argparse
import functools
import sys
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

from .catalogs import GROUP_CORES
from .digits import (
    DigitMultiset,
    _format_runs,
    _parse_runs,
    digit_sum_of,
    expand,
    format_number,
    parse_number,
)
from .families import FAMILY_IDS, KTooSmall, instantiate, verify_family
from .families import catalog as reference_catalog
from .numtheory import FactorizationTimeout, NotCoprime, multiplicative_order
from .orbits import BudgetExceeded, decide_pinn
from .repdigits import (
    CONJECTURE_PRIMES,
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
    csv_text,
    grid_report_to_json,
    records_to_csv,
    report_to_json,
    to_json_text,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _writer(ns: argparse.Namespace, **writers: Callable[..., str]) -> Callable[..., str]:
    """The writer of ns.format, from the command's table of writers, each
    keyed by the format it writes and turning the command's result into
    its output text; a format without a writer is a usage error."""
    if ns.format not in writers:
        raise UsageError(
            f"format {ns.format!r} is not valid here (choose from {', '.join(writers)})"
        )
    return writers[ns.format]


def _lines(*lines: str) -> str:
    return "".join(f"{line}\n" for line in lines)


@contextmanager
def _user_input() -> Iterator[None]:
    """Turn a ValueError raised inside the block into a UsageError.

    Wrap only calls that hand the library what the user typed, so that any
    other ValueError stays an internal fault.
    """
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# --- subcommands ---------------------------------------------------------------------

def _cmd_check(ns: argparse.Namespace) -> int:
    def text(runs, m, ok, proof, residue_counted):
        pretty = expand(runs) if m.k <= 40 else _format_runs(runs)
        s = m.digit_sum
        if not ok:
            return _lines(f"{pretty} is not a PINN: witness {proof.permutation} mod {s} = "
                          f"{proof.residue}")
        return _lines(
            f"{pretty} is a PINN: k {m.k}, digit sum {s}, orbit {m.orbit_size}",
            "proof: congruence criterion over "
            f"{len(proof.digit_pairs_checked)} digit pairs and "
            f"{len(proof.position_gaps_checked)} position gaps",
            f"cross-check: the residue count puts all {m.orbit_size} arrangements at 0 mod {s}"
            if residue_counted else "cross-check: 10^k = 1 (mod 9k)",
        )

    def json(runs, m, ok, proof, residue_counted):
        obj: dict[str, Any] = {
            "input": ns.number,
            "canonical": m.canonical,
            "k": m.k,
            "digit_sum": m.digit_sum,
            "orbit_size": m.orbit_size,
            "is_pinn": ok,
        }
        if ok:
            obj["proof"] = {**_proof_to_obj(proof), "residue_counted": residue_counted}
        else:
            obj["witness"] = _proof_to_obj(proof)
        return to_json_text(obj)

    write = _writer(ns, text=text, json=json)
    # the multiset and the printed form come from the runs: a PINN verdict
    # in text never expands the digits
    with _user_input():
        runs = _parse_runs(ns.number)
        counts = [0] * 10
        for d, n in runs:
            counts[d] += n
        m = DigitMultiset(tuple(counts))
    ok, proof, residue_counted = decide_pinn(m)
    sys.stdout.write(write(runs, m, ok, proof, residue_counted))
    return EXIT_OK if ok else EXIT_VERIFICATION


def _cmd_search(ns: argparse.Namespace) -> int:
    def text(report):
        # wall time varies run to run, so it stays off the deterministic stdout
        print(f"search took {report.elapsed:.2f}s", file=sys.stderr)
        classes = [rec.multiset for rec in report.records]
        return _lines(
            f"k={report.k}: {len(classes)} canonical multisets, "
            f"{sum(m.value_count for m in classes)} values",
            *(f"  {_format_runs(m.runs)}  digit_sum={m.digit_sum} orbit={m.orbit_size}"
              for m in classes),
            f"scanned {report.multisets_scanned} multisets "
            f"(stage 1: {report.stage1_count}, stage 2: {report.stage2_count})",
        )

    write = _writer(
        ns,
        text=text,
        json=report_to_json,
        csv=lambda report: records_to_csv(report.records),
        bfile=lambda report: bfile_text(report_values(report)),
    )
    with _user_input():
        cfg = SearchConfig(ns.k, not ns.no_zeros, ns.exclude_repdigits)
    sys.stdout.write(write(search(cfg)))
    return EXIT_OK


def _instances_writer(ns: argparse.Namespace) -> Callable[..., str]:
    """The writer of families and catalog.  It takes the instances and the
    failed members, which are None unless families --verify ran."""
    def text(instances, failures):
        lines = []
        for inst in instances:
            lines.append(f"{inst.template_id} k={inst.k}: {len(inst.members)} members")
            lines.extend(f"  {_format_runs(m.runs)}" for m in inst.members)
        if failures:
            lines.extend(f"FAILED {tid}: {_format_runs(m.runs)}" for tid, m in failures)
        elif failures is not None:
            lines.append(f"verified: all {sum(len(i.members) for i in instances)} members")
        return _lines(*lines)

    def json(instances, failures):
        obj: dict[str, Any] = {"k": ns.k, "families": [
            {
                "template": inst.template_id,
                "k": inst.k,
                "members": [_format_runs(m.runs) for m in inst.members],
            }
            for inst in instances
        ]}
        if failures is not None:
            obj["verified"] = not failures
            obj["failures"] = [{"template": t, "canonical": m.canonical} for t, m in failures]
        return to_json_text(obj)

    return _writer(
        ns,
        text=text,
        json=json,
        csv=lambda instances, failures: csv_text(
            ["family", "k", "canonical", "digit_sum", "orbit_size"],
            [(inst.template_id, inst.k, m.canonical, m.digit_sum, m.orbit_size)
             for inst in instances for m in inst.members],
        ),
        # one line per class, by canonical representative; every one has
        # width k, so string order is numeric order
        bfile=lambda instances, failures: bfile_text(
            {m.canonical for inst in instances for m in inst.members}
        ),
    )


def _cmd_families(ns: argparse.Namespace) -> int:
    write = _instances_writer(ns)
    try:
        instances = [instantiate(fid, ns.k) for fid in FAMILY_IDS]
    except KTooSmall:
        # name the width all ten need, not the first family that does not fit
        widest = max(len(parse_number(group[0])) for group in GROUP_CORES)
        raise UsageError(f"the ten families need k >= {widest + 1}, got {ns.k}") from None
    failures = None
    if ns.verify:
        failures = []
        for inst in instances:
            for m, ok, _proof in verify_family(inst):
                if not ok:
                    failures.append((inst.template_id, m))
    sys.stdout.write(write(instances, failures))
    return EXIT_VERIFICATION if failures else EXIT_OK


def _cmd_catalog(ns: argparse.Namespace) -> int:
    write = _instances_writer(ns)
    if not 1 <= ns.k <= 9:
        raise UsageError("catalog covers k = 1..9")
    sys.stdout.write(write(reference_catalog(ns.k), None))
    return EXIT_OK


def _factored_str(cons: ConjectureConstraints) -> str:
    return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in cons.factors) or "1"


def _cmd_repdigit(ns: argparse.Namespace) -> int:
    # a flag the chosen mode would ignore is refused, not dropped
    point_flags = [
        f"--{name}" for name in ("a", *CONJECTURE_PRIMES) if getattr(ns, name) is not None
    ]
    if point_flags and (ns.grid or ns.sweep is not None):
        raise UsageError(f"{', '.join(point_flags)}: not allowed with --grid or --sweep")
    if ns.max_exp is not None and not ns.grid:
        raise UsageError("--max-exp: allowed only with --grid")
    if ns.sweep is not None:
        write = _writer(
            ns,
            text=lambda values: _lines(
                f"k <= {ns.sweep} with 10^k = 1 (mod 9k): {len(values)} values",
                " ".join(map(str, values)),
            ),
            json=lambda values: to_json_text({"limit": ns.sweep, "k_values": values}),
            csv=lambda values: csv_text(["k"], [(v,) for v in values]),
            bfile=bfile_text,
        )
        if ns.sweep < 1:
            raise UsageError("--sweep LIMIT must be >= 1")
        try:
            values = exact_condition_sweep(ns.sweep)
        except OverflowError as exc:  # limit above SWEEP_LIMIT_CAP, refused before any work
            raise UsageError(str(exc)) from exc
        sys.stdout.write(write(values))
        return EXIT_OK

    if ns.grid:
        def grid_text(report):
            # wall time varies run to run, so it stays off the deterministic stdout
            print(f"grid took {report.elapsed:.2f}s", file=sys.stderr)
            return _lines(
                f"{len(report.entries)} exponent tuples checked, "
                f"{report.skipped_over_cap} skipped over the {report.bit_cap}-bit cap",
                *(f"FAILED {e.exponents.as_tuple()}: exact={e.exact} expected={e.expected}"
                  for e in report.failures()),
                *(["all tuples consistent with the exact condition"] if report.all_ok else []),
            )

        write = _writer(
            ns,
            text=grid_text,
            json=grid_report_to_json,
            csv=lambda report: csv_text(
                ["exponents", "modulus_bits", "exact", "expected"],
                [("*".join(map(str, e.exponents.as_tuple())), e.modulus_bits, e.exact, e.expected)
                 for e in report.entries],
            ),
        )
        if ns.max_exp is None:
            bounds = DEFAULT_GRID_BOUNDS
        else:
            with _user_input():
                bounds = ConjectureConstraints(*([ns.max_exp] * 10))
        try:
            report = verify_conjecture_grid(bounds)
        except OverflowError as exc:  # too many ladder tuples, refused before any work
            raise UsageError(str(exc)) from exc
        sys.stdout.write(write(report))
        return EXIT_OK if report.all_ok else EXIT_VERIFICATION

    def text(a, cons, k_value, chk):
        shown = f" = {k_value}" if str(k_value) != _factored_str(cons) else ""
        return _lines(
            f"k = {_factored_str(cons)}{shown} ({cons.bit_estimate} bits)",
            f"ladder satisfied: {cons.satisfies_ladder()}",
            f"exact condition 10^k = 1 (mod 9k): {chk.exact}",
            f"strict condition 10^k = 1 (mod 9ka), a={a}: {chk.strict}",
            f"the k-digit repdigit of {a}s {'is' if chk.exact else 'is not'} a Niven number",
        )

    def json(a, cons, k_value, chk):
        return to_json_text({
            "a": a,
            "k_factored": _factored_str(cons),
            "k": k_value,
            "k_bits": cons.bit_estimate,
            "ladder_satisfied": cons.satisfies_ladder(),
            "exact": chk.exact,
            "strict": chk.strict,
            "is_niven": chk.exact,
        })

    write = _writer(ns, text=text, json=json)
    a = 1 if ns.a is None else ns.a
    if not 1 <= a <= 9:
        raise UsageError("--a must be a digit 1..9")
    with _user_input():
        cons = ConjectureConstraints(*(getattr(ns, name) or 0 for name in CONJECTURE_PRIMES))
    try:
        k_value = cons.k
    except OverflowError as exc:  # k above K_BIT_CAP, refused before any work
        raise UsageError(str(exc)) from exc
    chk = repdigit_niven_check(a, k_value)
    sys.stdout.write(write(a, cons, k_value, chk))
    return EXIT_OK if chk.exact else EXIT_VERIFICATION


def _cmd_order(ns: argparse.Namespace) -> int:
    write = _writer(
        ns,
        text=lambda t: f"multiplicative order of 10 modulo {ns.m}: {t}\n",
        json=lambda t: to_json_text({"base": 10, "modulus": ns.m, "order": t}),
    )
    if ns.m < 1:
        raise UsageError("--m must be >= 1")
    sys.stdout.write(write(multiplicative_order(10, ns.m)))
    return EXIT_OK


def _cmd_census(ns: argparse.Namespace) -> int:
    write = _writer(
        ns,
        text=lambda result: _lines(
            f"PINNs <= {ns.max}: {result.pinn_count}",
            f"Niven numbers <= {ns.max}: {result.niven_count}",
            *(f"  digit sum {s}: {c}" for s, c in sorted(result.digit_sum_histogram.items())),
        ),
        json=lambda result: to_json_text({
            "max_value": ns.max,
            "pinn_count": result.pinn_count,
            "niven_count": result.niven_count,
            "digit_sum_histogram": {str(s): c for s, c in result.digit_sum_histogram.items()},
        }),
        csv=lambda result: csv_text(
            ["digit_sum", "count"], sorted(result.digit_sum_histogram.items())
        ),
    )
    if not 1 <= ns.max <= CENSUS_MAX:
        raise UsageError(f"--max must be in 1..{CENSUS_MAX}")
    sys.stdout.write(write(census(ns.max)))
    return EXIT_OK


def _cmd_probe(ns: argparse.Namespace) -> int:
    # the modulus is the base's digit sum, which the inserted zeros leave unchanged
    write = _writer(
        ns,
        text=lambda probe: (
            f"{format_number(probe.modified)}: residue {probe.residue} "
            f"(mod {digit_sum_of(probe.modified)}), "
            f"{'Niven' if probe.is_niven else 'not Niven'}\n"
        ),
        json=lambda probe: to_json_text({
            "base": ns.number,
            "position": ns.position,
            "zeros": ns.zeros,
            "modified": format_number(probe.modified),
            "modulus": digit_sum_of(probe.modified),
            "residue": probe.residue,
            "is_niven": probe.is_niven,
        }),
    )
    with _user_input():
        probe = zero_insertion_probe(ns.number, ns.position, ns.zeros)
    sys.stdout.write(write(probe))
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
        help="accepted for compatibility; selects nothing, every PINN "
        "verdict is cross-checked",
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
    p.add_argument("--a", type=int, help="repeated digit (default 1)")
    for name in CONJECTURE_PRIMES:
        p.add_argument(f"--{name}", type=int, help=f"exponent {name} (default 0)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--grid", action="store_true", help="sweep the exponent grid")
    mode.add_argument("--sweep", type=int, default=None, metavar="LIMIT",
                      help="list every k <= LIMIT satisfying the exact condition")
    p.add_argument("--max-exp", type=int, default=None,
                   help="uniform per-parameter bound for --grid")
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
    except (UsageError, NotCoprime, KTooSmall) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # not from user input, so not a usage error
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (FactorizationTimeout, ArithmeticError, BudgetExceeded) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
