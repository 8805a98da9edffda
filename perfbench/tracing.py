"""Per-layer spans for the traced run, recorded from outside the package.

Each traced function is replaced, in every loaded permniven module that
holds it, by a wrapper that records a span: its name, its duration, the
time its child spans cover, and counts read from the call's arguments and
return value.  Rebinding every module attribute that is the original
function object also catches calls inside the package, such as census
calling search or multiplicative_order calling factorize.  A function that
a later refactor removes is reported as absent; its metrics read 0.

Spans are kept in memory for one pass and reduced to that pass's layer
metrics; the benchmark reports the median over traced passes.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from math import comb, factorial
from typing import Any, Callable, Optional


def _arg(args: tuple, kwargs: dict, i: int, name: str) -> Any:
    return args[i] if len(args) > i else kwargs[name]


def _orbit_size(counts) -> int:
    n = factorial(sum(counts))
    for c in counts:
        n //= factorial(c)
    return n


def _arrangements_tried(permutation: str) -> int:
    """1 + the rank of a failing arrangement in the ascending orbit walk."""
    counts = [0] * 10
    for ch in permutation:
        counts[ord(ch) - 48] += 1
    n, rank = len(permutation), 0
    total = _orbit_size(counts)
    for ch in permutation:
        d = ord(ch) - 48
        rank += sum(total * counts[e] // n for e in range(d))
        total = total * counts[d] // n
        counts[d] -= 1
        n -= 1
    return rank + 1


def _bruteforce(args, kwargs, result, span) -> dict:
    m = _arg(args, kwargs, 0, "m")
    ok, proof = result
    # computed: the whole orbit on success, else up to the first failure
    return {"arrangements": _orbit_size(m.counts) if ok else _arrangements_tried(proof.permutation)}


def _criterion(args, kwargs, result, span) -> dict:
    m = _arg(args, kwargs, 0, "m")
    k = sum(m.counts)
    present = sum(1 for c in m.counts if c)
    # computed from the input: pairs * k(k-1)/2 transposition checks at most
    return {"checks": comb(present, 2) * k * (k - 1) // 2, "accepted": int(result[0])}


def _stage1(args, kwargs, result, span) -> dict:
    return {"multisets": result.multisets_scanned, "records": result.stage1_count}


def _stage2(args, kwargs, result, span) -> dict:
    lower = _arg(args, kwargs, 1, "lower")
    return {"padded": len(lower) if hasattr(lower, "__len__") else 0, "kept": result.stage2_count}


def _verify_family(args, kwargs, result, span) -> dict:
    instance = _arg(args, kwargs, 0, "instance")
    return {"members": len(instance.members), "brute_s": span.child_by_name["orbits.bruteforce"]}


# span name, module, function, counter, outermost only
TRACED: list[tuple[str, str, str, Optional[Callable], bool]] = [
    ("cli.run", "permniven.cli", "run", None, False),
    ("digits.parse_number", "permniven.digits", "parse_number",
     lambda a, kw, r, sp: {"digits": len(r)}, False),
    ("digits.value_mod", "permniven.digits", "value_mod", None, False),
    ("orbits.bruteforce", "permniven.orbits", "is_pinn_bruteforce", _bruteforce, False),
    ("orbits.criterion", "permniven.orbits", "is_pinn_criterion", _criterion, False),
    ("search.stage1", "permniven.search", "search_stage1", _stage1, False),
    ("search.stage2", "permniven.search", "search_stage2", _stage2, False),
    ("search.search", "permniven.search", "search", None, False),
    ("search.report_values", "permniven.search", "report_values",
     lambda a, kw, r, sp: {"values": len(r)}, False),
    ("search.census", "permniven.search", "census",
     lambda a, kw, r, sp: {"numbers": _arg(a, kw, 0, "max_value")}, False),
    ("families.verify_family", "permniven.families", "verify_family", _verify_family, False),
    ("repdigits.grid", "permniven.repdigits", "verify_conjecture_grid",
     lambda a, kw, r, sp: {"entries": len(r.entries), "skipped": r.skipped_over_cap}, False),
    ("repdigits.sweep", "permniven.repdigits", "exact_condition_sweep",
     lambda a, kw, r, sp: {"k": _arg(a, kw, 0, "limit")}, False),
    ("repdigits.check", "permniven.repdigits", "repdigit_niven_check", None, False),
    ("repdigits.probe", "permniven.repdigits", "zero_insertion_probe", None, False),
    ("numtheory.factorize", "permniven.numtheory", "factorize", None, False),
    ("numtheory.order", "permniven.numtheory", "multiplicative_order", None, False),
    ("numtheory.probable_prime", "permniven.numtheory", "probable_prime", None, False),
] + [
    # report_to_json calls to_json_text, so only the outermost span counts
    ("serialize", "permniven.serialize", fn, lambda a, kw, r, sp: {"bytes": len(r)}, True)
    for fn in ("to_json_text", "report_to_json", "records_to_csv", "bfile_text")
]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class Agg:
    __slots__ = ("calls", "s", "self_s", "n")

    def __init__(self) -> None:
        self.calls, self.s, self.self_s, self.n = 0, 0.0, 0.0, Counter()


def _metric_table() -> list[tuple[str, str, str, Callable[[dict], float]]]:
    """(name, unit, better, value from per-span-name aggregates)."""
    def calls(sp):
        return lambda a: a[sp].calls

    def incl(sp):
        return lambda a: a[sp].s

    def own(sp):
        return lambda a: a[sp].self_s

    def n(sp, key):
        return lambda a: a[sp].n[key]

    return [
        ("cli.run.calls", "count", "lower", calls("cli.run")),
        ("cli.self_s", "s", "lower", own("cli.run")),
        ("digits.parse_number.calls", "count", "lower", calls("digits.parse_number")),
        ("digits.parse_number.s", "s", "lower", incl("digits.parse_number")),
        ("digits.parse_number.digits", "count", "lower", n("digits.parse_number", "digits")),
        ("digits.value_mod.calls", "count", "lower", calls("digits.value_mod")),
        ("digits.value_mod.s", "s", "lower", incl("digits.value_mod")),
        ("orbits.bruteforce.calls", "count", "lower", calls("orbits.bruteforce")),
        ("orbits.bruteforce.self_s", "s", "lower", own("orbits.bruteforce")),
        ("orbits.bruteforce.arrangements", "count", "lower", n("orbits.bruteforce", "arrangements")),
        ("orbits.bruteforce.arrangements_per_s", "1/s", "higher",
         lambda a: _ratio(a["orbits.bruteforce"].n["arrangements"], a["orbits.bruteforce"].self_s)),
        ("orbits.criterion.calls", "count", "lower", calls("orbits.criterion")),
        ("orbits.criterion.self_s", "s", "lower", own("orbits.criterion")),
        ("orbits.criterion.checks", "count", "lower", n("orbits.criterion", "checks")),
        ("orbits.criterion.accept_ratio", "ratio", "higher",
         lambda a: _ratio(a["orbits.criterion"].n["accepted"], a["orbits.criterion"].calls)),
        ("search.stage1.calls", "count", "lower", calls("search.stage1")),
        ("search.stage1.self_s", "s", "lower", own("search.stage1")),
        ("search.stage1.multisets", "count", "lower", n("search.stage1", "multisets")),
        ("search.stage1.multisets_per_s", "1/s", "higher",
         lambda a: _ratio(a["search.stage1"].n["multisets"], a["search.stage1"].self_s)),
        ("search.stage1.yield", "ratio", "higher",
         lambda a: _ratio(a["search.stage1"].n["records"], a["search.stage1"].n["multisets"])),
        ("search.stage2.calls", "count", "lower", calls("search.stage2")),
        ("search.stage2.self_s", "s", "lower", own("search.stage2")),
        ("search.stage2.padded", "count", "lower", n("search.stage2", "padded")),
        ("search.stage2.kept", "count", "higher", n("search.stage2", "kept")),
        ("search.stage2.keep_ratio", "ratio", "higher",
         lambda a: _ratio(a["search.stage2"].n["kept"], a["search.stage2"].n["padded"])),
        ("search.search.calls", "count", "lower", calls("search.search")),
        ("search.search.self_s", "s", "lower", own("search.search")),
        ("search.report_values.calls", "count", "lower", calls("search.report_values")),
        ("search.report_values.self_s", "s", "lower", own("search.report_values")),
        ("search.report_values.values", "count", "higher", n("search.report_values", "values")),
        ("search.census.calls", "count", "lower", calls("search.census")),
        ("search.census.self_s", "s", "lower", own("search.census")),
        ("search.census.numbers_per_s", "1/s", "higher",
         lambda a: _ratio(a["search.census"].n["numbers"], a["search.census"].s)),
        ("families.verify_family.calls", "count", "lower", calls("families.verify_family")),
        ("families.verify_family.self_s", "s", "lower", own("families.verify_family")),
        ("families.verify_family.members", "count", "higher", n("families.verify_family", "members")),
        ("families.verify_family.brute_share", "ratio", "lower",
         lambda a: _ratio(a["families.verify_family"].n["brute_s"], a["families.verify_family"].s)),
        ("repdigits.grid.calls", "count", "lower", calls("repdigits.grid")),
        ("repdigits.grid.s", "s", "lower", incl("repdigits.grid")),
        ("repdigits.grid.entries", "count", "higher", n("repdigits.grid", "entries")),
        ("repdigits.grid.skipped", "count", "lower", n("repdigits.grid", "skipped")),
        ("repdigits.sweep.calls", "count", "lower", calls("repdigits.sweep")),
        ("repdigits.sweep.s", "s", "lower", incl("repdigits.sweep")),
        ("repdigits.sweep.k_per_s", "1/s", "higher",
         lambda a: _ratio(a["repdigits.sweep"].n["k"], a["repdigits.sweep"].s)),
        ("repdigits.check.calls", "count", "lower", calls("repdigits.check")),
        ("repdigits.check.s", "s", "lower", incl("repdigits.check")),
        ("repdigits.probe.calls", "count", "lower", calls("repdigits.probe")),
        ("repdigits.probe.s", "s", "lower", incl("repdigits.probe")),
        ("numtheory.factorize.calls", "count", "lower", calls("numtheory.factorize")),
        ("numtheory.factorize.self_s", "s", "lower", own("numtheory.factorize")),
        ("numtheory.order.calls", "count", "lower", calls("numtheory.order")),
        ("numtheory.order.self_s", "s", "lower", own("numtheory.order")),
        ("numtheory.probable_prime.calls", "count", "lower", calls("numtheory.probable_prime")),
        ("numtheory.probable_prime.s", "s", "lower", incl("numtheory.probable_prime")),
        ("serialize.calls", "count", "lower", calls("serialize")),
        ("serialize.s", "s", "lower", incl("serialize")),
        ("serialize.bytes", "B", "lower", n("serialize", "bytes")),
    ]


LAYER_METRICS = _metric_table()
OVERHEAD = ("trace.overhead_s", "s", "lower")


class Span:
    __slots__ = ("name", "parent", "dur", "child_s", "child_by_name", "counts")

    def __init__(self, name: str, parent: Optional[Span]) -> None:
        self.name, self.parent = name, parent
        self.dur = self.child_s = 0.0
        self.child_by_name: defaultdict[str, float] = defaultdict(float)
        self.counts: dict = {}


class Tracer:
    """Context manager: wraps the traced functions on entry, restores on exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[Span] = []
        self._rebound: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, count: Optional[Callable], outermost: bool) -> Callable:
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outermost and stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            span = Span(name, stack[-1] if stack else None)
            stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.dur = time.perf_counter() - start
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.dur
                    span.parent.child_by_name[name] += span.dur
                spans.append(span)
            if count is not None:
                span.counts = count(args, kwargs, result, span)
            return result

        return traced

    def __enter__(self) -> Tracer:
        for name, module_name, fn_name, count, outermost in TRACED:
            try:
                original = getattr(importlib.import_module(module_name), fn_name)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{fn_name}")
                continue
            wrapper = self._wrap(name, original, count, outermost)
            for mod_name, module in list(sys.modules.items()):
                if module is None or not mod_name.startswith("permniven"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._rebound.append((module, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def take_pass(self) -> dict[str, float]:
        """Layer metrics of the spans recorded since the last call."""
        agg: defaultdict[str, Agg] = defaultdict(Agg)
        for span in self.spans:
            a = agg[span.name]
            a.calls += 1
            a.s += span.dur
            a.self_s += span.dur - span.child_s
            a.n.update(span.counts)
        self.spans.clear()
        return {name: float(value(agg)) for name, _, _, value in LAYER_METRICS}
