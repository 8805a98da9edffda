"""The three workloads: seeded CLI argument lists and the checks on their output.

Every operation is one `permniven` command line.  Its check looks at the
verdict, exit code and result set only, never at proof text, so a change to
the shape of a proof does not count as a failure.  Where a reference that
does not depend on the package is cheap (itertools.permutations for short
numbers, pow for orders, repdigit conditions and the sweep, Horner residues
for zero insertion), the check uses it; otherwise it compares with the
result sets in reference.json.
"""
from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass
from itertools import permutations
from math import factorial
from typing import Callable, Optional

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")) as _f:
    REFERENCE = json.load(_f)

# Grid primes by exponent name, as in the repdigit grid definition.
GRID_PRIMES = {
    "n": 3,
    "alpha": 37,
    "beta": 333667,
    "gamma1": 757,
    "gamma2": 440334654777631,
    "delta1": 163,
    "delta2": 9397,
    "delta3": 2462401,
    "delta4": 676421558270641,
    "delta5": 130654897808007778425046117,
}

# check(rc, stdout) returns None when the output is right, else the reason.
# Output that does not parse raises, and the caller counts it as a failure.
Check = Callable[[int, str], Optional[str]]


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Check
    # Applied to stdout before the determinism comparison; only the text
    # search report needs it, for its wall-clock field.
    mask: Optional[Callable[[str], str]] = None

    @property
    def name(self) -> str:
        return " ".join(self.argv)


# --- independent helpers ---------------------------------------------------------

_BLOCK = re.compile(r"(\d)(?:_\((\d+)\))?")


def expand(text: str) -> str:
    """Expand run-compressed notation such as 1_(26)01."""
    out, pos = [], 0
    while pos < len(text):
        m = _BLOCK.match(text, pos)
        if not m:
            raise ValueError(f"bad run-compressed number {text!r}")
        out.append(m.group(1) * int(m.group(2) or 1))
        pos = m.end()
    return "".join(out)


def residue(digits: str, m: int) -> int:
    r = 0
    for ch in digits:
        r = (r * 10 + ord(ch) - 48) % m
    return r


def leading_nonzero_arrangements(canonical: str) -> int:
    """Distinct arrangements of the digits that do not start with 0."""
    n = factorial(len(canonical))
    for d in set(canonical):
        n //= factorial(canonical.count(d))
    return n * (len(canonical) - canonical.count("0")) // len(canonical)


def prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + ([n] if n > 1 else [])


def _expect_rc(rc: int, want: int) -> Optional[str]:
    return None if rc == want else f"exit {rc}, expected {want}"


# --- checks ---------------------------------------------------------------------

def check_verdict(digits: str, is_pinn: bool) -> Check:
    """`check` text output: verdict, exit code, and a genuine witness."""
    s = sum(map(int, digits))

    def check(rc: int, stdout: str) -> Optional[str]:
        bad = _expect_rc(rc, 0 if is_pinn else 1)
        if bad:
            return bad
        first = stdout.splitlines()[0] if stdout else ""
        if is_pinn:
            return None if " is a PINN: " in first else f"verdict line {first[:80]!r}"
        if " is not a PINN" not in first:
            return f"verdict line {first[:80]!r}"
        m = re.search(r"witness (\d+) mod (\d+) = (\d+)$", first)
        if m:
            perm, mod, r = m.group(1), int(m.group(2)), int(m.group(3))
            if sorted(perm) != sorted(digits) or mod != s or r == 0 or residue(perm, s) != r:
                return "witness does not hold"
        return None

    return check


def pinn_by_permutations(digits: str) -> bool:
    s = sum(map(int, digits))
    return all(int("".join(p)) % s == 0 for p in permutations(digits))


def check_search_json(k: int, classes: list[str]) -> Check:
    def check(rc: int, stdout: str) -> Optional[str]:
        bad = _expect_rc(rc, 0)
        if bad:
            return bad
        obj = json.loads(stdout)
        got = sorted(r["canonical"] for r in obj["records"])
        if obj["k"] != k or got != classes:
            return f"class set differs from the reference ({len(got)} vs {len(classes)})"
        return None

    return check


def check_search_text(k: int, classes: list[str]) -> Check:
    values = sum(leading_nonzero_arrangements(c) for c in classes)

    def check(rc: int, stdout: str) -> Optional[str]:
        bad = _expect_rc(rc, 0)
        if bad:
            return bad
        lines = stdout.splitlines()
        head = f"k={k}: {len(classes)} canonical multisets, {values} values"
        got = sorted(expand(line.split()[0]) for line in lines if line.startswith("  "))
        if not lines or lines[0] != head:
            return f"header {lines[0][:80] if lines else ''!r}, expected {head!r}"
        return None if got == classes else "class set differs from the reference"

    return check


_ELAPSED = re.compile(r"(?m)^(scanned .*) in \d+\.\d+s$")


def mask_elapsed(stdout: str) -> str:
    return _ELAPSED.sub(r"\1 in <elapsed>", stdout)


def check_families(members: int) -> Check:
    def check(rc: int, stdout: str) -> Optional[str]:
        bad = _expect_rc(rc, 0)
        if bad:
            return bad
        obj = json.loads(stdout)
        got = sum(len(f["members"]) for f in obj["families"])
        if obj["verified"] is not True or obj["failures"] or got != members:
            return f"verified={obj['verified']}, {len(obj['failures'])} failures, {got} members"
        return None

    return check


def check_census(want: dict) -> Check:
    def check(rc: int, stdout: str) -> Optional[str]:
        bad = _expect_rc(rc, 0)
        if bad:
            return bad
        obj = json.loads(stdout)
        return None if obj == want else "census differs from the reference"

    return check


def check_sweep(limit: int) -> Check:
    def check(rc: int, stdout: str) -> Optional[str]:
        bad = _expect_rc(rc, 0)
        if bad:
            return bad
        obj = json.loads(stdout)
        want = [k for k in range(1, limit + 1) if pow(10, k, 9 * k) == 1]
        return None if obj["k_values"] == want else "sweep differs from pow"

    return check


def _grid_k(exponents: dict) -> int:
    k = 1
    for name, e in exponents.items():
        k *= GRID_PRIMES[name] ** e
    return k


def check_grid(entries: int, skipped: int) -> Check:
    def check(rc: int, stdout: str) -> Optional[str]:
        bad = _expect_rc(rc, 0)
        if bad:
            return bad
        obj = json.loads(stdout)
        if len(obj["entries"]) != entries or obj["skipped_over_cap"] != skipped:
            return f"{len(obj['entries'])} entries, {obj['skipped_over_cap']} skipped"
        for e in obj["entries"]:
            k = _grid_k(e["exponents"])
            if e["exact"] != e["expected"] or e["exact"] != (pow(10, k, 9 * k) == 1):
                return f"grid entry {e['exponents']} disagrees with pow"
        return None if obj["all_ok"] is True else "all_ok is false"

    return check


def check_repdigit(a: int, k: int) -> Check:
    exact = pow(10, k, 9 * k) == 1
    strict = pow(10, k, 9 * k * a) == 1

    def check(rc: int, stdout: str) -> Optional[str]:
        bad = _expect_rc(rc, 0 if exact else 1)
        if bad:
            return bad
        obj = json.loads(stdout)
        if (obj["exact"], obj["strict"]) != (exact, strict):
            return f"exact={obj['exact']} strict={obj['strict']}, pow says {exact} {strict}"
        return None

    return check


def check_order(m: int) -> Check:
    def check(rc: int, stdout: str) -> Optional[str]:
        bad = _expect_rc(rc, 0)
        if bad:
            return bad
        obj = json.loads(stdout)
        t = obj["order"]
        if pow(10, t, m) != 1 or any(pow(10, t // q, m) == 1 for q in prime_factors(t)):
            return f"{t} is not the order of 10 mod {m}"
        return None

    return check


def check_probe(base: str, position: int, zeros: int) -> Check:
    digits = expand(base)
    cut = len(digits) - position
    modified = digits[:cut] + "0" * zeros + digits[cut:]
    s = sum(map(int, digits))
    r = residue(modified, s)

    def check(rc: int, stdout: str) -> Optional[str]:
        bad = _expect_rc(rc, 0 if r == 0 else 1)
        if bad:
            return bad
        obj = json.loads(stdout)
        got = (expand(obj["modified"]), obj["modulus"], obj["residue"], obj["is_niven"])
        return None if got == (modified, s, r, r == 0) else f"probe gave {got[1:]}, expected {(s, r, r == 0)}"

    return check


# --- workloads --------------------------------------------------------------------

def search_width(rng: random.Random) -> list[Op]:
    classes = {int(k): v for k, v in REFERENCE["search_classes"].items()}
    ops = [
        Op(("search", "--k", str(k), "--format", "json"), check_search_json(k, classes[k]))
        for k in range(1, 15)
    ]
    ops.append(Op(("search", "--k", "11"), check_search_text(11, classes[11]), mask_elapsed))
    ops.append(
        Op(
            ("search", "--k", "10", "--exhaustive-zero-scan", "--format", "json"),
            check_search_json(10, classes[10]),
        )
    )
    zero_free = [c for c in classes[12] if "0" not in c and len(set(c)) > 1]
    ops.append(
        Op(
            ("search", "--k", "12", "--no-zeros", "--exclude-repdigits", "--format", "json"),
            check_search_json(12, zero_free),
        )
    )
    return ops


def verify_orbits(rng: random.Random) -> list[Op]:
    ops = []
    for i in range(36):
        width = 3 + i % 7
        digits = str(rng.randint(1, 9)) + "".join(str(rng.randint(0, 9)) for _ in range(width - 1))
        ops.append(Op(("check", digits), check_verdict(digits, pinn_by_permutations(digits))))
    # 2448 followed by zeros: every digit is even and the digit sum is 18, so
    # each arrangement is divisible by 2 and by 9.
    for n in (250, 500, 1000):
        text = f"24480_({n})"
        ops.append(Op(("check", text), check_verdict(expand(text), True)))
    # Neither number is divisible by its own digit sum, so neither is a PINN.
    for text in ("1_(5000)", "1_(3000)2_(3000)"):
        digits = expand(text)
        assert residue(digits, sum(map(int, digits)))
        ops.append(Op(("check", text), check_verdict(digits, False)))
    members = REFERENCE["family_members"]
    for k in (10, 11, 12):
        ops.append(Op(("families", "--verify", "--k", str(k), "--format", "json"), check_families(members[str(k)])))
    ops.append(
        Op(
            ("families", "--verify", "--k", "200", "--budget", "1", "--format", "json"),
            check_families(members["200"]),
        )
    )
    return ops


def census_repdigit(rng: random.Random) -> list[Op]:
    ops = [
        Op(("census", "--max", n, "--format", "json"), check_census(REFERENCE["census"][n]))
        for n in ("1000000", "3456789")
    ]
    ops.append(Op(("repdigit", "--sweep", "300000", "--format", "json"), check_sweep(300000)))
    grid = REFERENCE["grid"]
    ops.append(Op(("repdigit", "--grid", "--format", "json"), check_grid(grid["entries"], grid["skipped_over_cap"])))
    for _ in range(10):
        a = rng.randint(1, 9)
        exps = {"n": rng.randint(0, 6), "alpha": rng.randint(0, 2), "beta": rng.randint(0, 2)}
        for name in ("gamma1", "gamma2", "delta1", "delta2", "delta3", "delta4", "delta5"):
            exps[name] = int(rng.random() < 0.25)
        argv = ["repdigit", "--a", str(a)]
        for name, e in exps.items():
            argv += [f"--{name}", str(e)]
        ops.append(Op(tuple(argv + ["--format", "json"]), check_repdigit(a, _grid_k(exps))))
    moduli = [86455449, 2212394296770203368013, 130654897808007778425046117]
    while len(moduli) < 6:
        m = rng.randrange(10**6, 10**8)
        if m % 2 and m % 5:
            moduli.append(m)
    for m in moduli:
        ops.append(Op(("order", "--m", str(m), "--format", "json"), check_order(m)))
    probes = [("1_(27)", 1, 1)]
    for _ in range(4):
        base = str(rng.randint(1, 9)) + "".join(str(rng.randint(0, 9)) for _ in range(rng.randint(4, 39)))
        probes.append((base, rng.randint(0, len(base)), rng.randint(1, 30)))
    for base, position, zeros in probes:
        ops.append(
            Op(
                ("probe-zero-insertion", base, str(position), str(zeros), "--format", "json"),
                check_probe(base, position, zeros),
            )
        )
    return ops


WORKLOADS = {
    "search-width": search_width,
    "verify-orbits": verify_orbits,
    "census-repdigit": census_repdigit,
}
