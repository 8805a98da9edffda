"""End-to-end benchmark of the permniven command line.

Run from the repository root:

    python3 perfbench/run.py --workload search-width --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another

A workload is a list of `permniven` command lines built from --seed.  The
load is a closed loop in this one process: `permniven.cli.run(argv)` is
called in-process with stdout and stderr captured, one operation at a time,
with the default `--threads 1`.  A pass runs every operation once, in an
order drawn from the seed; passes repeat until --seconds have gone by.

With --trace 0 the result line holds the end-to-end metrics, measured with
tracing off.  With --trace 1 half the time runs untraced passes and half
runs traced ones (see tracing.py); the result line holds the per-layer
metrics, including the tracing overhead.  Each operation's first output is
checked after the timed passes, and every later run must repeat it byte for
byte: an exception, a wrong exit code, a wrong verdict or result set, or
stdout that differs from the first run counts as a failed operation.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

from tracing import LAYER_METRICS, OVERHEAD, Tracer
from workloads import WORKLOADS

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 15
MIN_BEYOND_P90 = 10
HARD_STOP_S = 150.0

# A fresh interpreter times its own import of the package; the first child
# only fills the bytecode cache.
_IMPORT_TIMER = """
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import permniven, permniven.cli
dt = time.perf_counter() - t0
assert permniven.__file__.startswith({src!r}), permniven.__file__
print(repr(dt))
"""


def measure_setup() -> float:
    code = _IMPORT_TIMER.format(src=SRC)
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60, check=True
        )
        if i:
            samples.append(float(done.stdout))
    return statistics.median(samples)


def cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Runner:
    """Runs passes over one workload's operations, keeping each operation's
    first output for the checks and counting later outputs that differ."""

    def __init__(self, ops, rng: random.Random) -> None:
        self.ops = ops
        self.rng = rng
        self.latency: list[list[float]] = [[] for _ in ops]
        self.first: list = [None] * len(ops)  # (rc, digest, stdout, stderr, exception)
        self.changed = [0] * len(ops)

    def run_op(self, i: int) -> tuple[float, float]:
        """Run operation i once and return its wall and CPU time."""
        op = self.ops[i]
        cli = importlib.import_module("permniven.cli")
        out, err = io.StringIO(), io.StringIO()
        exc = None
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.run(list(op.argv))
        except Exception as e:  # the loop must go on; the failure is counted
            rc, exc = None, e
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        self.latency[i].append(wall)

        stdout = out.getvalue()
        digest = hashlib.sha256((op.mask(stdout) if op.mask else stdout).encode()).hexdigest()
        if self.first[i] is None:
            self.first[i] = (rc, digest, stdout, err.getvalue(), exc)
        elif (rc, digest) != self.first[i][:2]:
            self.changed[i] += 1
        return wall, cpu

    def one_pass(self) -> tuple[float, float]:
        """Wall and CPU time of one pass, summed over its operations."""
        order = list(range(len(self.ops)))
        self.rng.shuffle(order)
        times = [self.run_op(i) for i in order]
        return sum(w for w, _ in times), sum(c for _, c in times)

    def all_latencies(self) -> list[float]:
        return [x for xs in self.latency for x in xs]

    def check(self) -> tuple[int, int, bool]:
        """Check every operation's first output after the timed passes.

        Returns (attempted, failed, correct).  A failing first output fails
        every run of that operation, since later runs printed the same or
        were counted as changed.  correct is false for a wrong verdict or
        result set, or a changed output; an operation that stopped with an
        error only counts as failed.
        """
        attempted = failed = 0
        correct = True
        for i, op in enumerate(self.ops):
            rc, _, stdout, stderr, exc = self.first[i]
            runs = len(self.latency[i])
            attempted += runs
            if exc is not None:
                failure = f"raised {type(exc).__name__}: {exc}"
            else:
                try:
                    failure = op.check(rc, stdout)
                except (KeyError, TypeError, ValueError, IndexError) as e:
                    failure = f"output not understood: {e!r}"
                if failure and rc in (0, 1):
                    correct = False
                if failure and stderr:
                    failure += f" ({stderr.strip()[:120]})"
            if self.changed[i]:
                correct = False
                print(f"FAILED {op.name}: {self.changed[i]} of {runs} runs differ from the first", file=sys.stderr)
            if failure:
                print(f"FAILED {op.name}: {failure}", file=sys.stderr)
            failed += runs if failure else self.changed[i]
        return attempted, failed, correct


def p90_and_beyond(samples: list[float]) -> tuple[float, int]:
    p90 = statistics.quantiles(samples, n=10)[8]
    return p90, sum(1 for x in samples if x > p90)


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    walls, cpus = [], []
    start = time.perf_counter()
    while True:
        wall, cpu = runner.one_pass()
        walls.append(wall)
        cpus.append(cpu)
        elapsed = time.perf_counter() - start
        if elapsed > HARD_STOP_S:
            print(f"stopped after {len(walls)} passes at the {HARD_STOP_S:.0f} s limit", file=sys.stderr)
            break
        samples = runner.all_latencies()
        if len(walls) >= 2 and elapsed >= seconds and p90_and_beyond(samples)[1] >= MIN_BEYOND_P90:
            break
    samples = runner.all_latencies()
    p90, beyond = p90_and_beyond(samples)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "op_p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"passes {len(walls)}, operations per pass {len(runner.ops)}, "
        f"latency samples {len(samples)}, {beyond} beyond p90",
        "pass wall times (s): " + " ".join(f"{w:.3f}" for w in walls),
    ]
    return metrics, notes


def per_layer(runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while len(untraced) < 2 or time.perf_counter() - start < seconds / 2:
        untraced.append(runner.one_pass()[0])
    start = time.perf_counter()
    with Tracer() as tracer:
        while not traced or time.perf_counter() - start < seconds / 2:
            traced.append(runner.one_pass()[0])
            layers.append(tracer.take_pass())
    metrics = {
        name: (statistics.median(p[name] for p in layers), unit) for name, unit, _, _ in LAYER_METRICS
    }
    metrics[OVERHEAD[0]] = (statistics.median(traced) - statistics.median(untraced), OVERHEAD[1])
    notes = [f"untraced passes {len(untraced)}, traced passes {len(traced)}"]
    if tracer.absent:
        notes.append("absent, metrics read 0: " + ", ".join(tracer.absent))
    return metrics, notes


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = subprocess.run(cmd).returncode or status
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)

    if not os.path.isfile(os.path.join(SRC, "permniven", "cli.py")):
        print(f"error: run from the repository root; {SRC}/permniven not found", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    importlib.import_module("permniven.cli")

    setup_s = None if args.trace else measure_setup()
    rng = random.Random(f"{args.workload}:{args.seed}")
    runner = Runner(WORKLOADS[args.workload](rng), rng)
    if args.trace:
        metrics, notes = per_layer(runner, args.seconds)
    else:
        metrics, notes = end_to_end(runner, args.seconds)
        metrics["setup_s"] = (setup_s, "s")

    attempted, failed, correct = runner.check()

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(note)
    print(f"fail_rate {failed / attempted:.6f} ({failed} of {attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    if not args.trace:
        print("per-operation median wall time:")
        for op, xs in zip(runner.ops, runner.latency):
            print(f"  {statistics.median(xs) * 1e3:10.3f} ms  {op.name}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
