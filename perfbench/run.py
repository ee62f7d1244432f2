#!/usr/bin/env python3
"""Benchmark of the ``orbi`` compiler: end-to-end operations, and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload corpus|scaled|rules --seed N --seconds S --trace 0|1

It builds the workload's ``.orbi`` files from the seed and drives the real CLI
entry point ``orbi_forge.cli.run(argv)`` in this process, one operation at a
time, in a closed loop: ``check``, ``translate --target ab|hy|bel|tw`` and
``fmt``, each over all of the workload's files.  Every result is checked
against its reference (``oracle.py``); an operation that crashes or differs
counts as failed and the run goes on.

``--trace 0`` reports the end-to-end metrics, timed with no instrumentation.
``--trace 1`` alternates plain passes with passes traced by ``spans.py`` and
reports per-layer metrics.  The last line of stdout is the JSON result; the
line before it holds the details: input size, each timing's median, highest
percentile with at least ten samples beyond it and sample count, and the first
failures.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass

import oracle
import spans
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OPS = ("check",) + tuple(f"translate.{t}" for t in oracle.TARGETS) + ("fmt",)
SETUP_SAMPLES = 15
MAX_REPORTED_FAILURES = 20

_IMPORT_PROBE = f"""
import sys, time
sys.path.insert(0, {HERE!r})
import speed
before = min(speed.reference_seconds() for _ in range(3))
t = time.perf_counter()
import orbi_forge.cli
t = time.perf_counter() - t
after = min(speed.reference_seconds() for _ in range(3))
print(repr(t), repr((before + after) / 2), orbi_forge.cli.__file__)
"""


class SetupError(Exception):
    """The program under test cannot be found or started."""


@dataclass
class Result:
    rc: int | None
    stdout: str
    stderr: str
    exc: Exception | None
    seconds: float
    out_bytes: int = 0


def import_program():
    """``orbi_forge.cli`` from this checkout's ``src/``, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "orbi_forge", "cli.py")):
        raise SetupError(f"no orbi_forge sources under {SRC}")
    sys.path.insert(0, SRC)
    try:
        from orbi_forge import cli
    except ImportError as e:
        raise SetupError(f"cannot import orbi_forge.cli: {e}") from None
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SetupError(f"orbi_forge.cli was imported from {cli.__file__}, not {SRC}")
    return cli


def measure_setup(samples: int = SETUP_SAMPLES) -> tuple:
    """Seconds to import ``orbi_forge.cli`` in fresh interpreters, interpreter
    start-up excluded: what every ``orbi`` invocation pays before it works.
    Returns the wall times and the same times at reference speed."""
    env = dict(os.environ, PYTHONPATH=SRC)
    wall, normalised = [], []
    for _ in range(samples):
        p = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        fields = p.stdout.strip().split(maxsplit=2)
        if p.returncode != 0 or len(fields) != 3 or not fields[2].startswith(SRC + os.sep):
            raise SetupError(f"import probe failed: {p.stderr.strip()[-500:]}")
        seconds, reference = float(fields[0]), float(fields[1])
        wall.append(seconds)
        normalised.append(seconds / reference * speed.NOMINAL_S)
    return wall, normalised


def summary(samples: list) -> dict:
    """Median, and the highest whole percentile with at least ten samples beyond it."""
    s = sorted(samples)
    n = len(s)
    out = {"median": statistics.median(s), "n": n}
    if n > 10:
        pct = math.floor(100 * (n - 10) / n)
        out["pct"] = pct
        out["pct_value"] = s[max(1, math.ceil(pct * n / 100)) - 1]
    return out


class Harness:
    """Writes a workload's files, runs CLI operations on them and checks each result."""

    def __init__(self, cli, workload: workloads.Workload, work_dir: str):
        self.cli = cli
        self.files = workload.files
        self.work_dir = work_dir
        self.out_dir = os.path.join(work_dir, "out")
        in_dir = os.path.join(work_dir, "in")
        os.makedirs(self.out_dir)
        os.makedirs(in_dir)
        self.paths = []
        for f in self.files:
            path = os.path.join(in_dir, f.name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f.text)
            self.paths.append(path)
        self.fmt_expected: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def argv(self, op: str, paths: list) -> list:
        if op.startswith("translate."):
            target = op.split(".", 1)[1]
            return ["translate", "--target", target, "--out-dir", self.out_dir, *paths]
        return [op, *paths]

    def call(self, argv: list, profile=None) -> Result:
        out, err = io.StringIO(), io.StringIO()
        rc = exc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                if profile is None:
                    rc = self.cli.run(argv)
                else:
                    sys.setprofile(profile)
                    try:
                        rc = self.cli.run(argv)
                    finally:
                        sys.setprofile(None)
            except Exception as e:  # a crash is a failed operation, not a failed run
                exc = e
            seconds = time.perf_counter() - start
        return Result(rc, out.getvalue(), err.getvalue(), exc, seconds)

    def note(self, problems: list) -> None:
        room = MAX_REPORTED_FAILURES - len(self.failures)
        self.failures += problems[: max(room, 0)]

    def op(self, op: str, profile=None, only: int | None = None) -> Result:
        """Run one operation over all files, or over file ``only``, and check it
        against the reference."""
        picked = slice(None) if only is None else slice(only, only + 1)
        files, paths = self.files[picked], self.paths[picked]
        for name in os.listdir(self.out_dir):
            os.remove(os.path.join(self.out_dir, name))
        r = self.call(self.argv(op, paths), profile)
        r.out_bytes = sum(
            os.path.getsize(os.path.join(self.out_dir, name)) for name in os.listdir(self.out_dir)
        )
        errors = oracle.verify(op, files, paths, r, self.out_dir, self.fmt_expected)
        self.attempted += 1
        if errors:
            self.failed += 1
            self.note(errors)
        return r

    def run_pass(self, tracer=None) -> dict:
        results = {}
        for op in OPS:
            if tracer is not None:
                tracer.op = op
            results[op] = self.op(op)
        return results

    def prepare_fmt(self) -> None:
        """Record each parseable file's fmt output once it is shown to re-parse
        alpha-equal to the input and to be a fixed point of fmt."""
        from orbi_forge.parser import parse_spec
        from orbi_forge.syntax import spec_alpha_equal

        fmt_dir = os.path.join(self.work_dir, "fmt")
        os.makedirs(fmt_dir, exist_ok=True)
        for f, path in zip(self.files, self.paths):
            if f.expected_reject("fmt") is not None:
                continue
            once = self.call(["fmt", path])
            if once.exc is not None or once.rc != 0:
                self.note([f"fmt {f.name}: exit {once.rc}, {once.exc!r}"])
                continue
            again = os.path.join(fmt_dir, f.name)
            with open(again, "w", encoding="utf-8") as fh:
                fh.write(once.stdout)
            twice = self.call(["fmt", again])
            problem = oracle.fmt_problem(
                f.text, once.stdout, twice.stdout, parse_spec, spec_alpha_equal
            )
            if problem:
                self.note([f"fmt {f.name}: {problem}"])
            else:
                self.fmt_expected[f.name] = once.stdout


def count_calls(h: Harness, op: str) -> int:
    """Python function calls (profile ``call`` and ``c_call`` events) in one operation."""
    n = 0

    def hook(frame, event, arg):
        nonlocal n
        if event == "call" or event == "c_call":
            n += 1

    h.op(op, profile=hook)
    return n


def timed_passes(h: Harness, seconds: float) -> tuple:
    """Passes until ``seconds`` have gone by: each operation's wall times, the
    same at reference speed, and the set of translate output sizes seen."""
    wall = {op: [] for op in OPS}
    normalised = {op: [] for op in OPS}
    out_bytes = set()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not wall["fmt"]:
        before = speed.reference()
        written = 0
        for op in OPS:
            r = h.op(op)
            after = speed.reference()
            wall[op].append(r.seconds)
            normalised[op].append(r.seconds / (before + after) * 2 * speed.NOMINAL_S)
            before = after
            written += r.out_bytes
        out_bytes.add(written)
    return wall, normalised, out_bytes


def peak_memory(h: Harness) -> int:
    """Largest tracemalloc peak of one operation on one input file, each started
    after a full collection.  A multi-file operation's peak also holds cyclic
    garbage of earlier files, which shifts with the collector's timing."""
    peak = 0
    for op in OPS:
        for i in range(len(h.files)):
            gc.collect()
            tracemalloc.start()
            try:
                h.op(op, only=i)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    return peak


def end_to_end(h: Harness, seconds: float) -> tuple:
    """(detail, end-to-end metrics) of an untraced run."""
    setup_wall, setup = measure_setup()
    h.prepare_fmt()
    peak = peak_memory(h)  # also the warm-up: first-use costs such as codec lookups
    calls = {op: count_calls(h, op) for op in OPS}
    wall, normalised, out_bytes = timed_passes(h, seconds)
    if len(out_bytes) != 1:
        h.note([f"translate output size changed between passes: {sorted(out_bytes)}"])
    metrics = {f"{op}_s": {"value": statistics.median(normalised[op]), "unit": "s"} for op in OPS}
    metrics.update({f"{op}_calls": {"value": calls[op], "unit": "count"} for op in OPS})
    metrics["peak_mem_mb"] = {"value": peak / 1e6, "unit": "MB"}
    metrics["out_bytes"] = {"value": max(out_bytes), "unit": "B"}
    metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    metrics["ok_ops_ratio"] = {"value": (h.attempted - h.failed) / h.attempted, "unit": "ratio"}
    detail = {f"{op}_wall_s": summary(wall[op]) for op in OPS}
    detail["setup_wall_s"] = summary(setup_wall)
    return detail, metrics


def traced(h: Harness, seconds: float) -> tuple:
    """(detail, per-layer metrics): plain and traced passes alternate, so that
    their difference gives the tracing overhead."""
    h.prepare_fmt()
    h.run_pass()  # warm-up
    tracer = spans.Tracer(h.cli)
    translated = sum(f.reject is None for f in h.files) * len(oracle.TARGETS)
    plain, instrumented, passes = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not passes:
        plain.append(sum(r.seconds for r in h.run_pass().values()))
        tracer.clear()
        with tracer.installed():
            results = h.run_pass(tracer)
        op_seconds = {op: r.seconds for op, r in results.items()}
        instrumented.append(sum(op_seconds.values()))
        diagnostics = sum(len(r.stderr.splitlines()) for r in results.values())
        passes.append(spans.layer_metrics(tracer, op_seconds, diagnostics, translated))
    metrics = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        unit = spans.unit(name)
        if unit == "count" and len(set(values)) != 1:
            h.note([f"count {name} differs between passes: {sorted(set(values))[:4]}"])
        value = statistics.median(values) if unit != "count" else values[0]
        metrics[name] = {"value": value, "unit": unit}
    overhead = (statistics.median(instrumented) - statistics.median(plain)) / len(OPS)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    detail = {"plain_pass": summary(plain), "traced_pass": summary(instrumented)}
    return detail, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("corpus", "scaled", "rules"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    os.environ["ORBI_COLOR"] = "never"
    try:
        cli = import_program()
        workload = workloads.build(args.workload, args.seed, ROOT)
    except (SetupError, oracle.ReferenceError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    work_dir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    try:
        h = Harness(cli, workload, work_dir)
        measure = traced if args.trace else end_to_end
        detail, metrics = measure(h, args.seconds)
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    detail = {"workload": args.workload, "seed": args.seed, "size": workload.size(), **detail}
    detail["failures"] = h.failures
    print(json.dumps(detail))
    correct = h.failed == 0 and not h.failures
    print(
        json.dumps(
            {"correct": correct, "attempted": h.attempted, "failed": h.failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
