"""Frozen reference outputs and the checks that every operation's result must pass.

The reference outputs of ``eq.orbi`` in ``reference/`` were written once and
are never regenerated by the benchmark.  At load they must contain every block
of ``tests/golden/`` byte for byte, so they cannot drift from the hand-checked
goldens.
"""

from __future__ import annotations

import glob
import json
import os
import re
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
TARGETS = ("ab", "hy", "bel", "tw")

_DIAG = re.compile(r"(\d+):(\d+): \[([^\]]+)\] (.*)")


class ReferenceError(Exception):
    """The frozen reference is missing or disagrees with the goldens."""


@dataclass
class Reference:
    source: str  # eq.orbi
    outputs: dict  # target -> reference translate output
    diagnostics: dict  # op -> [(code, message)]


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise ReferenceError(f"cannot read {path}: {e.strerror}") from None


def load_reference(root: str) -> Reference:
    source = _read(os.path.join(root, "src", "orbi_forge", "corpus", "eq.orbi"))
    outputs = {t: _read(os.path.join(REFERENCE_DIR, f"eq.{t}.out")) for t in TARGETS}
    raw = json.loads(_read(os.path.join(REFERENCE_DIR, "eq.diagnostics.json")))
    diagnostics = {op: [tuple(d) for d in diags] for op, diags in raw.items()}
    goldens = sorted(glob.glob(os.path.join(root, "tests", "golden", "*.golden")))
    if not goldens:
        raise ReferenceError("no golden files under tests/golden")
    for path in goldens:
        target = os.path.basename(path).split(".")[1]
        block = _read(path).rstrip("\n")
        if target not in outputs or "\n\n" + block + "\n" not in "\n\n" + outputs[target]:
            raise ReferenceError(f"reference eq.{target}.out lacks the block of {path}")
    return Reference(source, outputs, diagnostics)


def out_name(name: str, target: str) -> str:
    """Name of the file ``orbi translate`` writes for input ``name``."""
    base = name[: -len(".orbi")] if name.endswith(".orbi") else name
    return f"{base}.{target}.out"


def diagnostics_by_path(stderr: str, paths: list) -> tuple:
    """({path: [(code, message)]}, lines naming no input) from text diagnostics."""
    by_path = {p: [] for p in paths}
    stray = []
    for line in stderr.splitlines():
        for p in paths:
            m = _DIAG.fullmatch(line[len(p) + 1 :]) if line.startswith(p + ":") else None
            if m:
                by_path[p].append((m.group(3), m.group(4)))
                break
        else:
            stray.append(line)
    return by_path, stray


def verify(op, files, paths, result, out_dir, fmt_expected) -> list:
    """Every way ``result`` of ``op`` over ``files`` differs from the reference."""
    if result.exc is not None:
        return [f"{op}: uncaught {type(result.exc).__name__}: {result.exc}"]
    errors = []
    rejects = [f.expected_reject(op) for f in files]
    want_rc = 1 if any(rejects) else 0
    if result.rc != want_rc:
        errors.append(f"{op}: exit code {result.rc}, expected {want_rc}")
    by_path, stray = diagnostics_by_path(result.stderr, paths)
    errors += [f"{op}: stray stderr line {line!r}" for line in stray[:3]]
    for f, p, reject in zip(files, paths, rejects):
        got = by_path[p]
        if reject is None:
            want = [tuple(d) for d in f.diagnostics.get(op, [])]
            if got != want:
                errors.append(f"{op} {f.name}: diagnostics {got[:2]}..., expected {want[:2]}...")
        elif not got or got[0][0] != reject:
            first = got[0][0] if got else None
            errors.append(f"{op} {f.name}: first diagnostic {first}, expected {reject}")
    if op.startswith("translate."):
        target = op.split(".", 1)[1]
        for f, reject in zip(files, rejects):
            out = os.path.join(out_dir, out_name(f.name, target))
            if reject is not None:
                if os.path.exists(out):
                    errors.append(f"{op} {f.name}: output written for a rejected input")
                continue
            try:
                with open(out, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError:
                errors.append(f"{op} {f.name}: no output file")
                continue
            if text != f.outputs[target]:
                errors.append(f"{op} {f.name}: output differs from the reference")
    if op == "fmt":
        accepted = [f for f, reject in zip(files, rejects) if reject is None]
        missing = [f.name for f in accepted if fmt_expected.get(f.name) is None]
        if missing:
            errors.append(f"fmt: no verified output for {missing[:3]}")
        elif result.stdout != "".join(fmt_expected[f.name] for f in accepted):
            errors.append("fmt: output differs from the verified per-file output")
    elif result.stdout:
        errors.append(f"{op}: unexpected stdout")
    return errors


def fmt_problem(source: str, once: str, twice: str, parse_spec, spec_alpha_equal) -> str | None:
    """Why ``once = fmt(source)`` is wrong, given ``twice = fmt(once)``; None if right.

    fmt must re-parse alpha-equal to its input and be idempotent.
    """
    if twice != once:
        return "fmt is not idempotent"
    try:
        same = spec_alpha_equal(parse_spec(source), parse_spec(once))
    except Exception as e:  # a crash on fmt output is a wrong fmt output
        return f"fmt output does not re-parse: {type(e).__name__}: {e}"
    return None if same else "fmt output is not alpha-equal to its input"
