"""Spans around the calls into each module's public functions, recorded from outside.

A ``Tracer`` replaces each public function at the name its caller looks it up
by (``orbi_forge.parser.tokenize``, ``orbi_forge.cli.check_spec``, ...) with a
wrapper that records a span: name, operation, start, end and parent span.  It
also adds up counts at the same boundaries (tokens, declarations, blocks...).
Spans stay in memory until ``layer_metrics`` turns one pass of them into
per-layer numbers.  The program's own source is not touched.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    op: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at the top of an operation


def _count_signature(counts, args, sig):
    counts["lf.entries"] += len(sig.entries)
    counts["lf.implicits"] += sum(len(e.implicit) for e in sig.entries.values())


def _count_checked(counts, args, checked):
    counts["contexts.items"] += (
        len(checked.schemas) + len(checked.relations) + len(checked.theorems)
    )


def _count_constructors(counts, args, found):
    counts["lf.constructors_scanned"] += len(args[0].entries)
    counts["lf.constructors_returned"] += len(found)


def _counter(key, size):
    """Count function adding ``size(result)`` to ``key``."""
    return lambda counts, args, result: counts.update({key: size(result)})


def boundaries(cli):
    """(owner, attribute, span name, count function) of every traced call site."""
    from orbi_forge import contexts, directives, lf, parser, translate

    return (
        (parser, "tokenize", "lexer.tokenize", _counter("lexer.tokens", len)),
        (cli, "parse_spec", "parser.parse_spec", _counter("parser.decls", lambda r: len(r.items))),
        (contexts, "check_signature", "lf.check_signature", _count_signature),
        (lf.Signature, "constructors_of", "lf.constructors_of", _count_constructors),
        (cli, "check_spec", "contexts.check_spec", _count_checked),
        # check_spec imports resolve lazily from directives; translate binds it at import.
        (directives, "resolve", "directives.resolve", None),
        (translate, "resolve", "directives.resolve", None),
        (translate, "gen_wf_predicates", "translate.gen_wf", None),
        (cli, "run_lint", "lint.lint", _counter("lint.warnings", len)),
        (
            cli,
            "translate_spec",
            "translate.emit",
            lambda c, a, r: c.update({f"translate.{a[1]}.blocks": len(r.blocks)}),
        ),
        (cli, "spec_str", "pretty.spec_str", _counter("pretty.bytes", lambda r: len(r.encode()))),
    )


class Tracer:
    def __init__(self, cli):
        self.sites = boundaries(cli)
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = ""
        self._open: list[int] = []

    def clear(self) -> None:
        self.spans = []
        self.counts = Counter()

    def _wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._open[-1] if tracer._open else None
            span = Span(name, tracer.op, time.perf_counter(), 0.0, parent)
            tracer.spans.append(span)
            tracer._open.append(len(tracer.spans) - 1)
            tracer.counts[name + ".calls"] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._open.pop()
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, count in self.sites:
                fn = vars(owner)[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, count))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)
            self._open = []


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "pretty.bytes":
        return "B"
    return "count"


def layer_metrics(tracer: Tracer, op_seconds: dict, diagnostics: int, translated: int) -> dict:
    """Per-layer numbers of one traced pass over the six operations.

    Times and counts are totals over the pass; ``self`` time is a span's time
    minus that of its child spans; ``cli.self_s`` is operation time outside
    every top-level span.  ``translated`` is the number of (file, target)
    pairs the four translate operations emitted.
    """
    spans = tracer.spans
    children = [0.0] * len(spans)
    top = 0.0
    for s in spans:
        if s.parent is None:
            top += s.end - s.start
        else:
            children[s.parent] += s.end - s.start
    total: Counter = Counter()
    own: Counter = Counter()
    emit: Counter = Counter()
    resolve_in_translate = 0
    for i, s in enumerate(spans):
        d = s.end - s.start
        total[s.name] += d
        own[s.name] += d - children[i]
        if s.name == "translate.emit":
            emit[s.op] += d
        if s.name == "directives.resolve" and s.op.startswith("translate."):
            resolve_in_translate += 1
    c = tracer.counts
    scanned = c["lf.constructors_scanned"]
    out = {
        "lexer.tokenize_s": total["lexer.tokenize"],
        "lexer.tokens": c["lexer.tokens"],
        "lexer.tokens_per_s": c["lexer.tokens"] / total["lexer.tokenize"],
        "parser.parse_spec_s": total["parser.parse_spec"],
        "parser.self_s": own["parser.parse_spec"],
        "parser.decls": c["parser.decls"],
        "lf.check_signature_s": total["lf.check_signature"],
        "lf.entries": c["lf.entries"],
        "lf.implicits": c["lf.implicits"],
        "lf.constructors_of_calls": c["lf.constructors_of.calls"],
        "lf.constructors_scan_ratio": c["lf.constructors_returned"] / scanned if scanned else 0.0,
        "translate.gen_wf_calls": c["translate.gen_wf.calls"],
    }
    for t in ("ab", "hy", "bel", "tw"):
        out[f"translate.{t}.emit_s"] = emit[f"translate.{t}"]
        out[f"translate.{t}.blocks"] = c[f"translate.{t}.blocks"]
    out.update(
        {
            "directives.resolve_s": total["directives.resolve"],
            "directives.resolve_calls": resolve_in_translate / translated if translated else 0.0,
            "contexts.check_spec_s": total["contexts.check_spec"],
            "contexts.self_s": own["contexts.check_spec"],
            "contexts.items": c["contexts.items"],
            "lint.lint_s": total["lint.lint"],
            "lint.warnings": c["lint.warnings"],
            "pretty.spec_str_s": total["pretty.spec_str"],
            "pretty.bytes": c["pretty.bytes"],
            "cli.self_s": sum(op_seconds.values()) - top,
            "cli.diagnostics": diagnostics,
        }
    )
    return out
