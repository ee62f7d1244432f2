"""Every pipeline stage is linear in spec size.

The input grows 4x (eq.orbi renamed into 10, then 40 disjoint copies), and
the number of Python calls each stage makes must grow by at most 4.4x.
Calls are counted with ``sys.setprofile`` (``call`` and ``c_call`` events),
so the check is exact and does not depend on the machine's speed.  A loop
that makes no Python call, such as the marking of a directive's items in
``resolve``, shows only in the number of bytecodes executed, counted with
``sys.settrace`` (``opcode`` events).  The memory a parse holds per token
is measured with ``tracemalloc``.
"""

import gc
import random
import re
import sys
import tracemalloc

import pytest

from orbi_forge import check_signature, check_spec, corpus_source, lint, parse_spec
from orbi_forge.directives import resolve
from orbi_forge.lexer import tokenize
from orbi_forge.parser import parse_tpkind_str
from orbi_forge.pretty import spec_str, term_str, tp_str
from orbi_forge.syntax import Block, Lam, Schema, Var
from orbi_forge.translate import translate_spec
from differential import clashing_labels
from specgen import gen_rules_source

_ID = re.compile(r"[A-Za-z][A-Za-z0-9_']*")
_SEPARATOR = re.compile(r"^%% *([A-Z][a-z]+) *$", re.M)

MAX_GROWTH = 4.4
_TARGETS = ("ab", "hy", "bel", "tw")


def _copies(n: int) -> str:
    """eq.orbi with every declared name renamed into ``n`` disjoint copies,
    one shared set of section separators."""
    source = corpus_source()
    spec = parse_spec(source)
    names = {decl.name for _, decl in spec.decls_in_order()}
    names |= {s.name for s in spec.schemas} | {t.name for t in spec.theorems}
    for d in spec.definitions:
        names |= {d.name, *(cname for cname, _, _ in d.clauses)}
    marks = list(_SEPARATOR.finditer(source))
    parts = []
    for i, m in enumerate(marks):
        end = marks[i + 1].start() if i + 1 < len(marks) else len(source)
        body = source[m.end() : end].strip("\n")
        renamed = (
            _ID.sub(lambda w: f"{w[0]}_{k}" if w[0] in names else w[0], body) for k in range(n)
        )
        parts.append(f"%% {m.group(1)}\n" + "\n".join(renamed))
    return "\n\n".join(parts) + "\n"


def _calls(fn, *args) -> int:
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return count


def _opcodes(fn, *args) -> int:
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def trace(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
    return count


@pytest.fixture(scope="module")
def stage_calls():
    out = {}
    for n in (10, 40):
        text = _copies(n)
        spec = parse_spec(text)
        checked = check_spec(spec)
        out[n] = {
            "parse_spec": _calls(parse_spec, text),
            "check_spec": _calls(check_spec, spec),
            "spec_str": _calls(spec_str, spec),
            "lint": _calls(lint, checked),
            **{f"translate_spec {t}": _calls(translate_spec, checked, t) for t in _TARGETS},
        }
    return out


def test_copies_are_disjoint_and_complete():
    checked = check_spec(parse_spec(_copies(3)))
    assert len(checked.sig.entries) == 3 * len(check_spec(parse_spec(corpus_source())).sig.entries)
    assert len(checked.theorems) == 12
    assert len(translate_spec(checked, "ab").blocks) == 3 * 19


@pytest.mark.parametrize(
    "stage",
    ["parse_spec", "check_spec", "spec_str", "lint", *(f"translate_spec {t}" for t in _TARGETS)],
)
def test_stage_grows_linearly(stage_calls, stage):
    ratio = stage_calls[40][stage] / stage_calls[10][stage]
    assert ratio <= MAX_GROWTH, f"{stage}: {ratio:.2f}x calls for 4x input"


def test_parse_makes_few_calls_per_token():
    # the productions read the token lists at a local index, with no call
    # per token; a helper call per lookahead or expected token gives about 3
    text = _copies(40)
    per_token = _calls(parse_spec, text) / len(tokenize(text))
    assert per_token <= 2.5, f"parse_spec: {per_token:.2f} calls per token"


def test_parse_peaks_at_little_memory_per_token():
    # the lexer sets the peak: the matches and the lexemes, of which a parse
    # keeps only the lexemes, the identifier set and one small cached int a
    # token.  Storing a kind and boxed start and end offsets per token as
    # well peaked at 159 B a token; CPython 3.11 reads 74 B
    text = _copies(40)
    tokens = len(tokenize(text))
    gc.collect()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        parse_spec(text)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    per_token = peak / tokens
    assert per_token <= 100, f"parse_spec: {per_token:.1f} B peak per token"


def test_check_signature_makes_few_calls_per_token():
    # a level-0 term is checked against a closed simple type: a schematic
    # occurrence is one loop along its spine, with no shift, free or level
    # walk; with those walks it makes about 2 calls per token
    for seed in range(3):
        text = gen_rules_source(random.Random(seed), 40)[0]
        spec = parse_spec(text)
        per_token = _calls(check_signature, spec) / len(tokenize(text))
        assert per_token <= 1.85, f"seed {seed}: {per_token:.2f} calls per token"


def test_resolve_grows_linearly():
    # every copy repeats eq.orbi's directives on the shared names g and M,
    # each of which has one owner per copy
    ops = {n: _opcodes(resolve, check_spec(parse_spec(_copies(n))), "ab") for n in (10, 40)}
    ratio = ops[40] / ops[10]
    assert ratio <= MAX_GROWTH, f"resolve: {ratio:.2f}x bytecodes for 4x input"


def test_resolve_reads_theorem_variables_from_check():
    # check_spec collects the theorem variables while scope-checking; a
    # later resolve looks a directive up and walks no statement
    def calls(n):
        quantifiers = "".join(f"{{M{i}:tm}}" for i in range(n))
        text = (
            "%% Syntax\ntm: type.\n\n%% Directives\n%% explicit [ab] in M0\n\n"
            f"%% Theorems\ntheorem t: {quantifiers} true;\n"
        )
        return _calls(resolve, check_spec(parse_spec(text)), "ab")

    assert calls(1000) == calls(10)


def test_quantifier_chain_names_grow_linearly():
    # ab/hy name the variables of one chain from one supply, which resumes
    # numbering a stem where it stopped: M, M1, M2, ... for {M:tm} {M:tm} ...
    def calls(n):
        text = "%% Syntax\ntm: type.\n\n%% Theorems\ntheorem t: " + "{M:tm} " * n + "true;\n"
        return _calls(translate_spec, check_spec(parse_spec(text)), "ab")

    ratio = calls(1000) / calls(250)
    assert ratio <= MAX_GROWTH, f"translate_spec ab: {ratio:.2f}x calls for 4x quantifiers"


def _explicit_chain(n: int) -> str:
    """eq.orbi plus ``theorem big: {h:xaG}{M0:tm}…{Mn-1:tm} [h |- aeq M0 M0]
    -> … -> [h |- aeq Mn-1 Mn-1];``, each ``Mi`` marked explicit."""
    directives = "".join(f"%% explicit [hy,ab,bel] in M{i}\n" for i in range(n))
    quantifiers = "".join(f"{{M{i}:tm}}" for i in range(n))
    judgments = " -> ".join(f"[h |- aeq M{i} M{i}]" for i in range(n))
    source = corpus_source().replace("\n%% Theorems\n", f"{directives}\n%% Theorems\n")
    return f"{source}theorem big: {{h:xaG}}{quantifiers} {judgments};\n"


@pytest.mark.parametrize("target", ["ab", "hy", "bel"])
def test_explicit_variables_translate_linearly(target):
    # the walk that prints the chain's body records, at each judgment, its
    # context for every explicit variable it mentions; rescanning the body
    # once per explicit variable made this about 14x
    def calls(n):
        return _calls(translate_spec, check_spec(parse_spec(_explicit_chain(n))), target)

    ratio = calls(200) / calls(50)
    assert ratio <= MAX_GROWTH, f"translate_spec {target}: {ratio:.2f}x calls for 4x variables"


def test_parenthesised_term_equality_parses_linearly():
    # the token after the matching ')' decides between a parenthesised
    # proposition and a term, so the term is read once, not once per '('
    def calls(n):
        term = "(" * n + "M" + "".join(f") N{k}" for k in range(n - 1)) + ")"
        text = f"%% Syntax\ntm: type.\n\n%% Theorems\ntheorem t: {term} = Q;\n"
        return _calls(parse_spec, text)

    ratio = calls(400) / calls(100)
    assert ratio <= MAX_GROWTH, f"parse_spec: {ratio:.2f}x calls for 4x parentheses"


def _flat_rule(n: int) -> str:
    """``r: {x0:t} … {x_{n-1}:t} j x0.``: one Pi chain of ``n`` binders."""
    binders = " ".join(f"{{x{i}:t}}" for i in range(n))
    return f"%% Syntax\nt: type.\n\n%% Judgments\nj: t -> type.\n\n%% Rules\nr: {binders} j x0.\n"


def _wide_block(n: int) -> str:
    """A schema of one block of ``n`` entries."""
    entries = ", ".join(f"x{i}:t" for i in range(n))
    return f"%% Syntax\nt: type.\n\n%% Schemas\nschema s = block ({entries});\n"


def test_pi_chain_prints_linearly():
    # each binder of the chain is named from its hint, and the chain prints in a loop
    calls = {n: _calls(spec_str, parse_spec(_flat_rule(n))) for n in (250, 1000)}
    ratio = calls[1000] / calls[250]
    assert ratio <= MAX_GROWTH, f"spec_str: {ratio:.2f}x calls for 4x binders"


def test_pi_chain_lints_linearly():
    # L3 reads vacuity from one last_uses pass over the chain
    calls = {n: _calls(lint, check_spec(parse_spec(_flat_rule(n)))) for n in (150, 600)}
    ratio = calls[600] / calls[150]
    assert ratio <= MAX_GROWTH, f"lint: {ratio:.2f}x calls for 4x binders"


class _Label(str):
    # compares in Python, so that each comparison of two labels is a call
    def __eq__(self, other):
        return str.__eq__(self, other)

    __hash__ = str.__hash__


def _with_counted_labels(spec):
    items = []
    for section, item in spec.items:
        if type(item) is Schema:
            blocks = [Block(tuple((_Label(x), tp) for x, tp in b.entries)) for b in item.alternatives]
            item = item._replace(alternatives=tuple(blocks))
        items.append((section, item))
    return spec._replace(items=tuple(items))


@pytest.mark.parametrize("stage", ["spec_str", "check_spec"])
def test_wide_block_grows_linearly(stage):
    # a block's entries are named from their labels, a leaf is tested against
    # them by lookup, and check_schema finds a duplicate label by lookup
    # rather than by scanning
    fn = spec_str if stage == "spec_str" else check_spec
    specs = {n: _with_counted_labels(parse_spec(_wide_block(n))) for n in (200, 800)}
    ratio = _calls(fn, specs[800]) / _calls(fn, specs[200])
    assert ratio <= MAX_GROWTH, f"{stage}: {ratio:.2f}x calls for 4x entries"


def test_clashing_entry_labels_translate_linearly():
    # every block names its entry x, and ab names the k-th x with k primes:
    # the supply resumes priming a name where it stopped and tests its dicts
    # inline, so a prime makes no call.  The bytes stay quadratic until ab/hy
    # number their names (ROADMAP item 6)
    def calls(k):
        return _calls(translate_spec, check_spec(parse_spec(clashing_labels(k))), "ab")

    ratio = calls(400) / calls(100)
    assert ratio <= MAX_GROWTH, f"translate_spec ab: {ratio:.2f}x calls for 4x blocks"


def _nested_lambdas(n: int) -> str:
    """``r: j (lam (\\x0. lam (\\x1. … x0))).``, ``n`` lambdas deep."""
    term = "x0"
    for i in reversed(range(1, n)):
        term = f"lam (\\x{i}. {term})"
    return (
        "%% Syntax\ntm: type.\nlam: (tm -> tm) -> tm.\n\n%% Judgments\nj: tm -> type.\n\n"
        f"%% Rules\nr: j (lam (\\x0. {term})).\n"
    )


@pytest.mark.parametrize("stage", ["spec_str", "translate_spec ab"])
def test_nested_lambdas_print_linearly(stage):
    # each lambda is named from its hint, with no pass over its body; a pass
    # per lambda made this about 14x
    def calls(n):
        spec = parse_spec(_nested_lambdas(n))
        if stage == "spec_str":
            return _calls(spec_str, spec)
        return _calls(translate_spec, check_spec(spec), "ab")

    ratio = calls(200) / calls(50)
    assert ratio <= MAX_GROWTH, f"{stage}: {ratio:.2f}x calls for 4x nesting"


def _nested_domains(n: int) -> str:
    """``{x_{n-1}:{…{x0:t} t…} t} t``: ``n`` products, each in the domain of
    the next."""
    tp = "t"
    for i in range(n):
        tp = f"{{x{i}:{tp}}} t"
    return tp


def test_products_nested_in_domains_print_linearly():
    # a product's domain lies under no binder of its chain, so each nested
    # chain is named on its own
    calls = {n: _calls(tp_str, parse_tpkind_str(_nested_domains(n)), []) for n in (50, 200)}
    ratio = calls[200] / calls[50]
    assert ratio <= MAX_GROWTH, f"tp_str: {ratio:.2f}x calls for 4x nesting"


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 6: a captured term prints again by the exact rule, "
    "a pass over each lambda's body",
)
def test_forced_captures_print_linearly():
    # ``\x. \x. … x``, every lambda hinted x and the innermost body naming
    # the outermost binder, which every binder under it would capture
    def calls(n):
        t = Var(n - 1)
        for _ in range(n):
            t = Lam("x", t)
        return _calls(term_str, t, [])

    ratio = calls(200) / calls(50)
    assert ratio <= MAX_GROWTH, f"term_str: {ratio:.2f}x calls for 4x nesting"
