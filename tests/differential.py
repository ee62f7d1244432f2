"""Byte differential of the ``orbi`` command over a fixed, seeded input set.

Every input is run through eight commands in-process: ``check``,
``check --structured``, ``lint``, ``fmt`` and ``translate --target
ab|hy|bel|tw``.  A record is one (input, command) pair; its digest is the
first 16 hex digits of the sha256 of its exit code, stdout, stderr and output
file.  ``differential.manifest`` holds the digest of every record, so a change
that must keep every byte shows it by matching the manifest.

    python tests/differential.py                # compare with the manifest
    python tests/differential.py --write        # rewrite the manifest
    python tests/differential.py --against REV  # compare with revision REV

``--against`` extracts ``src/`` of REV with ``git archive`` and runs the same
inputs, built here, against it in a child process.  Differing records are
printed grouped by input family.  Inputs come from eq.orbi under each subset
of its directives, the ``scaled`` and ``rules`` benchmark workloads, the
``tests/specgen`` generators and probes of known defects; none depends on the
Python version, so the digests are the same on every supported one.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "differential.manifest")
TARGETS = ("ab", "hy", "bel", "tw")

COMMANDS = {
    "check": ["check"],
    "check-structured": ["check", "--structured"],
    "lint": ["lint"],
    "fmt": ["fmt"],
    **{t: ["translate", "--target", t, "--out-dir", os.path.join("..", "out")] for t in TARGETS},
}

WORKLOAD_SEED = 7
SPECGEN_SEEDS = range(20)

_RULES_SIG = """%% Syntax
tm: type.
t: type.
c: tm.
c0: t.
c2: t -> t -> t.
app: tm -> tm -> tm.
lam: (tm -> tm) -> tm.

%% Judgments
j: t -> t -> type.
aeq: tm -> tm -> type.
"""

_REL_SIG = """%% Syntax
tm: type.

%% Judgments
aeq: tm -> tm -> type.

%% Schemas
schema xaG = block (x:tm, u:aeq x x);

%% Definitions
inductive R : {g:xaG} {h:xaG} prop =
"""

_XG_SIG = "%% Syntax\ntm: type.\n\n%% Schemas\nschema xG = block (x:tm);\n\n%% Definitions\n"


_KIND_SIG = "%% Syntax\ntm: type.\nc0: tm.\n\n%% Judgments\n"
_KIND_RULES = _KIND_SIG + "j: tm -> type.\n\n%% Rules\n"

# Where the kind ``type`` may end a chain and where it may not: in and around
# the kind of a family, in a rule, and in the types of a block entry and of a
# theorem quantifier.
KIND_PROBES = {
    "kind-family-domain": _KIND_SIG + "j: (tm -> type) -> type.\n",
    "kind-type-domain": _KIND_SIG + "j: type -> type.\n",
    "kind-pi-domain": _KIND_SIG + "j: {x: tm -> type} type.\n",
    "kind-rule-domain": _KIND_RULES + "r: type -> j c0.\n",
    "kind-parenthesised": _KIND_SIG + "j: tm -> (tm -> type).\n",
    "kind-back-arrow": _KIND_SIG + "j: type <- tm.\n",
    "kind-vacuous-pi": _KIND_SIG + "j: {x:tm} type.\n",
    "kind-vacuous-rule-pi": _KIND_RULES + "r: {x:tm} j c0.\n",
    "kind-syntax-indexed": "%% Syntax\ntm: type.\nf: tm -> type.\n",
    "kind-judgment-constant": _KIND_SIG + "j: tm.\n",
    "kind-rules-family": _KIND_RULES + "r: j c0 -> type.\n",
    "kind-block-entry": _KIND_SIG
    + "j: tm -> type.\n\n%% Schemas\nschema xG = block (x: tm -> type);\n",
    "kind-quantifier": _KIND_SIG + "%% Theorems\ntheorem t: {M: tm -> type} true;\n",
}


_VACUOUS_SIG = (
    "%% Syntax\ntm: type.\nc: tm.\nlam: ({x:tm} tm) -> tm.\napp2: (tm -> tm) -> tm.\n"
    "f: tm -> tm.\n\n%% Judgments\nj: tm -> type.\n\n%% Rules\n"
)

# A level-0 Pi whose variable is vacuous, and the arrow it stands for, in a
# term's type and in a rule's premise.
VACUOUS_PROBES = {
    "vacuous-pi-constant": _VACUOUS_SIG + "r: j (lam f).\n",
    "vacuous-pi-bound": _VACUOUS_SIG + "r: {g: tm -> tm} j (lam g).\n",
    "vacuous-pi-mirror": _VACUOUS_SIG + "r: {g: {y:tm} tm} j (app2 g).\n",
    "level0-arrow-premise": _VACUOUS_SIG + "t: (tm -> j c) -> j c.\n",
    "level0-pi-premise": _VACUOUS_SIG + "t: ({x:tm} j c) -> j c.\n",
}


def nested_redexes(n: int) -> str:
    """``((\\x. x) ((\\x. x) … c0))``, ``n`` redexes deep."""
    return "((\\x. x) " * n + "c0" + ")" * n


def relation_premises(n: int) -> str:
    """A spec whose relation has a clause with ``n`` premises."""
    return (
        _XG_SIG + "inductive R : {g:xG} prop =\n| R_nl: R []\n"
        f"| R_cs: {'R [g] -> ' * n}R [g, b:block (x:tm)];\n\n"
        "%% Directives\n%% wf [ab,hy] in tm\n%% explicit [ab,hy] in xG\n%% explicit [ab,hy] in [g]\n"
    )


def clashing_labels(k: int) -> str:
    """A spec whose one relation clause adds ``k`` blocks that label their
    entries alike."""
    blocks = ", ".join(f"b{i}:block (x:tm, u:aeq x x)" for i in range(1, k + 1))
    return _REL_SIG + f"| R_k: R [g] [h] -> R [g, {blocks}] [h];\n"


_HOIST_SIG = (
    "%% Syntax\ntm: type.\nc: tm.\nlam: (tm -> tm) -> tm.\nf: tm -> tm -> tm.\n\n"
    "%% Judgments\nj: tm -> type.\n\n%% Rules\n"
)

# A rule's Pi binders after a premise, one named like a constant, and Pis
# over a judgment, which are premises.
HOIST_PROBES = {
    "rule-binder-named-like-constant": _HOIST_SIG + "r2: {c:tm} j c -> j (lam (\\x. c)).\n",
    "pi-after-premise": _HOIST_SIG + "s: j M -> {x:tm} j (f M x).\n",
    "level0-arrow-after-premise": _HOIST_SIG + "r: j M -> tm -> j (f M c).\n",
    "judgment-pi": _HOIST_SIG + "r1: {D: j c} j (f c c).\n",
    "judgment-pi-after-premise": _HOIST_SIG + "r: j c -> {D: j (f c c)} j c.\n",
}

_CAPTURE_SIG = (
    "%% Syntax\ntm: type.\napp: tm -> tm -> tm.\nlam: (tm -> tm) -> tm.\n\n"
    "%% Judgments\nj: tm -> type.\n\n%% Rules\n"
)

# A redex whose argument, a rule variable x, lands under a lambda hinted x:
# ab must prime the lambda, in a rule's head and in a premise.
CAPTURE_PROBES = {
    "capture-head": _CAPTURE_SIG + "r: j ((\\y. lam (\\x. app (app y x) x)) x).\n",
    "capture-premise": _CAPTURE_SIG + "s: {x:tm} j ((\\y. lam (\\x. app (app y x) x)) x) -> j x.\n",
}


def _probes(eq: str, head: str) -> list:
    """(name, text) of inputs that once showed a defect, one per defect;
    ``head`` is eq.orbi up to its Theorems section."""
    return [
        # bel wrote a nested quantifier without the explicit annotation of M
        ("bel-nested", head + "theorem nestT: {h:xaG} true -> ({M:tm} [h |- aeq M M]);\n"),
        (
            "bel-nested-groups",
            head + "theorem nestU: {h:xaG}{N:tm} [h |- aeq N N] || "
            "({g:xaG}{M:tm}<P:tm> [g |- aeq M P] & [h |- aeq N N]) -> false;\n",
        ),
        # an inner {M:tm} took the contexts the outer M is used under
        (
            "shadow-usage",
            head + "theorem shadowU: {g:xaG}{h:xaG}{M:tm} [g |- aeq M M] -> "
            "({M:tm} [h |- aeq M M]);\n",
        ),
        ("redex-two-args", _RULES_SIG + "\n%% Rules\nr: j ((\\x. \\y. c2 y x) M N) c0.\n"),
        ("omega-redex", _RULES_SIG + "\n%% Rules\nr: j ((\\x. x x) (\\x. x x)) c0.\n"),
        ("const-capture", _RULES_SIG + "\n%% Rules\nr: aeq ((\\y. lam (\\c. app c y)) c) c.\n"),
        ("hy-no-head-vars", _REL_SIG + "| R_x: R [g] [h] -> R [] [];\n"),
        ("hy-premise-only", _REL_SIG + "| R_p: R [g] [h] -> R [g, b:block (x:tm, u:aeq x x)] [];\n"),
        (
            "two-blocks",
            _REL_SIG + "| R_b: R [g] [h] -> "
            "R [g, b1:block (x:tm, u:aeq x x)] [h, b2:block (x:tm, u:aeq x x)];\n",
        ),
        (
            "dup-label",
            _REL_SIG + "| R_d: R [g] [h] -> "
            "R [g, b:block (x:tm, u:aeq x x), b:block (x:tm, u:aeq x x)] [h];\n",
        ),
        (
            "unknown-families",
            "%% Syntax\ntm: type.\n\n%% Judgments\naeq: j -> tm -> type.\nbeq: k -> tm -> type.\n\n"
            "%% Rules\nra: aeq M M.\nrb: beq M M.\n",
        ),
        # a directive error sits at the directive being applied: hy goes first
        ("directive-same-key", eq + "%% wf [ab] in nope\n%% wf [hy] in nope\n"),
        ("directive-target-order", eq + "%% wf [ab] in nope\n%% explicit [hy] in nada\n"),
        (
            "illtyped-theorem",
            eq.replace(
                "theorem reflG: {h:xaG}{M:tm} [h |- aeq M M];",
                "theorem reflG: {h:xaG}{M:tm} [h |- aeq (app M) (lam M)];\n"
                "theorem bad: {h:xaG}{M:tm} [h |- aeq (M M M) M] & (lam M) = app;",
            ),
        ),
        # the unknown families of a quantifier's type came in hash-seed order
        ("theorem-unknown-families", head + "theorem t: {M: foo -> bar -> baz} true;\n"),
        ("relation-premises-300", relation_premises(300)),
        # lint visits a clause's head first, then its premises from last to first
        (
            "relation-lint-order",
            _XG_SIG + "inductive R : {G:xG} {K:xG} prop =\n"
            "| R_c: R [G] [K] -> R [K] [G] -> R [G, b:block (x:tm), c:block (x:tm)] [K];\n",
        ),
        # ab and hy cannot translate a context made only of blocks
        ("closed-block-ctx", head + "theorem t: {h:xaG}{M:tm} [b:block (x:tm, u:aeq x x) |- aeq M M];\n"),
        # the lexer reports the first illegal character in source order
        ("two-illegal", "%% Syntax\ntm: type.\nc: # tm.\nd: ? tm ! @.\n"),
        # a %% after a token is a comment; a plain % comment is dropped
        ("mid-line-percent", "%% Syntax\ntm: type. %% Rules\nc: tm.\n"),
        ("plain-comment", "%% Syntax\ntm: type.\n% a comment\nc: tm.\n\n% another\n%% Judgments\n"),
        (
            "crlf-directives",
            "\r\n".join(line + " \t" if line.startswith("%%") else line for line in eq.split("\n")),
        ),
        ("blanks-only", " \t\r\n  \n\t"),
        # lint L2 printed a domain with the binders before it as _0, _1, ...
        (
            "l2-binder-names",
            _RULES_SIG + "k: t -> t -> type.\n\n%% Rules\n"
            "r3: {x:t} {d: j x x} k x x.\nr4: {y:t} ({d: j y y} {x:t} {e: k x y} j c0 c0) -> k y y.\n",
        ),
        *KIND_PROBES.items(),
        # a rule used as a term passed check, and ab wrote it with f unbound
        (
            "rule-as-term",
            _RULES_SIG + "\n%% Rules\nr0: {x:t} j x x.\nr1: j c0 c0 -> j c0 c0.\n"
            "r: {f: j c0 c0 -> t} j (f (r0 c0)) c0.\n",
        ),
        (
            "level1-var-as-term",
            _RULES_SIG + "\n%% Rules\nr: {d: j c0 c0} {f: j c0 c0 -> t} j (f d) c0.\n",
        ),
        # a '->' arm before a '<-' chain was taken into the chain's prefix
        ("arrow-then-backarrow", "%% Syntax\ntm: type.\n\n%% Judgments\nj: tm -> type <- tm.\n"),
        # a vacuous Pi and its arrow were two types: the first three were
        # rejected, and ab could not translate the arrow form of the fourth
        *VACUOUS_PROBES.items(),
        # a redex that mentions a schematic was normalised before it was typed
        ("schematic-omega", _RULES_SIG + "\n%% Rules\nr: j ((\\x. x x) (\\x. M (x x))) c0.\n"),
        # the schematic scan of a redex recursed once per nested redex
        ("nested-redexes", _RULES_SIG + "\n%% Rules\nr: j " + nested_redexes(1000) + " c0.\n"),
        # ab/hy named a rule's clause variable into a constant it shadows,
        # and rejected a Pi after a premise that check accepts
        *HOIST_PROBES.items(),
        # priming a label made one call per prime
        ("clashing-entry-labels", clashing_labels(8)),
    ]


# Theorem shapes for the formula layouts of ab/hy and bel: nesting,
# shadowing, lambdas, and each way a statement is rejected.
_THEOREMS = {
    "shadow": "{h:xaG}{M:tm} [h |- aeq M M] -> ({M:tm}{h:xaG} [h |- aeq M M]) & (<M:tm> [h |- aeq M M])",
    "lambdas": "{h:xaG}{M:tm}{N:tm} (lam (\\x. app M x)) = (lam (\\N. app N M)) & "
    "[h |- aeq (lam (\\x. app x N)) (lam (\\M. M))]",
    "exists": "<M:tm> {h:xaG} <N:tm> {g:xaG}{P:tm} [h |- aeq M N] -> [g |- aeq P P]",
    "two-ctxs": "{g:xaG}{h:xaG}{M:tm} [g |- aeq M M] & [h |- aeq M M]",
    "block-ctx": "{g:xaG}{M:tm} [g, b:block (x:tm, u:aeq x x) |- aeq M M]",
    "block-arg": "{g:xG}{h:xaG}{M:tm} Rxa [g, b:block (x:tm)] [h] -> [h |- aeq M M]",
    "non-atomic": "{g:xaG}{M:tm -> tm} [g |- aeq (M (lam (\\x. x))) (M (lam (\\y. y)))]",
    "no-ctx": "{M:tm} [|- aeq M M]",
    "no-ctx-nested": "true -> ({M:tm} [|- aeq M M])",
}

# Explicit variables and the contexts of the judgments that mention them:
# names shadowed, numbered or clashing with a constructor, context variables
# rebound, and the order of two W-CTX lines.  Each is (extra directives,
# statement) after eq.orbi's directives, which mark M explicit.
USAGE_PROBES = {
    "explicit-shadowed-right": ("", "{h:xaG}{M:tm} [h |- aeq M M] -> ({M:tm} [h |- aeq M M])"),
    "numbered-names-resume": (
        "",
        "{h:xaG}{M:tm}{M1:tm} [h |- aeq M M1] -> ({M:tm} [h |- aeq M M1])",
    ),
    "lower-case-twin": ("", "{h:xaG}{M:tm}{m:tm} [h |- aeq M m]"),
    "constructor-named": ("", "{h:xaG}{M:tm}{app:tm} [h |- aeq app M]"),
    "shadowed-context": (
        "",
        "{g:xaG}{h:xaG}{M:tm} [h |- aeq M M] -> ({h:xaG} [h |- aeq M M])",
    ),
    "context-rebound-inside": ("", "{g:xaG}{M:tm}{g:xaG} [g |- aeq M M]"),
    "nested-w-ctx": (
        "%% explicit [hy,ab,bel] in N\n",
        "{g:xaG}{h:xaG}{M:tm} [g |- aeq M M] -> "
        "({N:tm} [g |- aeq N N] -> [h |- aeq N N]) -> [h |- aeq M M]",
    ),
    # a term and a context variable named alike, a context named like a
    # constructor, a shadowed first context, a shadowed name handed out
    # again in one chain, an exists shadowing an explicit variable, and a
    # variable renamed inside a compound argument
    "term-and-context-named-alike": ("", "{h:xaG}{M:tm}{M:xaG} [h |- aeq M M]"),
    "context-named-like-constructor": ("", "{app:xaG}{M:tm} [app |- aeq (app M M) M]"),
    "first-context-shadowed": ("", "{g:xaG}{g:xaG}{M:tm} [|- aeq M M]"),
    "shadowed-name-handed-out": ("", "{g:xaG} true -> ({M:tm}{g:xaG}{g:xaG} [|- aeq M M])"),
    "exists-shadows-explicit": (
        "",
        "{g:xaG}{h:xaG}{M:tm} [g |- aeq M M] & (<M:tm> [h |- aeq M M])",
    ),
    "renamed-in-compound-argument": ("", "{h:xaG}{M:tm}{m:tm} [h |- aeq (app m m) M]"),
}

# A judgment, a rule and a relation of no arguments, next to an explicit
# rule whose only premise is its variable's wf guard.
NULLARY_PROBE = """%% Syntax
tm: type.
c: tm.

%% Judgments
j: type.
k: tm -> type.

%% Rules
r: j.
s: {x:tm} k x.

%% Definitions
inductive R : prop =
| r0: R;

%% Directives
%% wf [ab] in tm
%% explicit [ab] in s

%% Theorems
theorem t: R -> true;
"""

_VERDICT_SIG = "%% Syntax\ntm: type.\nc: tm.\n\n%% Judgments\nj: tm -> type.\nk: tm -> type.\n"

# Shapes that check, bel and tw accept and ab/hy once rejected: a premise's
# Pi over a judgment beside its arrow form, a higher-order explicit theorem
# variable and an empty relation argument (each a theorem after eq.orbi's
# directives, with the variable named first explicit); then block entries
# that hold a redex, and a wf family with no constructor.
VERDICT_PROBES = {
    "premise-pi-over-judgment": _VERDICT_SIG
    + "\n%% Rules\nr: ({D:j c} k c) -> k c.\ns: (j c -> k c) -> k c.\n",
    "explicit-higher-order": ("F", "{h:xaG}{F:tm -> tm} [h |- aeq (lam F) (lam F)]"),
    "empty-relation-argument": ("M", "{h:xaG}{M:tm} Rxa [] [h] -> [h |- aeq M M]"),
    "redex-in-block-entries": "%% Syntax\ntm: type.\n\n%% Judgments\naeq: tm -> tm -> type.\n\n"
    "%% Schemas\nschema xaG = block (x:tm, u:aeq ((\\y. y) x) x);\n\n%% Definitions\n"
    "inductive R : {g:xaG} prop =\n| R_nl: R []\n"
    "| R_cs: R [g] -> R [g, b:block (x:tm, u:aeq ((\\y. y) x) x)];\n\n"
    "%% Directives\n%% wf [ab,hy] in tm\n%% explicit [ab,hy] in xaG\n",
    "wf-no-constructor": "%% Syntax\ntm: type.\n\n%% Judgments\nj: tm -> type.\n\n"
    "%% Rules\nr: {x:tm} j x.\n\n%% Directives\n%% wf [ab,hy] in tm\n",
}


_ETA_SIG = (
    "%% Syntax\ntm: type.\napp: tm -> tm -> tm.\nlam: (tm -> tm) -> tm.\n\n"
    "%% Judgments\naeq: tm -> tm -> type.\n\n"
)

# LF's equality is beta-eta: an eta-long block entry beside the eta-short
# rule and theorem argument it equals, and a Pi from a type that ends in a
# level-0 family but mentions a judgment, whose arrow form is E-LEVEL.  The
# first probe, eq.orbi with xaG's entry eta-long and its clause blocks
# eta-short, is built in ``build_inputs``.
ETA_PROBES = {
    "eta-long-block-entry": _ETA_SIG + "%% Rules\nr: aeq (lam (\\y. app M y)) M.\n\n"
    "%% Schemas\nschema xaG = block (x:tm, u:aeq (lam (\\y. app x y)) x);\n\n"
    "%% Theorems\ntheorem t: {h:xaG}{M:tm} [h |- aeq (lam (\\y. app M y)) M];\n",
    "pi-over-judgment-to-level0": _VERDICT_SIG + "\n%% Rules\ns: {f: j c -> tm} k c.\n",
}

# Theorem contexts against their schemas, after eq.orbi's signature: a block
# whose entry labels repeat, arguments swapped between schemas, a block of
# another schema, and two controls, a fitting block and a closed context.
CONTEXT_THEOREMS = {
    "ctx-dup-entry-theorem": "{g:xG}{M:tm} [g, b:block (x:tm, x:tm) |- aeq M M]",
    "thm-schema-swap": "{g:xG}{h:xaG}{M:tm} Rxa [h] [g] -> [h |- aeq M M]",
    "thm-foreign-block": "{g:xG}{M:tm} [g, b:block (x:tm, u:aeq x x) |- aeq M M]",
    "thm-fitting-block": "{g:xaG}{M:tm} [g, b:block (x:tm, u:aeq x x) |- aeq M M]",
    "thm-closed-context": "{M:tm} [b:block (x:tm, u:aeq x x) |- aeq M M]",
}


def build_inputs() -> list:
    """(family, name, text) of every input, in a fixed order."""
    for path in (HERE, os.path.join(ROOT, "perfbench")):
        if path not in sys.path:
            sys.path.append(path)
    import oracle
    import specgen
    import workloads
    from orbi_forge.pretty import pretty

    ref = oracle.load_reference(ROOT)
    eq = ref.source
    lines = eq.split("\n")
    directives = [i for i, line in enumerate(lines) if line.startswith("%% ") and " in " in line]
    out = []
    for mask in range(1 << len(directives)):
        dropped = {i for k, i in enumerate(directives) if not mask >> k & 1}
        text = "\n".join(line for i, line in enumerate(lines) if i not in dropped)
        out.append(("eq", f"eq-{mask:03d}", text))
    out.append(("scaled", "scaled", workloads.scaled(ref, WORKLOAD_SEED).files[0].text))
    out += [("rules", f"rules-{f.name[:-5]}", f.text) for f in workloads.rules(WORKLOAD_SEED).files]
    for seed in SPECGEN_SEEDS:
        out.append(("gen-rules", f"gr-{seed}", specgen.gen_rules_source(random.Random(seed), 6)[0]))
    for seed in SPECGEN_SEEDS:
        # one rule each, so that about half of them check
        out.append(("gen-noisy", f"gn-{seed}", specgen.gen_noisy_rules_source(random.Random(seed), 1)))
    for seed in SPECGEN_SEEDS:
        out.append(("gen-spec", f"gs-{seed}", pretty(specgen.gen_spec(random.Random(seed)))))
    for seed in SPECGEN_SEEDS:
        out.append(("gen-ctx", f"gc-{seed}", specgen.gen_ctx_source(random.Random(seed))))
    for seed in SPECGEN_SEEDS:
        rng = random.Random(seed)
        a, b = (pretty(specgen.gen_tm_term(rng, 3)) for _ in range(2))
        thm = f"theorem tm: {{h:xaG}}{{M:tm}} [h |- aeq M ({a})] -> ({a}) = ({b}) || [h |- aeq M M];\n"
        out.append(("gen-tm", f"gt-{seed}", eq + thm))
    head = "\n".join(lines[:45]) + "\n\n%% Theorems\n"
    out += [("probe", f"probe-{name}", text) for name, text in _probes(eq, head)]
    out += [("thm", f"thm-{name}", f"{head}theorem t: {s};\n") for name, s in _THEOREMS.items()]
    # last, so that adding them added lines at the end of the manifest only
    top = "\n".join(lines[:45]) + "\n"  # eq.orbi up to its last directive
    for name, (extra, s) in USAGE_PROBES.items():
        out.append(("probe", f"probe-{name}", f"{top}{extra}\n%% Theorems\ntheorem t: {s};\n"))
    out.append(("probe", "probe-nullary", NULLARY_PROBE))
    for name, text in VERDICT_PROBES.items():
        if type(text) is tuple:  # (explicit variable, theorem statement)
            directives = top.replace(" in M\n", f" in {text[0]}\n")
            text = f"{directives}\n%% Theorems\ntheorem t: {text[1]};\n"
        out.append(("probe", f"probe-{name}", text))
    out += [("probe", f"probe-{name}", text) for name, text in CAPTURE_PROBES.items()]
    eta = eq.replace(
        "schema xaG = block (x:tm, u:aeq x x);",
        "schema xaG = block (x:tm, u:aeq (lam (\\y. app x y)) x);",
    ).replace("[h, b:block (x:tm, u:aeq x x)]", "[h, b:block (x:tm, u:aeq (lam (app x)) x)]")
    out.append(("probe", "probe-eta-block-matching", eta))
    out += [("probe", f"probe-{name}", text) for name, text in ETA_PROBES.items()]
    # a relation clause's block whose entry labels repeat, as no schema block may
    dup_entry = (
        eq.replace("schema daG", "schema tmG = block (x:tm, y:tm);\nschema daG")
        .replace("%% explicit [hy] in daG\n", "%% explicit [hy] in daG\n%% explicit [ab] in tmG\n")
        .replace(
            "\n\n%% Directives",
            "\n\ninductive Rt : {g:tmG} prop =\n| Rt_nl: Rt []\n"
            "| Rt_cs: Rt [g] -> Rt [g, b:block (x:tm, x:tm)];\n\n%% Directives",
        )
    )
    out.append(("probe", "probe-ctx-dup-entry-relation", dup_entry))
    out += [("probe", f"probe-{name}", f"{head}theorem t: {s};\n") for name, s in CONTEXT_THEOREMS.items()]
    return out


def slice_inputs(inputs: list) -> list:
    """The inputs of the tier-1 slice: every probe and theorem shape and
    every other remaining input, but not the large ``scaled`` file."""
    whole = ("probe", "thm")
    rest = [x for x in inputs if x[0] not in (*whole, "scaled")]
    return rest[::2] + [x for x in inputs if x[0] in whole]


def _digest(rc, stdout: str, stderr: str, output) -> str:
    blob = json.dumps([rc, stdout, stderr, output], ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def run_records(inputs: list) -> dict:
    """Digest of each (input, command) record, keyed ``family/name/command``."""
    from orbi_forge.cli import run

    records = {}
    saved_cwd, saved_color = os.getcwd(), os.environ.get("ORBI_COLOR")
    with tempfile.TemporaryDirectory() as tmp:
        in_dir, out_dir = os.path.join(tmp, "in"), os.path.join(tmp, "out")
        os.makedirs(in_dir)
        os.makedirs(out_dir)
        os.environ["ORBI_COLOR"] = "never"
        try:
            os.chdir(in_dir)
            for family, name, text in inputs:
                path = f"{name}.orbi"
                with open(path, "w", encoding="utf-8") as f:
                    f.write(text)
                for label, argv in COMMANDS.items():
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        try:
                            rc = run([*argv, path])
                        except Exception as e:  # a traceback is a result too
                            rc = f"raised {type(e).__name__}: {e}".replace(tmp, "<tmp>")
                    output = None
                    if label in TARGETS:
                        target = os.path.join(out_dir, f"{name}.{label}.out")
                        if os.path.exists(target):
                            with open(target, encoding="utf-8") as f:
                                output = f.read()
                            os.remove(target)
                    records[f"{family}/{name}/{label}"] = _digest(
                        rc, out.getvalue(), err.getvalue(), output
                    )
        finally:
            os.chdir(saved_cwd)
            if saved_color is None:
                os.environ.pop("ORBI_COLOR", None)
            else:
                os.environ["ORBI_COLOR"] = saved_color
    return records


def read_manifest(path: str = MANIFEST) -> dict:
    with open(path, encoding="utf-8") as f:
        return dict(line.split() for line in f if line.strip())


def write_manifest(records: dict, path: str = MANIFEST) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(f"{key} {digest}\n" for key, digest in records.items())


def differing(got: dict, want: dict) -> dict:
    """Family -> keys of the records whose digests differ or exist on one side only."""
    groups: dict = {}
    for key in sorted(got.keys() | want.keys()):
        if got.get(key) != want.get(key):
            groups.setdefault(key.split("/", 1)[0], []).append(key)
    return groups


def _report(groups: dict) -> int:
    for family, keys in groups.items():
        print(f"{family}: {len(keys)} records differ")
        for key in keys:
            print(f"  {key}")
    if not groups:
        print("no record differs")
    return 1 if groups else 0


def _run_revision(rev: str, inputs: list) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "-C", ROOT, "archive", "--format=tar", rev, "src"],
            capture_output=True,
            check=True,
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        inputs_path = os.path.join(tmp, "inputs.json")
        with open(inputs_path, "w", encoding="utf-8") as f:
            json.dump(inputs, f)
        child = subprocess.run(
            [sys.executable, __file__, "--src", os.path.join(tmp, "src"), "--inputs", inputs_path],
            capture_output=True,
            text=True,
            check=True,
        )
    return dict(line.split() for line in child.stdout.splitlines() if line.strip())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true", help="rewrite the manifest")
    mode.add_argument("--against", metavar="REV", help="compare with another revision")
    p.add_argument("--src", default=os.path.join(ROOT, "src"), help=argparse.SUPPRESS)
    p.add_argument("--inputs", help=argparse.SUPPRESS)  # a child of --against: print its records
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    if args.inputs:
        with open(args.inputs, encoding="utf-8") as f:
            records = run_records([tuple(x) for x in json.load(f)])
        for key, digest in records.items():
            print(key, digest)
        return 0
    inputs = build_inputs()
    records = run_records(inputs)
    if args.write:
        write_manifest(records)
        print(f"wrote {len(records)} records to {os.path.relpath(MANIFEST)}")
        return 0
    want = _run_revision(args.against, inputs) if args.against else read_manifest()
    return _report(differing(records, want))


if __name__ == "__main__":
    sys.exit(main())
