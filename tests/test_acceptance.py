"""Acceptance gate: one test per criterion, each printing a PASS line."""

import random
import time

import pytest

import lamoracle
from conftest import golden
from helpers import check_all, closed_decl, make_spec
from orbi_forge import (
    check_signature,
    check_spec,
    corpus_source,
    normalize,
    parse_spec,
    spec_alpha_equal,
)
from orbi_forge.directives import AnnotationTable
from orbi_forge.errors import OrbiError
from orbi_forge.lf import _infer
from orbi_forge.lint import lint
from orbi_forge.pretty import pretty, term_str
from orbi_forge.syntax import Arrow, AtomApp, Pi
from orbi_forge.translate import erase_clause, translate_rule, translate_spec
from specgen import gen_rules_source, gen_spec, gen_tm_term


def _report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_golden_corpus_checks_clean():
    started = time.perf_counter()
    spec = parse_spec(corpus_source())
    checked = check_spec(spec)
    warnings = lint(checked)
    elapsed = time.perf_counter() - started
    assert len(spec.syntax_decls) == 3
    assert len(spec.judgment_decls) == 2
    assert len(spec.rules) == 8
    assert len(spec.schemas) == 4
    assert {d.name for d in spec.definitions} == {"Rxa", "Rda"}
    assert [t.name for t in spec.theorems] == ["reflG", "ceqG", "reflR", "ceqR"]
    assert warnings == []
    assert elapsed < 1.0
    _report(1, f"corpus parses and checks cleanly in {elapsed * 1000:.0f} ms")


_GOLDENS = [
    ("ab", "ae_l", "ae_l.ab.golden"),
    ("ab", "de_l", "de_l.ab.golden"),
    ("ab", "de_r", "de_r.ab.golden"),
    ("ab", "xaG", "xaG.ab.golden"),
    ("ab", "reflG", "reflG.ab.golden"),
    ("hy", "daG", "daG.hy.golden"),
    ("bel", "reflG", "reflG.bel.golden"),
]


def test_criterion_2_verbatim_reproduction(checked):
    docs = {t: translate_spec(checked, t) for t in ("ab", "hy", "bel")}
    for target, tag, name in _GOLDENS:
        assert docs[target].block(tag) + "\n" == golden(name), name
    _report(2, f"{len(_GOLDENS)} golden outputs reproduced byte-exactly")


def test_criterion_3_erasure_property(checked):
    cases = 0
    explicit = AnnotationTable(
        "ab",
        frozenset({"tm"}),
        frozenset(e.decl.name for e in checked.sig.rules()),
    )
    implicit = AnnotationTable("ab", frozenset({"tm"}))
    for entry in checked.sig.rules():
        full = translate_rule(checked.sig, entry, explicit)
        bare = translate_rule(checked.sig, entry, implicit)
        assert erase_clause(full) == bare, entry.decl.name
        assert full.render() != "" and bare.render() != ""
        cases += 1
    rng = random.Random(2024)
    source, names = gen_rules_source(rng, 20)
    gen_checked = check_all(source)
    ex = AnnotationTable("ab", frozenset({"t"}), frozenset(names))
    im = AnnotationTable("ab", frozenset({"t"}))
    for entry in gen_checked.sig.rules():
        full = translate_rule(gen_checked.sig, entry, ex)
        bare = translate_rule(gen_checked.sig, entry, im)
        assert erase_clause(full) == bare, entry.decl.name
        cases += 1
    assert cases == 28
    _report(3, f"erasure held on {cases}/28 rules (8 corpus + 20 generated)")


# (description, unique find string, replacement, expected diagnostic code)
_MUTANTS = [
    ("unknown family in judgment", "aeq: tm -> tm -> type.", "aeq: tm -> tm2 -> type.", "E-UNBOUND"),
    ("syntax family with indexed kind", "app: tm -> tm -> tm.", "app: tm -> tm -> type.", "E-LEVEL"),
    ("unknown family in first decl", "tm: type.", "tm: typ.", "E-UNBOUND"),
    ("reserved type inside a type", "lam: (tm -> tm) -> tm.", "lam: (tm -> type) -> tm.", "E-LEVEL"),
    ("constant declared in Judgments", "aeq: tm -> tm -> type.", "aeq: tm -> tm -> tm.", "E-LEVEL"),
    (
        "over-applied constructor",
        "aeq (app M1 M2) (app N1 N2).",
        "aeq (app M1 M2) (app N1 N2 N2).",
        "E-TYPE",
    ),
    ("under-applied judgment", "de_r: deq M M.", "de_r: deq M.", "E-KIND"),
    ("unknown judgment in rule", "({x:tm} aeq x x", "({x:tm} aqe x x", "E-UNBOUND"),
    ("non-pattern schematic spine", "de_s: deq N M -> deq M N.", "de_s: deq N M -> deq M (N M).", "E-RECON"),
    ("rule targeting level-0 family", "de_r: deq M M.", "de_r: tm.", "E-LEVEL"),
    ("over-applied judgment in rule", "de_t: deq M L -> deq L N -> deq M N.", "de_t: deq M L -> deq L N -> deq M N N.", "E-KIND"),
    ("unbound variable in block", "schema xaG = block (x:tm, u:aeq x x);", "schema xaG = block (x:tm, u:aeq x y);", "E-UNBOUND"),
    ("duplicate label in block", "schema xaG = block (x:tm, u:aeq x x);", "schema xaG = block (x:tm, x:aeq x x);", "E-DUP"),
    ("under-applied judgment in block", "schema xaG = block (x:tm, u:aeq x x);", "schema xaG = block (x:tm, u:aeq x);", "E-KIND"),
    ("duplicate schema name", "schema xG = block (x:tm);", "schema xaG = block (x:tm);", "E-DUP"),
    ("schema shadows signature name", "schema xG = block (x:tm);", "schema tm = block (x:tm);", "E-DUP"),
    (
        "deq block in an xaG position",
        "Rxa [g, b:block (x:tm)] [h, b:block (x:tm, u:aeq x x)]",
        "Rxa [g, b:block (x:tm)] [h, b:block (x:tm, u:deq x x)]",
        "E-SCHEMA",
    ),
    (
        "swapped blocks in relation clause",
        "Rxa [g, b:block (x:tm)] [h, b:block (x:tm, u:aeq x x)]",
        "Rxa [g, b:block (x:tm, u:aeq x x)] [h, b:block (x:tm)]",
        "E-SCHEMA",
    ),
    (
        "relation block matching wrong schema",
        "Rda [g, b:block (x:tm, u:deq x x)]",
        "Rda [g, b:block (x:tm)]",
        "E-SCHEMA",
    ),
    ("premise arity", "Rxa [g] [h] -> Rxa [g,", "Rxa [g] -> Rxa [g,", "E-ARITY"),
    ("unknown schema in definition", "inductive Rxa : {g:xG} {h:xaG} prop =", "inductive Rxa : {g:xGG} {h:xaG} prop =", "E-NO-SCHEMA"),
    ("unknown relation in premise", "| Rxa_cs: Rxa [g] [h]", "| Rxa_cs: Rxb [g] [h]", "E-NO-RELATION"),
    ("unknown schema in theorem", "theorem ceqG: {g:daG}", "theorem ceqG: {g:daGG}", "E-NO-SCHEMA"),
    ("level violation in theorem quantifier", "theorem ceqG: {g:daG}{M:tm}{N:tm}", "theorem ceqG: {g:daG}{M:aeq}{N:tm}", "E-LEVEL"),
    ("unbound term variable in theorem", "[h |- aeq M M];\ntheorem ceqG", "[h |- aeq M Z];\ntheorem ceqG", "E-UNBOUND"),
    ("judgment arity in theorem", "{g:xG}{h:xaG}{M:tm} Rxa [g] [h] -> [h |- aeq M M];", "{g:xG}{h:xaG}{M:tm} Rxa [g] [h] -> [h |- aeq M];", "E-ARITY"),
    ("relation arity in theorem", "Rxa [g] [h] -> [h |- aeq M M];", "Rxa [g] -> [h |- aeq M M];", "E-ARITY"),
    ("unknown relation in theorem", "Rxa [g] [h] -> [h |- aeq M M];", "Rxz [g] [h] -> [h |- aeq M M];", "E-NO-RELATION"),
    ("unbound context variable in theorem", "Rxa [g] [h] -> [h |- aeq M M];", "Rxa [g] [k] -> [h |- aeq M M];", "E-UNBOUND"),
    ("conflicting directives", "%% explicit [hy] in daG", "%% implicit [hy] in de_l", "E-CONFLICT"),
    ("unknown wf destination", "%% wf [hy,ab] in tm", "%% wf [hy,ab] in tmm", "E-DEST"),
    ("unknown relation parameter dest", "%% explicit [hy,ab] in [g]", "%% explicit [hy,ab] in [q]", "E-DEST"),
    ("unknown target system", "%% wf [hy,ab] in tm", "%% wf [hy,xb] in tm", "E-DIR"),
    ("missing declaration terminator", "de_r: deq M M.", "de_r: deq M M", "E-PARSE"),
    ("illegal character", "de_r: deq M M.", "de_r: deq M M?.", "E-LEX"),
]


@pytest.mark.parametrize("desc,find,replace,code", _MUTANTS, ids=[m[0] for m in _MUTANTS])
def test_criterion_4_mutants_rejected(desc, find, replace, code, corpus_text):
    assert corpus_text.count(find) == 1, f"mutation anchor not unique: {desc}"
    mutant = corpus_text.replace(find, replace)
    with pytest.raises(OrbiError) as exc:
        check_all(mutant)
    assert exc.value.code == code, desc


def test_criterion_4_summary(corpus_text):
    assert len(_MUTANTS) >= 30
    rejected = 0
    for desc, find, replace, code in _MUTANTS:
        try:
            check_all(corpus_text.replace(find, replace))
        except OrbiError as e:
            if e.code == code:
                rejected += 1
    assert rejected == len(_MUTANTS)
    _report(4, f"{rejected}/{len(_MUTANTS)} seeded mutants rejected with expected codes")


def test_criterion_5_roundtrip(corpus_spec):
    again = parse_spec(pretty(corpus_spec))
    assert spec_alpha_equal(corpus_spec, again)
    rng = random.Random(5)
    for i in range(100):
        spec = gen_spec(rng)
        text = pretty(spec)
        reparsed = parse_spec(text)
        assert spec_alpha_equal(spec, reparsed), f"case {i}\n{text}"
    _report(5, "parse.pretty identity held on the corpus and 100 generated specs")


def test_criterion_6_reconstruction(checked):
    ae_a = checked.sig.entries["ae_a"]
    assert ae_a.implicit == ("M1", "N1", "M2", "N2")
    tp = closed_decl(ae_a).tp
    for _ in range(4):
        assert isinstance(tp, Pi) and tp.dom == AtomApp("tm")
        tp = tp.cod
    ae_l = checked.sig.entries["ae_l"]
    assert ae_l.implicit == ("M", "N")
    tp = closed_decl(ae_l).tp
    for _ in range(2):
        assert isinstance(tp, Pi) and tp.dom == Arrow(AtomApp("tm"), AtomApp("tm"))
        tp = tp.cod
    _report(6, "ae_a reconstructs {M1,N1,M2,N2}:tm and ae_l {M,N}:tm -> tm")


_DEQ = make_spec(
    syntax="tm: type.\napp: tm -> tm -> tm.\nlam: (tm -> tm) -> tm.",
    judgments="deq: tm -> tm -> type.",
    rules="de_r: deq M M.",
)


def test_criterion_7_normalization_invariants(checked):
    rng = random.Random(77)
    violations = 0
    for i in range(500):
        t = gen_tm_term(rng, 5)
        n = normalize(t)
        if normalize(n) != n or _infer(checked.sig, [], t) != _infer(checked.sig, [], n):
            violations += 1
            continue
        if i % 5:
            continue
        # through check: a rule types the term as written and stores it
        # beta-normal, with its normal form, and de_r used as a term is
        # rejected at its head
        written = term_str(t, [], atom=True)
        rule = check_signature(parse_spec(_DEQ + f"r: deq {written} {written}.\n")).entries["r"]
        stored = rule.decl.tp
        if normalize(stored) != AtomApp("deq", (n, n)) or not all(
            lamoracle.beta_normal(lamoracle.from_core(a)) for a in stored.args
        ):
            violations += 1
        with pytest.raises(OrbiError) as exc:
            check_signature(parse_spec(_DEQ + f"r: deq (de_r {written}) {written}.\n"))
        if (exc.value.code, exc.value.message) != ("E-TYPE", "rule 'de_r' used as a term"):
            violations += 1
    assert violations == 0
    _report(7, "normalize idempotent and subject reduction agreed on 500 terms")
