import os
import subprocess
import sys
import time

import pytest

import orbi_forge
from helpers import check_all, first_error_code, make_spec, raises_code
from orbi_forge import parse_spec
from orbi_forge.errors import OrbiError
from orbi_forge.contexts import (
    check_ctx_pattern,
    check_spec,
    check_inductive_def,
    check_schema,
    scope_check_theorem,
)
from orbi_forge.syntax import AtomApp, Block, CtxPattern, Var


def test_check_schema_dependent_block(checked):
    # u's type uses the earlier x entry
    assert "xaG" in checked.schemas
    block = checked.schemas["xaG"].alternatives[0]
    assert block.entries[1][1] == AtomApp("aeq", (Var(0), Var(0)))


def test_check_schema_alternatives():
    src = make_spec(
        syntax="tm: type.\ntp: type.",
        judgments="aeq: tm -> tm -> type.\natp: tp -> tp -> type.",
        schemas=(
            "schema xG = block (x:tm) + block (a:tp);\n"
            "schema xaG = block (x:tm, u:aeq x x) + block (a:tp, v:atp a a);"
        ),
    )
    checked = check_all(src)
    assert len(checked.schemas["xG"].alternatives) == 2
    assert len(checked.schemas["xaG"].alternatives) == 2


def test_check_schema_unbound_variable():
    src = make_spec(
        syntax="tm: type.",
        judgments="aeq: tm -> tm -> type.",
        schemas="schema bad = block (u:aeq x x);",
    )
    with raises_code("E-UNBOUND"):
        check_all(src)


def test_check_schema_duplicate_label(checked):
    from orbi_forge.syntax import Schema

    bad = Schema("zz", (Block((("x", AtomApp("tm")), ("x", AtomApp("tm")))),))
    with raises_code("E-DUP"):
        check_schema(checked.sig, bad)


# ------------------------------------------------------------- ctx patterns


def test_ctx_pattern_block_instance(checked):
    pat = CtxPattern("h", (("b", checked.schemas["xaG"].alternatives[0]),))
    check_ctx_pattern(checked.sig, checked.schemas, "xaG", pat, {"h": "xaG"}, "clause 'c'")


def test_empty_ctx_inhabits_every_schema(checked):
    for name in checked.schemas:
        check_ctx_pattern(checked.sig, checked.schemas, name, CtxPattern(), {}, "clause 'c'")


def test_ctx_pattern_schema_mismatch(checked):
    deq_block = checked.schemas["xdG"].alternatives[0]
    pat = CtxPattern("g", (("b", deq_block),))
    with raises_code("E-SCHEMA"):
        check_ctx_pattern(checked.sig, checked.schemas, "xaG", pat, {"g": "xaG"}, "clause 'c'")


def test_ctx_pattern_unknown_var(checked):
    with raises_code("E-CTXVAR"):
        check_ctx_pattern(checked.sig, checked.schemas, "xaG", CtxPattern("nope"), {}, "clause 'c'")


def test_ctx_var_wrong_schema(checked):
    with raises_code("E-SCHEMA"):
        check_ctx_pattern(
            checked.sig, checked.schemas, "xaG", CtxPattern("g"), {"g": "xG"}, "clause 'c'"
        )


def test_block_matching_invariant_under_label_renaming(checked):
    xa = checked.schemas["xaG"].alternatives[0]
    renamed = Block((("y", xa.entries[0][1]), ("w", xa.entries[1][1])))
    pat = CtxPattern("h", (("b", renamed),))
    check_ctx_pattern(checked.sig, checked.schemas, "xaG", pat, {"h": "xaG"}, "clause 'c'")


@pytest.mark.parametrize(
    "alt, pattern, code",
    [
        ("aeq x x", r"aeq ((\y. y) x) x", None),
        (r"aeq ((\y. y) x) x", "aeq x x", None),
        ("aeq x x", "aeq x (app x x)", "E-SCHEMA"),
        (r"aeq ((\y. y) x) x", "aeq x (app x x)", "E-SCHEMA"),
        # and up to eta, in either direction, but no further
        (r"aeq (lam (\y. app x y)) x", "aeq (lam (app x)) x", None),
        ("aeq (lam (app x)) x", r"aeq (lam (\y. app x y)) x", None),
        (r"aeq (lam (\y. app y x)) x", "aeq (lam (app x)) x", "E-SCHEMA"),
    ],
)
def test_block_matching_up_to_beta(alt, pattern, code):
    # blocks match modulo beta-eta, LF's definitional equality
    src = make_spec(
        syntax="tm: type.\napp: tm -> tm -> tm.\nlam: (tm -> tm) -> tm.",
        judgments="aeq: tm -> tm -> type.",
        schemas=f"schema xaG = block (x:tm, u:{alt});",
        definitions=(
            "inductive R : {h:xaG} prop =\n"
            "| R_nl: R []\n"
            f"| R_cs: R [h] -> R [h, b:block (x:tm, u:{pattern})];"
        ),
    )
    assert first_error_code(src) == code


# ---------------------------------------------------------------- relations


def test_corpus_relations_check(checked):
    assert set(checked.relations) == {"Rxa", "Rda"}


def test_relation_swapped_blocks_rejected(checked):
    src = make_spec(
        syntax="tm: type.",
        judgments="aeq: tm -> tm -> type.",
        schemas="schema xG = block (x:tm);\nschema xaG = block (x:tm, u:aeq x x);",
        definitions=(
            "inductive Rxa : {g:xG} {h:xaG} prop =\n"
            "| Rxa_nl: Rxa [] []\n"
            "| Rxa_cs: Rxa [g] [h] -> "
            "Rxa [g, b:block (x:tm, u:aeq x x)] [h, b:block (x:tm)];"
        ),
    )
    with raises_code("E-SCHEMA"):
        check_all(src)


@pytest.mark.parametrize(
    "head, code",
    [
        pytest.param(
            "R [g, b:block (x:tm, u:aeq x x), b:block (x:tm, u:aeq x x)] [h]",
            "E-DUP",
            id="one-context",
        ),
        pytest.param(
            "R [g, b:block (x:tm, u:aeq x x)] [h, b:block (x:tm, u:aeq x x)]",
            None,
            id="two-contexts",
        ),
    ],
)
def test_block_label_once_per_context(head, code):
    src = make_spec(
        syntax="tm: type.",
        judgments="aeq: tm -> tm -> type.",
        schemas="schema xaG = block (x:tm, u:aeq x x);",
        definitions=(
            "inductive R : {g:xaG} {h:xaG} prop =\n"
            "| R_nl: R [] []\n"
            f"| R_cs: R [g] [h] -> {head};"
        ),
    )
    assert first_error_code(src) == code
    if code:
        with raises_code("E-DUP") as exc:
            check_all(src)
        assert exc.value.loc == parse_spec(src).definitions[0].loc


def test_relation_premise_must_be_bare_vars(checked):
    from orbi_forge.syntax import InductiveDef, RelApp

    pat = CtxPattern(None, (("b", checked.schemas["xG"].alternatives[0]),))
    bad = InductiveDef(
        "R2",
        (("g", "xG"),),
        (("R2_c", (RelApp("R2", (pat,)),), RelApp("R2", (CtxPattern("g"),))),),
    )
    with raises_code("E-SHAPE"):
        check_inductive_def(checked.sig, checked.schemas, {}, bad)


@pytest.mark.parametrize(
    "definition, code, message",
    [
        pytest.param(
            "inductive R : {g:xG} {g:xG} prop =\n| R_nl: R [] [];",
            "E-DUP",
            "duplicate context parameter 'g'",
            id="duplicate-parameter",
        ),
        pytest.param(
            "inductive S : {g:xG} prop =\n| S_nl: S [];\n\n"
            "inductive R : {g:xG} prop =\n| R_nl: R []\n| R_c: S [g];",
            "E-SHAPE",
            "clause 'R_c' must conclude with the relation being defined",
            id="foreign-head",
        ),
        pytest.param(
            "inductive R : {g:xG} {h:xaG} prop =\n| R_c: R [g] [g] -> R [g] [h];",
            "E-SCHEMA",
            "context variable 'g' used at schemas 'xG' and 'xaG'",
            id="premise-schemas",
        ),
        pytest.param(
            "inductive R : {g:xG} {h:xaG} prop =\n| R_c: R [g];",
            "E-ARITY",
            "relation 'R' expects 2 context arguments, got 1",
            id="head-arity",
        ),
        pytest.param(
            "inductive R : {g:xG} prop =\n| R_nl: R [];\n\ninductive R : {g:xG} prop =\n| R_nl: R [];",
            "E-DUP",
            "duplicate declaration of 'R'",
            id="duplicate-relation",
        ),
        pytest.param(
            "inductive Rxa : {g:xG} {h:xaG} prop =\n"
            "| Rxa_cs: Rxa [] [h] -> Rxa [g, b:block (x:tm)] [h, b:block (x:tm, u:aeq x x)];",
            "E-SHAPE",
            "premise context arguments of clause 'Rxa_cs' must be bare context variables",
            id="empty-premise-context",
        ),
        pytest.param(
            "inductive R : {g:xG} prop =\n| R_c: R [g] -> R [g, b:block (x:tm, x:tm)];",
            "E-DUP",
            "duplicate label 'x' in block 'b' of clause 'R_c'",
            id="duplicate-entry-label",
        ),
    ],
)
def test_relation_clause_diagnostics(definition, code, message):
    src = make_spec(
        syntax="tm: type.",
        judgments="aeq: tm -> tm -> type.",
        schemas="schema xG = block (x:tm);\nschema xaG = block (x:tm, u:aeq x x);",
        definitions=definition,
    )
    assert first_error_code(src) == code
    with raises_code(code) as exc:
        check_all(src)
    assert exc.value.diagnostics[0].message == message


# ---------------------------------------------------------------- theorems


def test_scope_check_corpus_theorems(checked):
    assert [t.name for t in checked.theorems] == ["reflG", "ceqG", "reflR", "ceqR"]


def test_scope_check_trivial_truth(checked):
    spec = parse_spec(make_spec(theorems="theorem t: true;"))
    scope_check_theorem(checked.sig, checked.schemas, checked.relations, spec.theorems[0])


def test_scope_check_reports_all_diagnostics(checked):
    spec = parse_spec(make_spec(theorems="theorem bad: {g:noSuch} [g |- aeq M M];"))
    with raises_code("E-NO-SCHEMA") as exc:
        scope_check_theorem(checked.sig, checked.schemas, checked.relations, spec.theorems[0])
    codes = {d.code for d in exc.value.diagnostics}
    assert codes == {"E-NO-SCHEMA", "E-UNBOUND"}


def test_scope_check_stable_under_renaming(checked):
    spec = parse_spec(make_spec(theorems="theorem r2: {k:xaG}{P:tm} [k |- aeq P P];"))
    scope_check_theorem(checked.sig, checked.schemas, checked.relations, spec.theorems[0])


def test_bare_theorem_contexts_make_no_pattern_check(checked, monkeypatch):
    # a context variable at the schema it is bound with has nothing left to
    # check, in a judgment and as a relation argument: eq.orbi's theorems
    # have only such contexts, and checking them would cost a call each
    seen = []
    monkeypatch.setattr(orbi_forge.contexts, "check_ctx_pattern", lambda *a: seen.append(a))
    for t in checked.theorems:
        scope_check_theorem(checked.sig, checked.schemas, checked.relations, t)
    assert seen == []


def test_theorem_block_entry_after_untypable_redex(checked):
    # the ill-typed entry is not normalised, so it is reported instead of
    # exhausting the stack, and the entry that depends on it is not
    block = r"block (x:tm, u:aeq ((\y. y y) (\y. y y)) x, v:aeq u x)"
    spec = parse_spec(make_spec(theorems=f"theorem t: {{M:tm}} [b:{block} |- aeq M M];"))
    with raises_code("E-TYPE") as exc:
        scope_check_theorem(checked.sig, checked.schemas, checked.relations, spec.theorems[0])
    assert [d.message for d in exc.value.diagnostics] == ["cannot infer the type of a bare lambda"]


@pytest.mark.parametrize(
    "entry, message",
    [
        ("u:foo, v:aeq u x", "unknown type family 'foo'"),
        ("u:aeq x, v:aeq u x", "type family 'aeq' is not fully applied"),
        ("u:tm -> foo, v:aeq (u x) x", "unknown type family 'foo'"),
    ],
    ids=["unknown-family", "partial-family", "unknown-codomain"],
)
def test_theorem_block_entry_that_failed_is_reported_once(entry, message, checked):
    # a use of the variable of an entry whose type failed to check is of any
    # type, so it adds no diagnostic of its own, applied or not
    block = f"block (x:tm, {entry})"
    spec = parse_spec(make_spec(theorems=f"theorem t: {{M:tm}} [b:{block} |- aeq M M];"))
    with pytest.raises(OrbiError) as exc:
        scope_check_theorem(checked.sig, checked.schemas, checked.relations, spec.theorems[0])
    assert [d.message for d in exc.value.diagnostics] == [message]


@pytest.mark.parametrize(
    "sections",
    [
        {"schemas": "schema s = block (x:tm, u:aeq x x, v:aeq u x);"},
        {"schemas": "schema s = block (x:tm, u:ok, v:aeq u x);"},
        {"schemas": "schema s = block (x:tm, u:{y:tm} aeq y y, v:aeq (u x) x);"},
        {
            "schemas": "schema s = block (x:tm, u:aeq x x);",
            "definitions": "inductive R : {g:s} prop =\n"
            "| R_c: R [g] -> R [g, b:block (x:tm, u:aeq x x, v:aeq u x)];",
        },
        {"theorems": "theorem t: {M:tm} [b:block (x:tm, u:aeq x x, v:aeq u x) |- aeq M M];"},
    ],
    ids=["schema", "argument-free-atom", "pi-entry", "ctx-pattern", "theorem-block"],
)
def test_block_entry_of_level1_type_is_no_term(sections):
    # a block entry's variable of a level-1 type is rejected where it is
    # used as a term, in the shape a rule's Pi-bound one is
    src = make_spec(syntax="tm: type.", judgments="aeq: tm -> tm -> type.\nok: type.", **sections)
    with raises_code("E-TYPE") as exc:
        check_all(src)
    assert [d.message for d in exc.value.diagnostics] == [
        "a variable of a non-level-0 type used as a term"
    ]


@pytest.mark.parametrize(
    "sections, code, message",
    [
        pytest.param(
            {"schemas": "schema xG = block (x:tm, u:aeq (\\y. y) x);"},
            "E-TYPE",
            "expected tm, got a lambda",
            id="schema-entry-lambda",
        ),
        pytest.param(
            {"theorems": "theorem t: true;\ntheorem t: true;"},
            "E-DUP",
            "duplicate theorem 't'",
            id="duplicate-theorem",
        ),
    ],
)
def test_declaration_diagnostics(sections, code, message):
    src = make_spec(syntax="tm: type.", judgments="aeq: tm -> tm -> type.", **sections)
    with raises_code(code) as exc:
        check_all(src)
    assert exc.value.diagnostics[0].message == message


@pytest.mark.parametrize(
    "statement, diagnostics",
    [
        pytest.param(
            "{h:xaG} ({M:tm} [h |- aeq M M]) & [h |- aeq M M]",
            [("E-UNBOUND", "unbound term variable 'M'")],
            id="out-of-scope",
        ),
        pytest.param(
            "{h:xaG}{M:tm tm} [h |- aeq M M]",
            [("E-KIND", "type family 'tm' applied to too many arguments")],
            id="over-applied-quantifier-type",
        ),
        pytest.param(
            "{h:xaG}{M:tm} [h |- Rxa M]",
            [("E-UNBOUND", "unknown judgment 'Rxa'")],
            id="relation-as-judgment",
        ),
        pytest.param(
            "{h:xaG}{M:tm} [h |- tm]",
            [("E-LEVEL", "judgment head 'tm' is not a level-1 family")],
            id="level0-judgment-head",
        ),
        pytest.param(
            "{h:xaG}{M:tm} [h |- aeq N N] & [h |- aeq N M]",
            [("E-UNBOUND", "unbound term variable 'N'")],
            id="reported-once",
        ),
        pytest.param(
            "{h:xaG}{M:aeq} true",
            [("E-LEVEL", "theorem quantifier 'M' must range over a level-0 type, not 'aeq'")],
            id="level1-quantifier-type-not-kind-checked",
        ),
        pytest.param(
            "{g:xG}{M:tm} [g, b:block (x:tm, x:tm) |- aeq M M]",
            [("E-DUP", "duplicate label 'x' in block 'b' of theorem 't'")],
            id="duplicate-entry-label",
        ),
        pytest.param(
            "{g:xaG}{M:tm} [g, b:block (x:tm, u:aeq x x), b:block (x:tm, u:aeq x x) |- aeq M M]",
            [("E-DUP", "block label 'b' used twice in one context of theorem 't'")],
            id="duplicate-block-label",
        ),
        pytest.param(
            "{g:xG}{h:xaG}{M:tm} Rxa [h] [g] -> [h |- aeq M M]",
            [
                ("E-SCHEMA", "context variable 'h' has schema 'xaG' but 'xG' is expected"),
                ("E-SCHEMA", "context variable 'g' has schema 'xG' but 'xaG' is expected"),
            ],
            id="schema-swap",
        ),
        pytest.param(
            "{g:xG}{M:tm} [g, b:block (x:tm, u:aeq x x) |- aeq M M]",
            [("E-SCHEMA", "block 'b' matches no alternative of schema 'xG'")],
            id="foreign-block",
        ),
        pytest.param(
            "{g:xG}{h:xaG}{M:tm} Rxa [g, b:block (x:tm, u:aeq x x)] [h] -> [h |- aeq M M]",
            [("E-SCHEMA", "block 'b' matches no alternative of schema 'xG'")],
            id="foreign-block-in-argument",
        ),
        pytest.param(
            "{g:xG} Rzz [g, b:block (x:tm, u:aeq x x)]",
            [
                ("E-NO-RELATION", "unknown relation 'Rzz'"),
                ("E-SCHEMA", "block 'b' matches no alternative of schema 'xG'"),
            ],
            id="argument-of-unknown-relation",
        ),
        pytest.param(
            "{g:nope}{h:xaG}{M:tm} Rxa [g, b:block (x:tm)] [h] -> [g, b:block (y:tm) |- aeq M M]",
            [("E-NO-SCHEMA", "unknown schema 'nope'")],
            id="unknown-schema-no-cascade",
        ),
        pytest.param(
            "{g:xG}{M:tm} ({g:xaG} [g |- aeq M M]) -> [g, b:block (x:tm) |- aeq M M]",
            [],
            id="schema-restored-after-shadowing",
        ),
        pytest.param(
            "{M:tm} [g, b:block (x:nope) |- aeq M M]",
            [
                ("E-UNBOUND", "context variable 'g' is not bound by a quantifier"),
                ("E-UNBOUND", "unknown type family 'nope'"),
            ],
            id="unbound-context-variable-blocks-still-checked",
        ),
        pytest.param(
            "{g:xaG}{M:tm} [g, b:block (x:tm, u:aeq x x) |- aeq M M]", [], id="fitting-block"
        ),
        pytest.param("{M:tm} [b:block (x:tm, u:aeq x x) |- aeq M M]", [], id="closed-context"),
    ],
)
def test_theorem_scope_diagnostics(checked, statement, diagnostics):
    # over eq.orbi's signature: a variable is in scope in its quantifier's
    # body only, and a diagnostic repeated in one theorem is reported once;
    # a judgment's context is checked at its variable's schema, and a
    # relation argument at its parameter's, as a relation clause's context is
    spec = parse_spec(make_spec(theorems=f"theorem t: {statement};"))
    try:
        scope_check_theorem(checked.sig, checked.schemas, checked.relations, spec.theorems[0])
        got = []
    except OrbiError as e:
        got = [(d.code, d.message) for d in e.diagnostics]
    assert got == diagnostics


def test_theorem_quantifier_level_enforced(checked):
    spec = parse_spec(make_spec(theorems="theorem t: {M:aeq} true;"))
    with raises_code("E-LEVEL"):
        scope_check_theorem(checked.sig, checked.schemas, checked.relations, spec.theorems[0])


def test_theorem_unknown_families_in_source_order(tmp_path):
    # the families of a quantifier's type were once reported in set order,
    # which depends on the hash seed of the run
    path = tmp_path / "t.orbi"
    path.write_text(
        make_spec(syntax="tm: type.", theorems="theorem t: {M: foo -> bar -> baz} true;"),
        encoding="utf-8",
    )
    src = os.path.dirname(os.path.dirname(orbi_forge.__file__))
    for seed in range(1, 7):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)}
        p = subprocess.run(
            [sys.executable, "-m", "orbi_forge.cli", "check", str(path)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert p.returncode == 1
        named = [line.rsplit(" ", 1)[1] for line in (p.stdout + p.stderr).splitlines()]
        assert named == ["'foo'", "'bar'", "'baz'"], seed


def test_theorem_scoping_is_linear_in_quantifiers():
    # each quantifier once copied the names bound around it
    body = "".join(f"{{M{i}:tm}}" for i in range(16_000))
    spec = parse_spec(make_spec(syntax="tm: type.", theorems=f"theorem t: {body} true;"))
    start = time.perf_counter()
    checked = check_spec(spec)
    assert time.perf_counter() - start < 0.5
    assert checked.theorems == spec.theorems


def test_schema_may_not_shadow_signature():
    src = make_spec(syntax="tm: type.", schemas="schema tm = block (x:tm);")
    with raises_code("E-DUP"):
        check_all(src)
