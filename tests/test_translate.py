import random
import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from conftest import golden
from helpers import check_all, make_spec, raises_code
from orbi_forge.directives import AnnotationTable, resolve
from orbi_forge.errors import OrbiError
from orbi_forge.lf import normalize
from orbi_forge.syntax import App, Const, Lam, Var, free, rebuild, shift
from orbi_forge.translate import (
    erase_clause,
    gen_wf_predicates,
    translate_relation,
    translate_rule,
    translate_schema,
    translate_spec,
    translate_theorem,
)
from specgen import gen_ctx_source


def _ann(target="ab", wf=("tm",), rules=(), schemas=(), rels=None, thms=None):
    return AnnotationTable(
        target,
        frozenset(wf),
        frozenset(rules),
        frozenset(schemas),
        rels or {},
        thms or {},
    )


# -------------------------------------------------------------------- terms


def _eta_reference(t):
    # bottom-up eta as a rebuild, which visits every node
    def eta(n, k):
        if type(n) is Lam:
            body = n.body
            if type(body) is App and body.arg == Var(0) and 0 not in free(body.fn):
                return shift(body.fn, -1)
        return n

    return rebuild(t, eta)


@st.composite
def _eta_terms(draw, depth=0, head=False):
    """Beta-normal terms with bound and free indices, rich in \\x. (f x)
    redexes: an application's function (``head``) is no lambda."""
    choice = draw(st.integers(0, 4 if depth < 4 else 1))
    if choice == 0:
        return Var(draw(st.integers(0, depth + 1)))
    if choice == 1 or head and choice < 4:
        return Const(draw(st.sampled_from(["f", "c", "M"])))
    if choice == 2:
        return Lam("x", draw(_eta_terms(depth + 1)))
    if choice == 3:
        return Lam("x", App(draw(_eta_terms(depth + 1, True)), Var(0)))
    return App(draw(_eta_terms(depth, True)), draw(_eta_terms(depth)))


@given(_eta_terms())
def test_eta_contract_matches_its_rebuild_definition(t):
    # on a beta-normal term, normalize is eta alone: the same term, and the
    # input itself exactly when nothing contracts
    want = _eta_reference(t)
    got = normalize(t)
    assert got == want
    assert (got is t) == (want is t)


@pytest.mark.parametrize("target", ["ab", "hy"])
def test_lambda_binder_avoids_the_constants_of_its_body(target):
    # the redex contracts to lam (\c. app c c), whose second c is the constant
    checked = check_all(
        make_spec(
            syntax="tm: type.\nc: tm.\napp: tm -> tm -> tm.\nlam: (tm -> tm) -> tm.",
            judgments="j: tm -> type.",
            rules=r"r: j ((\y. lam (\c. app c y)) c).",
        )
    )
    assert translate_spec(checked, target).block("r") == "j (lam (c'\\ app c' c))."


# ------------------------------------------------------------ wf predicates


def test_gen_wf_corpus_tm(checked):
    clauses = gen_wf_predicates(checked.sig, "tm")
    assert [c.render() for c in clauses] == [
        "is_tm (app M N) :- is_tm M, is_tm N.",
        "is_tm (lam M) :- pi x\\ is_tm x => is_tm (M x).",
    ]


def test_gen_wf_nullary_constructor():
    checked = check_all(make_spec(syntax="f: type.\nc: f."))
    (clause,) = gen_wf_predicates(checked.sig, "f")
    assert clause.render() == "is_f c."


def test_gen_wf_third_order_nesting():
    checked = check_all(make_spec(syntax="tm: type.\nk: ((tm -> tm) -> tm) -> tm."))
    (clause,) = gen_wf_predicates(checked.sig, "tm")
    assert clause.render() == (
        "is_tm (k M) :- pi x\\ (pi y\\ is_tm y => is_tm (x y)) => is_tm (M x)."
    )


# ------------------------------------------------------------------- rules


def test_rule_goldens_from_doc(ab_doc):
    assert ab_doc.block("ae_l") + "\n" == golden("ae_l.ab.golden")
    assert ab_doc.block("de_l") + "\n" == golden("de_l.ab.golden")
    assert ab_doc.block("de_r") + "\n" == golden("de_r.ab.golden")


def test_erasure_on_corpus_rules(checked):
    explicit = _ann(rules=[e.decl.name for e in checked.sig.rules()])
    implicit = _ann()
    for entry in checked.sig.rules():
        full = translate_rule(checked.sig, entry, explicit)
        bare = translate_rule(checked.sig, entry, implicit)
        assert erase_clause(full) == bare, entry.decl.name


# ------------------------------------------------------------------ schemas


def test_schema_golden_xaG(ab_doc):
    assert ab_doc.block("xaG") + "\n" == golden("xaG.ab.golden")


def test_schema_explicit_xG(ab_doc):
    assert ab_doc.block("xG") == (
        "Define xG : olist -> prop by\n"
        "  xG nil;\n"
        "  nabla x, xG (is_tm x :: As) := xG As."
    )


def test_schema_implicit_erasure_error(checked):
    with raises_code("E-EMPTY") as exc:
        translate_schema(checked.sig, checked.schemas["xG"], "ab", _ann())
    assert "explicit" in exc.value.message


def test_schema_hybrid_golden(hy_doc):
    assert hy_doc.block("daG") + "\n" == golden("daG.hy.golden")


def test_schema_multi_alternative():
    src = make_spec(
        syntax="tm: type.\ntp: type.",
        judgments="aeq: tm -> tm -> type.\natp: tp -> tp -> type.",
        schemas="schema xaG = block (x:tm, u:aeq x x) + block (a:tp, v:atp a a);",
    )
    checked = check_all(src)
    out = translate_schema(checked.sig, checked.schemas["xaG"], "ab", _ann()).render()
    assert out == (
        "Define xaG : olist -> prop by\n"
        "  xaG nil;\n"
        "  nabla x, xaG (aeq x x :: As) := xaG As;\n"
        "  nabla a, xaG (atp a a :: As) := xaG As."
    )
    hy = translate_schema(checked.sig, checked.schemas["xaG"], "hy", _ann(target="hy")).render()
    assert "| cns_xa1 : " in hy and "| cns_xa2 : " in hy


def test_list_variable_avoids_user_names():
    src = make_spec(
        syntax="tm: type.\nAs: tm.",
        judgments="j: tm -> type.",
        schemas="schema sG = block (x:tm, u:j x);",
    )
    checked = check_all(src)
    out = translate_schema(checked.sig, checked.schemas["sG"], "ab", _ann()).render()
    assert ":: Bs) := sG Bs" in out


# ---------------------------------------------------------------- relations


def test_relation_corpus_rxa(ab_doc):
    assert ab_doc.block("Rxa") == (
        "Define Rxa : olist -> olist -> prop by\n"
        "  Rxa nil nil;\n"
        "  nabla x, Rxa (is_tm x :: G) (aeq x x :: H) := Rxa G H."
    )


def test_relation_nil_clause_always_nil(ab_doc):
    assert "Rxa nil nil;" in ab_doc.block("Rxa")
    assert "Rda nil nil;" in ab_doc.block("Rda")


def test_relation_fully_implicit_erasure_error(checked):
    rxa = checked.relations["Rxa"]
    with raises_code("E-EMPTY"):
        translate_relation(checked.sig, rxa, "ab", _ann())


def test_relation_hybrid_uses_clause_names(hy_doc):
    out = hy_doc.block("Rda")
    assert "| Rda_nl : Rda nil nil" in out
    assert "| Rda_cs : forall (G:list atm) (H:list atm) (x:uexp)," in out


_CAPTURE_SIG = dict(
    syntax="tm: type.",
    judgments="aeq: tm -> tm -> type.",
    schemas="schema xG = block (x:tm, u:aeq x x);",
)


@pytest.mark.parametrize(
    "definition",
    [
        pytest.param(
            "inductive R : {g:xG}{h:xG} prop =\n| R_nl: R [] []\n"
            "| R_cs: R [k] [K] -> R [k, b:block (x:tm, u:aeq x x)] [K, b:block (x:tm, u:aeq x x)];",
            id="two-context-variables",
        ),
        pytest.param(
            "inductive R : {x:xG} prop =\n| R_nl: R []\n"
            "| R_cs: R [x] -> R [x, b:block (X:tm, u:aeq X X)];",
            id="block-label",
        ),
    ],
)
@pytest.mark.parametrize("target", ["ab", "hy"])
def test_relation_list_variables_do_not_capture(definition, target):
    checked = check_all(make_spec(definitions=definition, **_CAPTURE_SIG))
    text = translate_relation(checked.sig, checked.relations["R"], target, _ann(target, wf=())).render()
    if target == "ab":
        nabla, lists = re.search(r"nabla ([^,]+), .* := R (.*)\.$", text).groups()
    else:
        lists = re.search(r"-> R ([^(]*) -> R \(", text).group(1)
        nabla = " ".join(re.findall(r"\(([\w']+):uexp\)", text))
        assert set(re.findall(r"\(([\w']+):list atm\)", text)) == set(lists.split())
    # the premise names each context variable of the clause once, in order
    assert len(set(lists.split())) == len(lists.split()), text
    assert not set(lists.split()) & set(nabla.split()), text


def _relation_text(clause, target):
    definition = f"inductive R : {{g:xG}}{{h:xG}} prop =\n| R_nl: R [] []\n| {clause};"
    checked = check_all(make_spec(definitions=definition, **_CAPTURE_SIG))
    rel = translate_relation(checked.sig, checked.relations["R"], target, _ann(target, wf=()))
    return rel.render().split("\n", 2)[2]  # the clause after R_nl


@pytest.mark.parametrize(
    "clause, hy",
    [
        pytest.param(
            "R_x: R [g] [h] -> R [] []",
            "| R_x : forall (G:list atm) (H:list atm),\n    R G H -> R nil nil.",
            id="no-head-variable-keeps-premises",
        ),
        pytest.param(
            "R_y: R [g] [h] -> R [g, b:block (x:tm, u:aeq x x)] []",
            "| R_y : forall (G:list atm) (H:list atm) (x:uexp),\n"
            "    proper x -> R G H -> R (aeq x x :: G) nil.",
            id="premise-only-list-variable-bound",
        ),
    ],
)
def test_hybrid_relation_clause_binds_and_keeps_premises(clause, hy):
    assert _relation_text(clause, "hy") == hy


@pytest.mark.parametrize(
    "clause, ab, hy",
    [
        pytest.param(
            "R_z: R [g] [h] -> R [g, b1:block (x:tm, u:aeq x x)] [h, b2:block (x:tm, u:aeq x x)]",
            "  nabla x x', R (aeq x x :: G) (aeq x' x' :: H) := R G H.",
            "| R_z : forall (G:list atm) (H:list atm) (x:uexp) (x':uexp),\n"
            "    proper x -> proper x' -> R G H -> R (aeq x x :: G) (aeq x' x' :: H).",
            id="two-contexts",
        ),
        pytest.param(
            "R_w: R [g] [h] -> R [g, b1:block (x:tm, u:aeq x x), b2:block (x:tm, u:aeq x x)] [h]",
            "  nabla x x', R (aeq x x :: aeq x' x' :: G) H := R G H.",
            "| R_w : forall (G:list atm) (H:list atm) (x:uexp) (x':uexp),\n"
            "    proper x -> proper x' -> R G H -> R (aeq x x :: aeq x' x' :: G) H.",
            id="one-context",
        ),
        pytest.param(
            "R_s: R [g] [h] -> R [g, b:block (x:tm, u:aeq x x)] [h, b:block (x:tm, u:aeq x x)]",
            "  nabla x, R (aeq x x :: G) (aeq x x :: H) := R G H.",
            "| R_s : forall (G:list atm) (H:list atm) (x:uexp),\n"
            "    proper x -> R G H -> R (aeq x x :: G) (aeq x x :: H).",
            id="shared-label-shares",
        ),
    ],
)
def test_nabla_variables_are_keyed_by_block_label(clause, ab, hy):
    assert _relation_text(clause, "ab") == ab
    assert _relation_text(clause, "hy") == hy


def _erasure_holds(checked, target) -> Counter:
    """Erasing the explicit translation of every rule, wf clause, schema and
    relation gives its implicit translation, wherever that one is not
    E-EMPTY; the number of items of each kind whose two translations differ."""
    sig = checked.sig
    ann = resolve(checked, target)
    bare = ann._replace(
        explicit_rules=frozenset(), explicit_schemas=frozenset(), explicit_relation_params={}
    )
    for fam in ann.wf_families:
        for cl in gen_wf_predicates(sig, fam):
            assert erase_clause(cl) is None, cl
    changed = Counter()
    for entry in sig.rules():
        full = translate_rule(sig, entry, ann)
        implicit = translate_rule(sig, entry, bare)
        assert erase_clause(full) == implicit, (target, entry.decl.name)
        changed["rule"] += full != implicit
    items = [("schema", translate_schema, x) for x in checked.spec.schemas]
    items += [("relation", translate_relation, x) for x in checked.spec.definitions]
    for kind, translate, item in items:
        try:
            implicit = translate(sig, item, target, bare)
        except OrbiError as e:
            assert e.code == "E-EMPTY", e.diagnostics
            continue
        full = translate(sig, item, target, ann)
        assert tuple(map(erase_clause, full.clauses)) == implicit.clauses, (target, item.name)
        changed[kind] += full != implicit
    return changed


def test_erasure_on_schemas_and_relations(corpus_text):
    """Structural erasure, rules included, with every subset of eq.orbi's
    explicit directives turned implicit."""
    lines = corpus_text.splitlines()
    marks = [i for i, line in enumerate(lines) if line.startswith("%% explicit")]
    changed = Counter()
    for mask in range(1 << len(marks)):
        variant = list(lines)
        for bit, i in enumerate(marks):
            if mask >> bit & 1:
                variant[i] = variant[i].replace("explicit", "implicit")
        checked = check_all("\n".join(variant))
        for target in ("ab", "hy"):
            changed += _erasure_holds(checked, target)
    # de_l and de_r under ab and hy, daG under hy and Rda under ab and hy, each
    # in the 32 variants that keep its mark; xG and Rxa erase to nothing when
    # implicit
    assert changed == {"rule": 128, "schema": 32, "relation": 64}


def test_erasure_on_generated_schemas_and_relations():
    changed = Counter()
    for seed in range(60):
        checked = check_all(gen_ctx_source(random.Random(seed)))
        for target in ("ab", "hy"):
            changed += _erasure_holds(checked, target)
    assert min(changed[kind] for kind in ("rule", "schema", "relation")) >= 20, changed


def test_erasure_keeps_vacuous_binders_and_user_judgments():
    checked = check_all(
        make_spec(
            syntax="tm: type.\nc: tm.",
            judgments="j: tm -> type.\nis_j: tm -> type.",
            rules="r: ({x:tm} j c) -> j c.\ns: is_j c -> j c.",
        )
    )
    r, s = checked.sig.rules()
    explicit = _ann(rules=("r", "s"))
    assert translate_rule(checked.sig, r, explicit).render() == "j c :- pi x\\ is_tm x => j c."
    assert erase_clause(translate_rule(checked.sig, r, explicit)).render() == "j c :- pi x\\ j c."
    assert erase_clause(translate_rule(checked.sig, s, explicit)).render() == "j c :- is_j c."
    for rule in (r, s):
        assert erase_clause(translate_rule(checked.sig, rule, explicit)) == translate_rule(
            checked.sig, rule, _ann()
        )


# ---------------------------------------------------------------- theorems


def test_theorem_goldens(ab_doc, bel_doc):
    assert ab_doc.block("reflG") + "\n" == golden("reflG.ab.golden")
    assert bel_doc.block("reflG") + "\n" == golden("reflG.bel.golden")


def test_trivial_truth_theorem():
    checked = check_all(make_spec(theorems="theorem t: true;"))
    text, warnings = translate_theorem(checked, checked.theorems[0], "ab", _ann(wf=()))
    assert text == "true."
    assert warnings == []


def test_explicit_var_needs_ctx_in_scope():
    src = make_spec(
        syntax="tm: type.\nc: tm.",
        directives="%% explicit [ab] in M",
        theorems="theorem t: {M:tm} M = c;",
    )
    checked = check_all(src)
    ann = resolve(checked, "ab")
    with raises_code("E-NOCTX"):
        translate_theorem(checked, checked.theorems[0], "ab", ann)


@pytest.mark.parametrize("target", ["ab", "hy"])
def test_theorem_relation_argument_must_be_a_bare_context_variable(corpus_text, target):
    statement = "{g:xG}{h:xaG}{M:tm} Rxa [g, b:block (x:tm)] [h] -> [h |- aeq M M]"
    checked = _eq_theorem(corpus_text, statement)
    with raises_code("E-SHAPE") as exc:
        translate_spec(checked, target)
    assert exc.value.message == (
        "theorem 't': relation arguments must be bare context variables in formula targets"
    )
    # an empty context argument is nil, as a judgment's empty context is
    checked = _eq_theorem(corpus_text, "{h:xaG}{M:tm} Rxa [] [h] -> [h |- aeq M M]")
    assert translate_spec(checked, target).block("t") == (
        "forall H M, xaG H -> {H |- is_tm M} -> Rxa nil H -> {H |- aeq M M}."
    )


@pytest.mark.parametrize("target", ["ab", "hy"])
def test_explicit_higher_order_variable_has_its_hereditary_wf_antecedent(corpus_text, target):
    # the antecedent is the wf goal of a rule premise's Pi variable
    checked = _eq_theorem(
        corpus_text.replace("in M\n", "in F\n"), "{h:xaG}{F:tm -> tm} [h |- aeq (lam F) (lam F)]"
    )
    assert translate_spec(checked, target).block("t") == (
        "forall H F, xaG H -> {H |- pi x\\ is_tm x => is_tm (F x)} -> {H |- aeq (lam F) (lam F)}."
    )


def test_multi_context_usage_warns(checked):
    doc = translate_spec(checked, "ab")
    assert any("ceqR" in w.message for w in doc.warnings)


def test_beluga_lifts_only_marked_vars(bel_doc):
    assert bel_doc.block("ceqG").startswith("{g:daG} {M:[g |- tm]} {N:tm}")


@pytest.mark.parametrize(
    "theorem, text",
    [
        (
            "{h:xaG} true -> ({M:tm} [h |- aeq M M])",
            "{h:xaG} true -> ({M:[h |- tm]} [h |- aeq M M]).",
        ),
        (
            "{h:xaG}{N:tm} [h |- aeq N N] || ({g:xaG}{M:tm}<P:tm> [g |- aeq M P] & [h |- aeq N N]) -> false",
            "{h:xaG} {N:tm} [h |- aeq N N] || "
            "({g:xaG} {M:[g |- tm]} <P:tm> [g |- aeq M P] & [h |- aeq N N]) -> false.",
        ),
    ],
    ids=["explicit", "groups"],
)
def test_beluga_nested_quantifiers_are_laid_out_as_outer_ones(corpus_text, theorem, text):
    # eq.orbi up to its Theorems section, with `%% explicit [hy,ab,bel] in M`
    head = "\n".join(corpus_text.split("\n")[:45])
    checked = check_all(f"{head}\n%% Theorems\ntheorem nest: {theorem};\n")
    assert translate_spec(checked, "bel").block("nest") == text


@pytest.mark.parametrize(
    "target, text",
    [
        (
            "ab",
            "forall G H M, xaG G -> xaG H -> {G |- is_tm M} -> {G |- aeq M M} -> "
            "(forall M1, {H |- is_tm M1} -> {H |- aeq M1 M1}).",
        ),
        ("bel", "{g:xaG} {h:xaG} {M:[g |- tm]} [g |- aeq M M] -> ({M:[h |- tm]} [h |- aeq M M])."),
    ],
    ids=["ab", "bel"],
)
def test_shadowing_quantifier_has_its_own_usage_contexts(corpus_text, target, text):
    # eq.orbi, with `%% explicit [hy,ab,bel] in M`: the outer M is used only
    # under g and the inner one only under h, so neither warns
    head = "\n".join(corpus_text.split("\n")[:45])
    checked = check_all(
        f"{head}\n%% Theorems\n"
        "theorem sh: {g:xaG}{h:xaG}{M:tm} [g |- aeq M M] -> ({M:tm} [h |- aeq M M]);\n"
    )
    doc = translate_spec(checked, target)
    assert doc.block("sh") == text
    assert not [w for w in doc.warnings if w.code == "W-CTX"]


def _eq_theorem(corpus_text, statement: str, directives: str = ""):
    # eq.orbi up to its directives, which mark M explicit, and ``statement``
    head = "\n".join(corpus_text.split("\n")[:45])
    return check_all(f"{head}\n{directives}\n%% Theorems\ntheorem t: {statement};\n")


@pytest.mark.parametrize(
    "statement, ab, bel, warned",
    [
        (
            "{g:xaG}{h:xaG}{M:tm} [h |- aeq M M] -> ({h:xaG} [h |- aeq M M])",
            "forall G H M, xaG G -> xaG H -> {G |- is_tm M} -> {H |- aeq M M} -> "
            "(forall H1, xaG H1 -> {H1 |- aeq M M}).",
            "{g:xaG} {h:xaG} {M:[g |- tm]} [h |- aeq M M] -> ({h:xaG} [h |- aeq M M]).",
            True,
        ),
        (
            "{g:xaG}{h:xaG}{M:tm} [h |- aeq M M] -> ({k:xaG} [k |- aeq M M])",
            "forall G H M, xaG G -> xaG H -> {G |- is_tm M} -> {H |- aeq M M} -> "
            "(forall K, xaG K -> {K |- aeq M M}).",
            "{g:xaG} {h:xaG} {M:[g |- tm]} [h |- aeq M M] -> ({k:xaG} [k |- aeq M M]).",
            True,
        ),
        (
            "{g:xaG}{h:xaG}{M:tm}{h:xaG} [h |- aeq M M]",
            "forall G H M H1, xaG G -> xaG H -> {G |- is_tm M} -> xaG H1 -> {H1 |- aeq M M}.",
            "{g:xaG} {h:xaG} {M:[g |- tm]} {h:xaG} [h |- aeq M M].",
            False,
        ),
        (
            "{g:xaG}{M:tm}{g:xaG} [g |- aeq M M]",
            "forall G M G1, xaG G -> {G |- is_tm M} -> xaG G1 -> {G1 |- aeq M M}.",
            "{g:xaG} {M:[g |- tm]} {g:xaG} [g |- aeq M M].",
            False,
        ),
        (
            "{g:xaG}{g:xaG}{M:tm} [|- aeq M M]",
            "forall G G1 M, xaG G -> xaG G1 -> {G1 |- is_tm M} -> {nil |- aeq M M}.",
            "{g:xaG} {g:xaG} {M:[g |- tm]} [|- aeq M M].",
            False,
        ),
        (
            "{g:xaG}{h:xaG}{g:tm}{M:tm} [h |- aeq M g] & [g |- aeq M M]",
            "forall G H G1 M, xaG G -> xaG H -> {G |- is_tm M} -> {H |- aeq M G1} /\\ "
            "{G |- aeq M M}.",
            "{g:xaG} {h:xaG} {g:tm} {M:[g |- tm]} [h |- aeq M g] & [g |- aeq M M].",
            True,
        ),
        (
            "{g:xaG}{h:xaG}{M:tm} [g |- aeq M M] & (<M:tm> [h |- aeq M M])",
            "forall G H M, xaG G -> xaG H -> {G |- is_tm M} -> {G |- aeq M M} /\\ "
            "(exists M1, {H |- aeq M1 M1}).",
            "{g:xaG} {h:xaG} {M:[g |- tm]} [g |- aeq M M] & (<M:tm> [h |- aeq M M]).",
            False,
        ),
        (
            "{h:xaG}{M:tm}{m:tm} [h |- aeq (app m m) M]",
            "forall H M M1, xaG H -> {H |- is_tm M} -> {H |- aeq (app M1 M1) M}.",
            "{h:xaG} {M:[h |- tm]} {m:tm} [h |- aeq (app m m) M].",
            False,
        ),
        (
            "{h:xaG}{M:tm}{M:xaG} [h |- aeq M M]",
            "forall H M M1, xaG H -> {H |- is_tm M} -> xaG M1 -> {H |- aeq M M}.",
            "{h:xaG} {M:[h |- tm]} {M:xaG} [h |- aeq M M].",
            False,
        ),
        (
            "{app:xaG}{M:tm} [app |- aeq (app M M) M]",
            "forall App M, xaG App -> {App |- is_tm M} -> {App |- aeq (app M M) M}.",
            "{app:xaG} {M:[app |- tm]} [app |- aeq (app M M) M].",
            False,
        ),
        (
            "{g:xaG} true -> ({M:tm}{g:xaG}{g:xaG} [|- aeq M M])",
            "forall G, xaG G -> true -> "
            "(forall M G1 G2, {G |- is_tm M} -> xaG G1 -> xaG G2 -> {nil |- aeq M M}).",
            "{g:xaG} true -> ({M:[g |- tm]} {g:xaG} {g:xaG} [|- aeq M M]).",
            False,
        ),
        (
            "{g:xaG}{h:xaG}{g:xaG}{M:tm} [|- aeq M M]",
            "forall G H G1 M, xaG G -> xaG H -> xaG G1 -> {H |- is_tm M} -> {nil |- aeq M M}.",
            "{g:xaG} {h:xaG} {g:xaG} {M:[h |- tm]} [|- aeq M M].",
            False,
        ),
    ],
    ids=[
        "context-shadowed",
        "context-bound-inside",
        "shadowed-only",
        "rebound-only",
        "first-shadowed",
        "term-named-g",
        "exists-shadows-explicit",
        "renamed-in-compound-argument",
        "term-and-context-named-alike",
        "context-named-like-constructor",
        "shadowed-name-handed-out",
        "first-visible-in-binding-order",
    ],
)
def test_explicit_variable_context_is_read_per_binder(corpus_text, statement, ab, bel, warned):
    # the judgments that mention M are noted under their context binder, so
    # a context bound again under its name, or bound inside M's scope, is a
    # context of its own; M under several contexts warns and takes the first
    # context visible at its quantifier, as does M under one context that it
    # cannot name, under that context's own ab/hy name.  Context and term
    # variables are renamed in tables of their own, so neither renames the
    # other, nor a constructor; and no name in scope is handed out again
    checked = _eq_theorem(corpus_text, statement)
    for target, text in (("ab", ab), ("hy", ab), ("bel", bel)):
        doc = translate_spec(checked, target)
        assert doc.block("t") == text, target
        assert [w.code for w in doc.warnings] == ["W-CTX"] * warned, target


def test_context_warnings_keep_quantifier_order(corpus_text):
    # N's chain is printed, and its W-CTX known, before M's body is done
    checked = _eq_theorem(
        corpus_text,
        "{g:xaG}{h:xaG}{M:tm} [g |- aeq M M] -> "
        "({N:tm} [g |- aeq N N] -> [h |- aeq N N]) -> [h |- aeq M M]",
        "%% explicit [hy,ab,bel] in N\n",
    )
    for target in ("ab", "hy", "bel"):
        doc = translate_spec(checked, target)
        variables = [w.message.split("'")[3] for w in doc.warnings]
        assert variables == ["M", "N"], target


def test_twelf_theorems_are_comments(tw_doc):
    assert tw_doc.block("reflG") == "% theorem reflG: {h:xaG}{M:tm} [h |- aeq M M];"


# ---------------------------------------------------------------- documents


def test_document_order_ab(ab_doc):
    tags = [b.tag for b in ab_doc.blocks]
    assert tags.index("tm") < tags.index("ae_a") < tags.index("xG") < tags.index("Rxa")
    assert tags.index("Rda") < tags.index("reflG")


def test_document_determinism(checked):
    a = translate_spec(checked, "ab").render()
    b = translate_spec(checked, "ab").render()
    assert a == b


def test_beluga_signature_passthrough(bel_doc, corpus_spec):
    for sec in ("Syntax", "Judgments", "Rules", "Schemas"):
        assert bel_doc.block(sec) == corpus_spec.section_text(sec)
    assert bel_doc.block("Syntax") == "tm: type.\napp: tm -> tm -> tm.\nlam: (tm -> tm) -> tm."


def test_twelf_schemas_commented(tw_doc):
    assert tw_doc.block("Schemas").startswith("% schema xG")


def test_generated_names_do_not_collide_with_user_symbols(checked, ab_doc):
    user = set(checked.sig.entries)
    for fresh in ("As", "Gamma"):
        assert fresh not in user
    # every generated list variable in schema blocks is As (no user clash)
    assert ":: As)" in ab_doc.block("xaG")


def test_premise_quantifier_over_judgment_lowers_as_its_arrow():
    # lf stores a Pi over a judgment as its arrow, in a premise too
    src = make_spec(
        syntax="tm: type.\nc: tm.",
        judgments="j: tm -> type.\nk: tm -> type.",
        rules="r: ({D:j c} k c) -> k c.\ns: (j c -> k c) -> k c.",
    )
    checked = check_all(src)
    clauses = [translate_rule(checked.sig, e, _ann(wf=())).render() for e in checked.sig.rules()]
    assert clauses == ["k c :- j c => k c."] * 2


def test_functional_premise_variable_gets_hereditary_wf():
    src = make_spec(
        syntax="tm: type.\nc: tm.",
        judgments="j: tm -> type.",
        rules="r: ({f:tm -> tm} j (f c)) -> j c.",
    )
    checked = check_all(src)
    (entry,) = checked.sig.rules()
    explicit = translate_rule(checked.sig, entry, _ann(rules=("r",)))
    assert explicit.render() == (
        "j c :- pi f\\ (pi x\\ is_tm x => is_tm (f x)) => j (f c)."
    )
    implicit = translate_rule(checked.sig, entry, _ann())
    assert implicit.render() == "j c :- pi f\\ j (f c)."
    assert erase_clause(explicit) == implicit


def test_theorem_variable_rename_avoids_signature_constants():
    src = make_spec(
        syntax="tm: type.\nM: tm.",
        judgments="j: tm -> type.",
        schemas="schema sG = block (x:tm, u:j x);",
        theorems="theorem t: {g:sG}{m:tm} [g |- j m] -> [g |- j M];",
    )
    checked = check_all(src)
    text, _ = translate_theorem(
        checked, checked.theorems[0], "ab", _ann(wf=())
    )
    # the quantified m must not collide with the constant M
    assert text == "forall G M1, sG G -> {G |- j M1} -> {G |- j M}."


@pytest.mark.parametrize("target", ["ab", "hy"])
@pytest.mark.parametrize(
    "statement, text",
    [
        (
            "{M:tm}{m:tm} true -> ({m:tm}{M:tm}{m:tm}{M1:tm} true)",
            "forall M M1, true -> (forall M2 M3 M4 M11, true).",
        ),
        (
            "{M:tm} ({N:tm}{N:tm} true) & ({N:tm} true)",
            "forall M, (forall N N1, true) /\\ (forall N, true).",
        ),
    ],
    ids=["shadowed", "siblings"],
)
def test_chain_hands_out_no_name_in_scope(statement, text, target):
    # a theorem has one name supply, which frees no name: the inner m and M
    # shadow the outer ones, yet M1 and M stay taken, and numbering resumes;
    # a chain's names leave the supply when it closes
    checked = check_all(make_spec(syntax="tm: type.", theorems=f"theorem t: {statement};"))
    got, _ = translate_theorem(checked, checked.theorems[0], target, _ann(wf=()))
    assert got == text


_NULLARY = make_spec(
    syntax="tm: type.\nc: tm.",
    judgments="j: type.\nk: tm -> type.",
    rules="r: j.\ns: {x:tm} k x.",
    definitions="inductive R : prop =\n| r0: R;",
    directives="%% wf [ab,hy] in tm\n%% explicit [ab,hy] in s",
    theorems="theorem t: R -> true;",
)


@pytest.mark.parametrize(
    "target, relation",
    [("ab", "Define R : prop by\n  R."), ("hy", "Inductive R : Prop :=\n| r0 : R.")],
)
def test_nullary_judgment_rule_and_relation(target, relation):
    # a relation of no parameters has the bare type prop (ab wrote
    # `R :  -> prop`); a judgment of no arguments is its bare name
    doc = translate_spec(check_all(_NULLARY), target)
    assert doc.block("R") == relation
    assert doc.block("r") == "j."
    assert doc.block("s") == "k x :- is_tm x."
    assert doc.block("t") == "R -> true."


@pytest.mark.parametrize("target", ["ab", "hy"])
def test_wf_family_with_no_constructor_emits_no_block(target):
    # the output starts with the rule's clause, not with an empty block
    src = make_spec(
        syntax="tm: type.",
        judgments="j: tm -> type.",
        rules="r: {x:tm} j x.",
        directives="%% wf [ab,hy] in tm",
    )
    doc = translate_spec(check_all(src), target)
    assert [b.tag for b in doc.blocks] == ["r"]
    assert doc.render() == "j x.\n"


@pytest.mark.parametrize(
    "target, schema, relation",
    [
        (
            "ab",
            "nabla x, xaG (is_tm x :: aeq x x :: As) := xaG As",
            "nabla x, R (aeq x x :: G) := R G",
        ),
        (
            "hy",
            "proper x -> xaG Gamma -> xaG (is_tm x :: aeq x x :: Gamma)",
            "proper x -> R G -> R (aeq x x :: G)",
        ),
    ],
    ids=["ab", "hy"],
)
def test_block_entries_are_printed_beta_normal(target, schema, relation):
    # a redex in a schema's or a relation's block entry is printed in
    # normal form, as a theorem's terms are
    src = make_spec(
        syntax="tm: type.",
        judgments="aeq: tm -> tm -> type.",
        schemas="schema xaG = block (x:tm, u:aeq ((\\y. y) x) x);",
        definitions="inductive R : {g:xaG} prop =\n| R_nl: R []\n"
        "| R_cs: R [g] -> R [g, b:block (x:tm, u:aeq ((\\y. y) x) x)];",
        directives="%% wf [ab,hy] in tm\n%% explicit [ab,hy] in xaG",
    )
    doc = translate_spec(check_all(src), target)
    assert schema in doc.block("xaG")
    assert relation in doc.block("R")
