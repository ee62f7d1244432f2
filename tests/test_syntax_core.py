import random

import pytest
from hypothesis import given, strategies as st

import lamoracle
from helpers import closed
from orbi_forge.lf import normalize
from orbi_forge.parser import parse_term_str, parse_tpkind_str
from orbi_forge.pretty import ORBI, block_str, pretty, term_str, tp_str
from orbi_forge.syntax import (
    App,
    Arrow,
    AtomApp,
    Block,
    Const,
    ConstDecl,
    CtxPattern,
    Directive,
    ExistsTm,
    ForallCtx,
    ForallTm,
    InductiveDef,
    Lam,
    Loc,
    OrbiSpec,
    Pi,
    RelApp,
    TrueP,
    TYPE,
    Var,
    free,
    rebuild,
    shift,
    spec_alpha_equal,
    subst,
)
from orbi_forge import parse_spec
from specgen import _gen_term, _gen_tp


def test_subst_beta_contraction():
    body = parse_term_str(r"\x. app x x").body
    out = subst(body, Const("c"))
    assert out == parse_term_str("app c c")


def test_subst_vacuous_binder():
    body = parse_term_str(r"\x. c").body
    assert subst(body, Const("d")) == Const("c")


def test_subst_avoids_capture():
    # substituting a free `y` under a binder whose hint is also `y`
    body = parse_term_str(r"\x. lam (\y. app x y)").body
    out = subst(body, Const("y"))
    expected = App(Const("lam"), Lam("y", App(App(Const("app"), Const("y")), Var(0))))
    assert repr(out) == repr(expected)  # the hint `y` is kept
    assert pretty(out) == "lam (\\y'. app y y')"


@pytest.mark.parametrize(
    "a,b,eq",
    [
        (r"\x. x", r"\y. y", True),
        (r"\x. app x x", r"\x. app x c", False),
        (r"lam (\x. M x)", r"lam (\z. M z)", True),
    ],
)
def test_alpha_equal(a, b, eq):
    assert (parse_term_str(a) == parse_term_str(b)) is eq


def test_pretty_decl():
    decl = ConstDecl("lam", parse_tpkind_str("(tm -> tm) -> tm"))
    assert pretty(decl) == "lam: (tm -> tm) -> tm."


def test_pretty_term_roundtrip_surface():
    t = parse_term_str(r"\x. lam (\y. app x y)")
    assert pretty(t) == r"\x. lam (\y. app x y)"


def test_pretty_var_under_binder():
    assert pretty(Var(0), binders=("x",)) == "x"


def test_pretty_rejects_a_foreign_object():
    with pytest.raises(TypeError, match="cannot print"):
        pretty(object())


def test_app_spines_left_nested():
    t = parse_term_str("f a b")
    assert t == App(App(Const("f"), Const("a")), Const("b"))


def test_shadowing_prints_without_capture():
    # Var(1) under two binders hinted `x` must not be captured by the inner one
    t = Lam("x", Lam("x", Var(1)))
    s = pretty(t)
    assert s == "\\x. \\x'. x"
    assert parse_term_str(s) == t


def _unprimed(node):
    """``node`` with the primes stripped from every binder's hint."""

    def strip(n, k):
        t = type(n)
        if t is Lam:
            return Lam(n.hint.rstrip("'"), n.body)
        if t is Pi:
            return Pi(n.hint.rstrip("'"), n.dom, n.cod)
        return n

    return rebuild(node, strip)


@pytest.mark.parametrize(
    "node,expected",
    [
        # the outer binder is primed away from the constant x, the inner
        # one, which mentions no x, keeps its hint
        (_unprimed(parse_term_str(r"\x'. c x (\x. x')")), r"\x'. c x (\x. x')"),
        (_unprimed(parse_term_str(r"\x'. c (\x''. c x' x)")), r"\x'. c (\x''. c x' x)"),
        (_unprimed(parse_tpkind_str("{x:t} {x':t} j x")), "{x:t} {x':t} j x"),
        (
            _unprimed(parse_tpkind_str("{x:t} ({x':t} j x x') -> j x x")),
            "{x:t} ({x':t} j x x') -> j x x",
        ),
        (
            Block(
                (("x", AtomApp("tm")), ("x", AtomApp("tm")), ("u", AtomApp("aeq", (Var(1), Var(0)))))
            ),
            "block (x:tm, x':tm, u:aeq x x')",
        ),
        (Lam("type", Var(0)), r"\type'. type'"),
        (Pi("type", AtomApp("tm"), AtomApp("j", (Var(0),))), "{type':tm} j type'"),
        (Block((("type", AtomApp("tm")), ("", AtomApp("j", (Var(0),))))), "block (type':tm, x:j type')"),
        # a capture under it prints the outer binder again by the exact rule
        (Lam("type", Lam("x", App(Const("c"), Const("x")))), r"\type'. \x'. c x"),
        (Lam("", Var(0)), r"\x. x"),
    ],
)
def test_binder_names_avoid_capture(node, expected):
    assert pretty(node) == expected


@pytest.mark.parametrize(
    "pick,expected",
    [
        (lambda s: s.schemas[1], "schema xaG = block (x:tm, u:aeq x x);"),
        (lambda s: s.definitions[0].clauses[1][2].ctxs[1], "[h, b:block (x:tm, u:aeq x x)]"),
        (lambda s: s.theorems[2].statement, "{g:xG}{h:xaG}{M:tm} Rxa [g] [h] -> [h |- aeq M M]"),
        (
            lambda s: s.definitions[0],
            "inductive Rxa : {g:xG} {h:xaG} prop =\n| Rxa_nl: Rxa [] []\n"
            "| Rxa_cs: Rxa [g] [h] -> Rxa [g, b:block (x:tm)] [h, b:block (x:tm, u:aeq x x)];",
        ),
        (lambda s: s.theorems[0], "theorem reflG: {h:xaG}{M:tm} [h |- aeq M M];"),
        (lambda s: s.directives[5], "%% explicit [hy,ab] in [g]"),
    ],
    ids=["schema", "context", "formula", "inductive", "theorem", "directive"],
)
def test_pretty_prints_each_node_kind(corpus_spec, pick, expected):
    assert pretty(pick(corpus_spec)) == expected


# ---------------------------------------------------------------- property


_names = st.sampled_from(["x", "y", "z", "c", "M", "app"])


@st.composite
def _terms(draw, depth=0):
    if depth >= 4:
        choice = draw(st.integers(0, 1))
    else:
        choice = draw(st.integers(0, 3))
    if choice == 0:
        if depth and draw(st.booleans()):
            return Var(draw(st.integers(0, depth - 1)))
        return Const(draw(_names))
    if choice == 1:
        return Const(draw(_names))
    if choice == 2:
        return Lam(draw(_names), draw(_terms(depth=depth + 1)))
    return App(draw(_terms(depth=depth)), draw(_terms(depth=depth)))


def _rename_hints(t, suffix):
    if isinstance(t, Lam):
        return Lam(t.hint + suffix, _rename_hints(t.body, suffix))
    if isinstance(t, App):
        return App(_rename_hints(t.fn, suffix), _rename_hints(t.arg, suffix))
    return t


@given(_terms(), _terms())
def test_subst_commutes_with_alpha(body, repl):
    variant = _rename_hints(body, "0")
    assert subst(body, repl) == subst(variant, repl)


@given(_terms())
def test_pretty_parse_term_roundtrip(t):
    # closed terms only: drop candidates with out-of-scope indices
    if not closed(t):
        return
    assert parse_term_str(pretty(t)) == t


def test_hint_names_agree_with_the_exact_rule():
    # a print names each binder from its hint and prints again by the exact
    # rule only on a capture, so both give the same bytes; the hints and the
    # families share names with the constants, so captures abound
    rng = random.Random(5)
    fams = ["x", "tm", "app"]
    for _ in range(1500):
        envd = rng.randrange(3)
        env = [rng.choice(["x", "y", "M"]) for _ in range(envd)]
        t = _gen_term(rng, 4, envd)
        assert term_str(t, env) == term_str(t, env, False, ORBI, False), t
        tp = _gen_tp(rng, 3, envd, fams)
        assert tp_str(tp, env) == tp_str(tp, env, False, False), tp
        labels = [rng.choice(["x", "y", "u", "tm", ""]) for _ in range(3)]
        block = Block(tuple((h, _gen_tp(rng, 2, i, fams)) for i, h in enumerate(labels)))
        assert block_str(block) == block_str(block, True), block


def test_corpus_roundtrip(corpus_spec):
    again = parse_spec(pretty(corpus_spec))
    assert spec_alpha_equal(corpus_spec, again)
    assert pretty(again) == pretty(corpus_spec)


# ------------------------------------------------------- equality and free

_TM, _A = AtomApp("tm"), AtomApp("a", (Var(0),))
_BLK = Block((("x", _TM), ("u", _A)))


@pytest.mark.parametrize(
    "a,b,eq",
    [
        # binder hints and block entry labels are printing material only
        (Lam("x", Var(0)), Lam("y", Var(0)), True),
        (Lam("x", Var(0)), Lam("x", Var(1)), False),
        (Pi("x", _TM, _A), Pi("y", _TM, _A), True),
        (Pi("x", _TM, _A), Arrow(_TM, _A), False),
        (Pi("x", _TM, TYPE), Pi("y", _TM, TYPE), True),
        (Pi("x", _TM, TYPE), Arrow(_TM, TYPE), False),
        (_BLK, Block((("y", _TM), ("w", _A))), True),
        (_BLK, Block((("x", _TM), ("u", _TM))), False),
        (_BLK, Block((("x", _TM),)), False),
        (_BLK, _BLK.entries, False),
        # names a reader can refer to are compared
        (CtxPattern(None, (("b", _BLK),)), CtxPattern(None, (("c", _BLK),)), False),
        (
            CtxPattern("g", (("b", _BLK),)),
            CtxPattern("g", (("b", Block((("z", _TM), ("v", _A)))),)),
            True,
        ),
        (ForallTm("M", _TM, TrueP()), ForallTm("N", _TM, TrueP()), False),
        (ExistsTm("M", _TM, TrueP()), ExistsTm("N", _TM, TrueP()), False),
        (ForallCtx("g", "xG", TrueP()), ForallCtx("h", "xG", TrueP()), False),
        (
            InductiveDef("R", (("g", "xG"),), (("c1", (), RelApp("R", (CtxPattern("g"),))),)),
            InductiveDef("R", (("g", "xG"),), (("c2", (), RelApp("R", (CtxPattern("g"),))),)),
            False,
        ),
        (Directive("wf", ("ab",), "g", True), Directive("wf", ("ab",), "g", False), False),
        # locations never are
        (ConstDecl("c", _TM, Loc(1, 1)), ConstDecl("c", _TM, Loc(4, 2)), True),
        (Directive("wf", ("ab",), "tm", loc=Loc(1, 1)), Directive("wf", ("ab",), "tm"), True),
    ],
)
def test_equality_is_alpha_equivalence(a, b, eq):
    assert (a == b) is eq
    assert (a != b) is not eq
    if eq:
        assert hash(a) == hash(b)


def test_spec_alpha_equal_ignores_loc_and_source():
    decl = ("Syntax", ConstDecl("c", Pi("x", _TM, _TM), Loc(2, 1)))
    a = OrbiSpec((decl, ("Directives", Directive("wf", ("ab",), "tm", loc=Loc(5, 1)))), "a")
    b = OrbiSpec(
        (
            ("Syntax", ConstDecl("c", Pi("y", _TM, _TM), Loc(9, 9))),
            ("Directives", Directive("wf", ("ab",), "tm")),
        ),
        "b",
    )
    assert spec_alpha_equal(a, b)
    c = OrbiSpec((decl, ("Directives", Directive("wf", ("ab",), "tm", True))))
    assert not spec_alpha_equal(a, c)
    assert not spec_alpha_equal(a, OrbiSpec((decl,)))


@pytest.mark.parametrize(
    "node,d,expected",
    [
        (Var(0), 0, {0}),
        (Var(0), 1, set()),
        (Var(3), 1, {2}),
        (Const("c"), 0, {"c"}),
        (Lam("x", App(Var(0), Var(2))), 0, {1}),
        (App(Const("f"), Lam("x", Var(1))), 0, {"f", 0}),
        (AtomApp("a", (Var(1), Const("c"))), 0, {"a", 1, "c"}),
        (Arrow(_TM, _A), 0, {"tm", "a", 0}),
        (Pi("x", _TM, _A), 0, {"tm", "a"}),
        (Pi("x", _A, AtomApp("a", (Var(1),))), 0, {"a", 0}),
        # a kind's names include its `type` atom's
        (Arrow(_A, TYPE), 0, {"a", 0, "type"}),
        (Pi("x", _TM, Arrow(AtomApp("a", (Var(0), Var(1))), TYPE)), 0, {"tm", "a", 0, "type"}),
        (TYPE, 0, {"type"}),
    ],
)
def test_free(node, d, expected):
    assert free(node, d) == expected


def test_free_indices_match_shift_invariance():
    # independent characterisation: shifting the indices >= k changes a node
    # iff it has a free index >= k; in particular it is closed iff shift is a no-op
    rng = random.Random(11)
    for _ in range(400):
        envd = rng.randrange(3)
        tp = _gen_tp(rng, 3, envd, ["a", "b"])
        t = _gen_term(rng, 3, envd)
        assert closed(tp) is (shift(tp, 1) == tp), tp
        assert closed(t) is (shift(t, 1) == t), t
        for k in range(envd + 1):
            top = any(type(x) is int and x >= k for x in free(tp))
            assert top is (shift(tp, 1, k) != tp), (tp, k)


# ------------------------------------------------ rebuild and its instances


def test_rebuild_is_bottom_up_and_counts_binders():
    seen = []
    node = Pi("x", _TM, AtomApp("a", (Lam("y", App(Var(0), Var(1))),)))
    out = rebuild(node, lambda n, k: seen.append((type(n).__name__, k)) or n)
    assert out is node
    assert seen == [
        ("AtomApp", 0),
        ("Var", 2),
        ("Var", 2),
        ("App", 2),
        ("Lam", 1),
        ("AtomApp", 1),
        ("Pi", 0),
    ]


def test_rebuild_shares_unchanged_subtrees():
    rng = random.Random(12)
    for _ in range(400):
        envd = rng.randrange(3)
        tp = _gen_tp(rng, 3, envd, ["a", "b"])
        t = _gen_term(rng, 3, envd)
        for x in (tp, t):
            if closed(x):
                assert shift(x, 1) is x, x
            n = normalize(x)
            assert normalize(n) is n, x


def test_subst_agrees_with_named_oracle():
    rng = random.Random(13)
    for _ in range(400):
        envd = rng.randrange(3)
        env = tuple(f"o{i}" for i in range(envd))
        body = _gen_term(rng, 3, envd + 1)
        repl = _gen_term(rng, 2, envd)
        got = lamoracle.from_core(subst(body, repl), env)
        want = lamoracle.nsubst(
            lamoracle.from_core(body, env + ("hole",)), "hole", lamoracle.from_core(repl, env)
        )
        assert lamoracle.nalpha(got, want), (body, repl)


# (\y. app y <Var(1) under the lambda>) c, and its normal form
_REDEX = App(Lam("y", App(App(Const("app"), Var(0)), Var(1))), Const("c"))
_REDUCT = App(App(Const("app"), Const("c")), Var(0))


@pytest.mark.parametrize(
    "node,expected",
    [
        (AtomApp("a", (_REDEX, Const("c"))), AtomApp("a", (_REDUCT, Const("c")))),
        (
            Arrow(AtomApp("a", (_REDEX,)), AtomApp("b", (Const("c"), _REDEX))),
            Arrow(AtomApp("a", (_REDUCT,)), AtomApp("b", (Const("c"), _REDUCT))),
        ),
        (
            Pi("x", AtomApp("a", (_REDEX,)), AtomApp("b", (_REDEX,))),
            Pi("x", AtomApp("a", (_REDUCT,)), AtomApp("b", (_REDUCT,))),
        ),
        (Arrow(AtomApp("a", (_REDEX,)), TYPE), Arrow(AtomApp("a", (_REDUCT,)), TYPE)),
        (
            Pi("x", _TM, Arrow(AtomApp("a", (_REDEX,)), TYPE)),
            Pi("x", _TM, Arrow(AtomApp("a", (_REDUCT,)), TYPE)),
        ),
        (TYPE, TYPE),
    ],
)
def test_normalize_reaches_every_sort(node, expected):
    assert normalize(node) == expected
