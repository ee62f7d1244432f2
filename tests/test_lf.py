import random
import re
import sys

import pytest

import lamoracle
from helpers import check_all, closed, closed_decl, make_spec, raises_code
from orbi_forge import check_signature, normalize, parse_spec
from orbi_forge.errors import OrbiError
from orbi_forge.lf import _infer, _reconstruct, check_tp
from orbi_forge.parser import parse_term_str, parse_tpkind_str
from orbi_forge.pretty import tp_str
from orbi_forge.syntax import (
    App,
    AtomApp,
    Arrow,
    Const,
    ConstDecl,
    Lam,
    Pi,
    Var,
    chain,
    free,
)
from orbi_forge.translate import translate_spec
from specgen import gen_noisy_rules_source, gen_rules_source, gen_tm_term


def _oracle_normalize(t):
    return lamoracle.nnormalize(lamoracle.from_core(t))


def _agrees_with_oracle(t):
    return lamoracle.nalpha(lamoracle.from_core(normalize(t)), _oracle_normalize(t))


def test_normalize_beta_contraction():
    assert normalize(parse_term_str(r"(\x. app x x) c")) == parse_term_str("app c c")


def test_normalize_eta_contraction():
    assert normalize(parse_term_str(r"\x. M x")) == parse_term_str("M")
    t = parse_term_str(r"\x. app x x")
    assert normalize(t) == t
    nested = parse_term_str(r"lam (\x. M x)")
    assert normalize(nested) == parse_term_str("lam M")
    # a redex under a binder, whose contraction makes the binder a redex too
    assert normalize(parse_term_str(r"\z. lam (\y. z y)")) == parse_term_str("lam")
    under = parse_term_str(r"lam (\x. app x (\y. N y))")
    assert normalize(under) == parse_term_str(r"lam (\x. app x N)")
    twice = parse_term_str(r"\x. f x x")
    assert normalize(twice) is twice


def test_normalize_already_normal():
    t = parse_term_str(r"lam (\x. app x x)")
    assert normalize(t) == t


def test_normalize_two_step_redex_vs_oracle():
    t = parse_term_str(r"(\x. \y. app x y) a b")
    assert normalize(t) == parse_term_str("app a b")
    assert _agrees_with_oracle(t)


def test_normalize_under_binder_vs_oracle():
    t = parse_term_str(r"lam (\z. (\x. app x x) z)")
    assert normalize(t) == parse_term_str(r"lam (\z. app z z)")
    assert _agrees_with_oracle(t)


_OMEGA = r"((\y. y y) (\y. y y))"


def test_normalize_is_normal_order():
    # the redex discards an argument that has no normal form
    assert normalize(parse_term_str(rf"(\x. c) {_OMEGA}")) == Const("c")
    tp = parse_tpkind_str(rf"{{u: j ((\x. c) {_OMEGA})}} j u")
    assert normalize(tp) == parse_tpkind_str("{u: j c} j u")


def test_normalize_visits_each_node_once():
    # a normal type comes back as it is: each of its 13 types, applications
    # and lambdas is entered once, and none of its Const or Var leaves, nor
    # a lambda's leaf body; an eta-redex whose head is a constant contracts
    # with no scan of its head, making only the nodes of its result
    tp = parse_tpkind_str(r"{x:tm} aeq (app x (app x x)) (lam (\y. app y x)) -> aeq x x")
    leaf_body = parse_term_str(r"lam (\y. y)")
    eta_redex, eta_short = parse_term_str(r"lam (\x. M x)"), parse_term_str("lam M")
    for node, normal, n in ((tp, tp, 13), (leaf_body, leaf_body, 2), (eta_redex, eta_short, 3)):
        entered = []

        def hook(frame, event, arg):
            if event == "call":
                entered.append((frame.f_code.co_name, type(frame.f_locals.get("node"))))

        sys.setprofile(hook)
        try:
            out = normalize(node)
        finally:
            sys.setprofile(None)
        assert out == normal and (out is node) == (normal is node)
        kinds = [kind for name, kind in entered if name == "normalize"]
        assert len(kinds) == n
        assert {name for name, _ in entered} <= {"normalize", "__init__"}
        assert not set(kinds) & {Const, Var}


def test_check_signature_corpus_levels(corpus_spec):
    sig = check_signature(corpus_spec)
    assert sig.entries["tm"].level == 0
    assert sig.entries["aeq"].level == 1
    assert sig.entries["deq"].level == 1
    assert len(sig.rules()) == 8
    assert all(e.level == 1 for e in sig.rules())


def test_judgment_indexed_by_family_rejected():
    src = make_spec(syntax="tm: type.", judgments="bad: (tm -> type) -> type.")
    with raises_code("E-LEVEL"):
        check_signature(parse_spec(src))


@pytest.mark.parametrize(
    "source, message",
    [
        pytest.param(
            "%% Syntax\ntm: type.\nc: tm.\n\n%% Judgments\nj: tm -> type.\n\n%% Syntax\nd: j c -> tm.\n",
            "syntax-level constant 'd' may only mention level-0 families",
            id="syntax-constant-over-judgment",
        ),
        pytest.param(
            "%% Syntax\ntm: type.\n\n%% Judgments\nj: type.\nj2: j -> type.\n",
            "judgment 'j2' must be indexed by level-0 terms only (family indexed by a family)",
            id="judgment-indexed-by-judgment",
        ),
    ],
)
def test_signature_level_faults(source, message):
    with raises_code("E-LEVEL") as exc:
        check_signature(parse_spec(source))
    assert exc.value.message == message


def test_empty_spec_checks_to_empty_signature():
    sig = check_signature(parse_spec(""))
    assert sig.entries == {}


def test_signature_order_sensitive():
    src = make_spec(syntax="app: tm -> tm -> tm.\ntm: type.")
    with raises_code("E-UNBOUND"):
        check_signature(parse_spec(src))


def test_infer_lambda_under_constructor(checked):
    t = parse_term_str(r"lam (\x. app x x)")
    assert _infer(checked.sig, [], t) is checked.sig.entries["tm"].simple


def test_infer_constant_lookup(checked):
    # a type is inferred as its erasure, interned: a vacuous Pi is an arrow
    tm = checked.sig.entries["tm"].simple
    tp = _infer(checked.sig, [], parse_term_str("app"))
    assert (tp.dom, tp.cod.dom, tp.cod.cod) == (tm, tm, tm)
    assert tp is check_tp(checked.sig, [], parse_tpkind_str("{x:tm} tm -> tm"))
    assert str(tp) == "tm -> tm -> tm"


def test_infer_type_mismatch_reports_both_types(checked):
    with raises_code("E-TYPE") as exc:
        _infer(checked.sig, [], parse_term_str("app lam"))
    assert "expected tm" in exc.value.message
    assert "(tm -> tm) -> tm" in exc.value.message


def test_infer_with_typing_ctx(checked):
    # a context lists simple types, Var(0) its last one
    from orbi_forge.syntax import Var

    tm = checked.sig.entries["tm"].simple
    t = App(App(Const("app"), Var(0)), Var(0))
    assert _infer(checked.sig, [tm], t) is tm


def test_bare_lambda_cannot_be_inferred(checked):
    with raises_code("E-TYPE"):
        _infer(checked.sig, [], parse_term_str(r"\x. x"))


def test_infer_redex_applied_to_two_arguments(checked):
    tm = checked.sig.entries["tm"].simple
    ctx = [tm, tm]  # a, b
    t = parse_term_str(r"(\x. \y. x) a b", binders=("a", "b"))
    assert _infer(checked.sig, ctx, t) is tm
    # a discarded argument is typed too, first or last
    with raises_code("E-TYPE"):
        _infer(checked.sig, ctx, parse_term_str(r"(\x. \y. x) a (app lam)", binders=("a",)))
    with raises_code("E-TYPE"):
        _infer(checked.sig, ctx, parse_term_str(r"(\x. \y. y) (app lam) b", binders=("a", "b")))


# ------------------------------------------------------------ reconstruction


def test_reconstruct_ae_a(checked):
    entry = checked.sig.entries["ae_a"]
    assert entry.implicit == ("M1", "N1", "M2", "N2")
    tp = closed_decl(entry).tp
    for name in ("M1", "N1", "M2", "N2"):
        assert isinstance(tp, Pi) and tp.hint == name
        assert tp.dom == AtomApp("tm")
        tp = tp.cod
    assert closed(closed_decl(entry).tp)


def test_reconstruct_ae_l(checked):
    entry = checked.sig.entries["ae_l"]
    assert entry.implicit == ("M", "N")
    tp = closed_decl(entry).tp
    for name in ("M", "N"):
        assert isinstance(tp, Pi) and tp.hint == name
        assert tp.dom == Arrow(AtomApp("tm"), AtomApp("tm"))
        tp = tp.cod


def test_reconstruct_rejects_non_pattern():
    src = make_spec(
        syntax="tm: type.",
        judgments="aeq: tm -> tm -> type.",
        rules="bad: aeq M (M M).",
    )
    with raises_code("E-RECON"):
        check_signature(parse_spec(src))


def test_reconstruct_closes_rule(checked, corpus_spec):
    rule = corpus_spec.rules[0]
    rec = closed_decl(_reconstruct(checked.sig, rule))
    assert closed(rec.tp)
    assert tp_str(rec.tp, []).startswith("{M1:tm} {N1:tm} {M2:tm} {N2:tm}")


def test_all_corpus_rules_closed_after_reconstruction(checked):
    for entry in checked.sig.rules():
        assert closed(closed_decl(entry).tp), entry.decl.name


_FAULT_DECLS = "t: type.\nc0: t.\nc1: t -> t.\nc2: t -> t -> t.\ncb: (t -> t) -> t."
_FAULT_SYNTAX = make_spec(syntax=_FAULT_DECLS, judgments="j: t -> t -> type.")

# Rows with a level-1 Pi domain or a rule used as a term.  Only they get the
# judgment k and the rules r0 and r2, so that k stays unknown to the others.
_DEPENDENT_SYNTAX = make_spec(
    syntax=_FAULT_DECLS, judgments="j: t -> t -> type.\nk: t -> t -> type."
)
_DEPENDENT_RULES = "r0: {x:t} j x x.\nr2: j M N -> k M N.\n"
_LEVEL1_VAR = "a variable of a non-level-0 type used as a term"
_LEVEL0_PREMISE = "a premise must end in a judgment, not in the level-0 family 't'"
_DEPENDENT_FAULTS = [
    # a term is level-0: a variable of a level-1 type or a rule is none
    ("{x:t} {d: j x x} k d d", "E-TYPE", _LEVEL1_VAR),
    # a Pi over a type that mentions a judgment is a premise, as its arrow
    # is, so it must end in a judgment, before any term may use its variable
    ("{d: j c0 c0} {f: j c0 c0 -> t} j (f d) c0", "E-LEVEL", _LEVEL0_PREMISE),
    ("{f: j c0 c0 -> t} j (f (r0 c0)) c0", "E-LEVEL", _LEVEL0_PREMISE),
    ("{f: j c0 c0 -> t} k c0 c0", "E-LEVEL", _LEVEL0_PREMISE),
    ("j (r0 c0) c0", "E-TYPE", "rule 'r0' used as a term"),
    ("j (r2 c0 c0 X) c0", "E-TYPE", "rule 'r2' used as a term"),
    (r"j (cb (\x. r0 x)) c0", "E-TYPE", "rule 'r0' used as a term"),
    (
        "{d: j c0 c0} j (M d) c0",
        "E-RECON",
        "schematic variable 'M' applied to a variable of a non-level-0 type",
    ),
]

_ATOMIC_APPLIED = "term of atomic type 't' applied to an argument"


@pytest.mark.parametrize(
    "rule, code, message",
    [
        (r"j (\x. x) c0", "E-RECON", "lambda used where 't' is expected"),
        (r"j (c1 (\x. x)) c0", "E-RECON", "lambda used where 't' is expected"),
        ("j (cb c0) c0", "E-TYPE", "expected t -> t, got t"),
        ("j c1 c0", "E-TYPE", "expected t, got t -> t"),
        ("j (c1 c0 c0) c0", "E-TYPE", _ATOMIC_APPLIED),
        ("j t c0", "E-TYPE", "type family 't' used as a term"),
        ("{x:t} j (x c0) c0", "E-TYPE", _ATOMIC_APPLIED),
        (
            r"j (cb (\x. M c0)) c0",
            "E-RECON",
            "schematic variable 'M' must be applied to bound variables only",
        ),
        (
            r"j (cb (\x. c2 (F x x) x)) c0",
            "E-RECON",
            "schematic variable 'F' applied to repeated bound variables",
        ),
        (
            r"j (cb (\x. M x)) M",
            "E-RECON",
            "schematic variable 'M' used at incompatible types 't -> t' and 't'",
        ),
        ("k c0", "E-UNBOUND", "unknown type family 'k'"),
        ("j c0", "E-KIND", "type family 'j' is not fully applied"),
        ("j c0 c0 c0", "E-KIND", "type family 'j' applied to too many arguments"),
        ("t", "E-LEVEL", "rule 'r' must target a level-1 judgment family"),
        # a premise is a judgment, or a level-0 type that binds a variable
        (
            "(j c0 c0 -> t) -> j c0 c0",
            "E-LEVEL",
            "a premise must end in a judgment, not in the level-0 family 't'",
        ),
        # a redex is reconstructed through its normal form but checked as written
        (r"j ((\x. c0) M) c0", "E-UNBOUND", "unbound identifier 'M'"),
        (r"j ((\x. c0) t) c0", "E-TYPE", "type family 't' used as a term"),
        (r"j ((\f. f (\y. y)) c1) c0", "E-TYPE", "expected t, got a lambda"),
        # the argument a redex discards is typed too; this one has no type
        # and no normal form
        (r"j ((\x. c0) ((\y. y y) (\y. y y))) c0", "E-TYPE", "cannot infer the type of a bare lambda"),
        # a redex that mentions no schematic is typed before it is contracted
        (
            r"j ((\x. x x) (\x. x x)) c0",
            "E-TYPE",
            "cannot infer the type of a bare lambda",
        ),
        (r"{u: j ((\x. x) c0) c0} j u c0", "E-TYPE", _LEVEL1_VAR),
        # two faults: the first in left-to-right order is reported
        (r"j (cb c0) c0 -> j (M c0) c0", "E-TYPE", "expected t -> t, got t"),
        ("j M N.\nq: j r c0", "E-TYPE", "rule 'r' used as a term"),
        *_DEPENDENT_FAULTS,
    ],
)
def test_rule_fault_classes(rule, code, message):
    head, rules = _FAULT_SYNTAX, ""
    if (rule, code, message) in _DEPENDENT_FAULTS:
        head, rules = _DEPENDENT_SYNTAX, _DEPENDENT_RULES
    with pytest.raises(OrbiError) as exc:
        check_signature(parse_spec(head + f"\n%% Rules\n{rules}r: {rule}.\n"))
    assert (exc.value.code, exc.value.message) == (code, message)


@pytest.mark.parametrize(
    "rule, implicit",
    [
        (r"j ((\x. x) M) c0", ("M",)),
        (r"j ((\x. c0) M) M", ("M",)),
        (r"j (cb (\x. cb (\y. M y x))) N", ("M", "N")),
        (r"j ((\x. c2 x M) N) c0", ("N", "M")),
        # implicits come in first-occurrence order of the normal form j (c2 N M) c0
        (r"j ((\x. \y. c2 y x) M N) c0", ("N", "M")),
    ],
)
def test_rule_reconstructs(rule, implicit):
    sig = check_signature(parse_spec(_FAULT_SYNTAX + f"\n%% Rules\nr: {rule}.\n"))
    entry = sig.entries["r"]
    assert entry.implicit == implicit
    assert closed(closed_decl(entry).tp)


_VACUOUS_SIG = make_spec(
    syntax="tm: type.\nc: tm.\nlam: ({x:tm} tm) -> tm.\napp2: (tm -> tm) -> tm.\nf: tm -> tm.",
    judgments="j: tm -> type.",
)


def _verdict(source):
    """The code of the first diagnostic of ``check``, then of ab translation,
    or None; a RecursionError is E-DEPTH, as the command line reports it."""
    try:
        translate_spec(check_all(source), "ab")
    except OrbiError as e:
        return e.code
    except RecursionError:
        return "E-DEPTH"
    return None


@pytest.mark.parametrize(
    "rule, code",
    [
        pytest.param("r: j (lam f).", None, id="vacuous-pi-constant"),
        pytest.param("r: {g: tm -> tm} j (lam g).", None, id="vacuous-pi-bound"),
        pytest.param("r: {g: {y:tm} tm} j (app2 g).", None, id="vacuous-pi-mirror"),
        pytest.param("t: (tm -> j c) -> j c.", None, id="level0-arrow-premise"),
        pytest.param("t: ({x:tm} j c) -> j c.", None, id="level0-pi-premise"),
    ],
)
def test_vacuous_pi_and_its_arrow(rule, code):
    assert _verdict(_VACUOUS_SIG + f"\n%% Rules\n{rule}\n") == code


@pytest.mark.parametrize(
    "pi, arrow",
    [
        pytest.param("{D:j c} k c", "j c -> k c", id="outermost"),
        pytest.param("({D:j c} k c) -> k c", "(j c -> k c) -> k c", id="in-premise"),
        pytest.param(
            "{x:tm} ({D:j x} {y:tm} {E:k y} j y) -> k x",
            "{x:tm} (j x -> {y:tm} k y -> j y) -> k x",
            id="nested",
        ),
    ],
)
def test_pi_over_judgment_is_stored_as_its_arrow(pi, arrow):
    # no term may use its variable, so lf stores it as the arrow it is, at
    # any depth, as it stores an arrow from a level-0 domain as a Pi
    src = make_spec(
        syntax="tm: type.\nc: tm.",
        judgments="j: tm -> type.\nk: tm -> type.",
        rules=f"r: {pi}.\ns: {arrow}.",
    )
    sig = check_all(src).sig
    assert sig.entries["r"].decl.tp == sig.entries["s"].decl.tp


@pytest.mark.parametrize(
    "rule, code",
    [
        pytest.param(r"j ((\x. x x) (\x. M (x x))) c0", "E-TYPE", id="schematic-omega"),
        pytest.param(
            "j " + "((\\x. x) " * 1000 + "c0" + ")" * 1000 + " c0", "E-DEPTH", id="nested-redexes"
        ),
    ],
)
def test_redex_rule_verdicts(rule, code):
    assert _verdict(_FAULT_SYNTAX + f"\n%% Rules\nr: {rule}.\n") == code


def _free_names(sig, tp, out):
    """Identifiers of ``tp`` that ``sig`` does not declare, in source order."""

    def term(t):
        if isinstance(t, Const):
            if t.name not in sig.entries and t.name not in out:
                out.append(t.name)
        elif isinstance(t, Lam):
            term(t.body)
        elif isinstance(t, App):
            term(t.fn)
            term(t.arg)

    if isinstance(tp, AtomApp):
        for a in tp.args:
            term(a)
    else:
        _free_names(sig, tp.dom, out)
        _free_names(sig, tp.cod, out)
    return out


def _beta_normal(tp, env=()):
    """Whether every term of ``tp`` is beta-normal by the named oracle."""
    if isinstance(tp, AtomApp):
        return all(lamoracle.beta_normal(lamoracle.from_core(a, env)) for a in tp.args)
    inner = env + (f"p{len(env)}",) if isinstance(tp, Pi) else env
    return _beta_normal(tp.dom, env) and _beta_normal(tp.cod, inner)


def _assert_canonical(spec, sig):
    # every stored type is beta-normal and has the beta-eta normal form of
    # the type as written, and every stored kind is indexed by level-0 types
    # only, so it contains no term
    written = {decl.name: decl for _, decl in spec.decls_in_order()}
    for entry in sig.entries.values():
        if isinstance(entry.decl, ConstDecl):
            name = entry.decl.name
            assert _beta_normal(entry.decl.tp), name
            assert normalize(entry.decl.tp) == normalize(written[name].tp), name
        else:
            doms = [d for d, _ in chain(entry.decl.kind)[1][:-1]]
            assert all(sig.entries[f].level == 0 for d in doms for f in free(d)), entry.decl.name


def _assert_sound(spec, sig):
    # every rule the single hole-mode pass accepts must pass the plain
    # checker once closed, bind no free identifier, and list its implicits
    # in the order they first occur in the rule's normal form, which is the
    # form reconstruction reads redexes in
    _assert_canonical(spec, sig)
    written = {d.name: d for d in spec.rules}
    n = 0
    for entry in sig.rules():
        rule = closed_decl(entry)
        check_tp(sig, [], rule.tp)
        assert closed(rule.tp), entry.decl.name
        expected = _free_names(sig, normalize(written[entry.decl.name].tp), [])
        assert entry.implicit == tuple(expected), entry.decl.name
        n += 1
    return n


def test_reconstruction_sound_against_plain_check(corpus_spec):
    n = _assert_sound(corpus_spec, check_signature(corpus_spec))
    for seed in range(50):
        spec = parse_spec(gen_rules_source(random.Random(seed), 20)[0])
        n += _assert_sound(spec, check_signature(spec))
    assert n == 8 + 50 * 20


def test_reconstruction_sound_on_noisy_rules():
    # one rule per spec, so that a rejected rule hides no other; about half
    # carry an injected fault, and every rule the checker accepts must be sound
    accepted = with_redex = with_two_arg_redex = 0
    for seed in range(400):
        source = gen_noisy_rules_source(random.Random(seed), 1)
        spec = parse_spec(source)
        try:
            sig = check_signature(spec)
        except OrbiError:
            continue
        accepted += _assert_sound(spec, sig)
        with_redex += "((\\" in source
        with_two_arg_redex += re.search(r"\(\(\\\w\. \\", source) is not None
    counts = (accepted, with_redex, with_two_arg_redex)
    assert accepted >= 150 and with_redex >= 100 and with_two_arg_redex >= 30, counts


def test_rule_must_target_judgment():
    src = make_spec(syntax="tm: type.\nc: tm.", judgments="j: tm -> type.", rules="r: tm.")
    with raises_code("E-LEVEL"):
        check_signature(parse_spec(src))


# ---------------------------------------------------------------- invariants


def test_normalize_idempotent_and_subject_reduction_sample(checked):
    rng = random.Random(7)
    for _ in range(60):
        t = gen_tm_term(rng, 4)
        n = normalize(t)
        assert normalize(n) == n
        before = _infer(checked.sig, [], t)
        after = _infer(checked.sig, [], n)
        assert normalize(before) == after
        assert _agrees_with_oracle(t)


def test_dependent_application_substitutes():
    # a rule applied as a term is rejected at its head, before its argument
    # is typed, so its Pi-prefix is never instantiated
    for arg in (r"((\x. x) c)", "(c c)"):
        src = make_spec(
            syntax="tm: type.\nc: tm.",
            judgments="eq: tm -> tm -> type.",
            rules=f"refl: {{M:tm}} eq M M.\nbad: eq (refl {arg}) c.",
        )
        with pytest.raises(OrbiError) as exc:
            check_signature(parse_spec(src))
        assert (exc.value.code, exc.value.message) == ("E-TYPE", "rule 'refl' used as a term")
