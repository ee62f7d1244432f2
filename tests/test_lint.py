import pytest

from helpers import check_all, make_spec
from orbi_forge.lint import lint


def _codes(src):
    return [d.code for d in lint(check_all(src))]


def test_corpus_is_clean(checked):
    assert lint(checked) == []


def test_lint_idempotent(checked):
    assert lint(checked) == lint(checked)


def test_l1_lowercase_schematic_variable():
    src = make_spec(
        syntax="tm: type.\napp: tm -> tm -> tm.",
        judgments="aeq: tm -> tm -> type.",
        rules="ae_a: aeq m1 N1 -> aeq (app m1 m1) (app N1 N1).",
    )
    diags = lint(check_all(src))
    l1 = [d for d in diags if d.code == "L1"]
    assert len(l1) == 1
    assert "m1" in l1[0].message
    assert "M1" in l1[0].hint


def test_l1_uppercase_eigenvariable():
    src = make_spec(
        syntax="tm: type.\nc: tm.",
        judgments="j: tm -> type.",
        rules="r: ({X:tm} j X) -> j c.",
    )
    assert "L1" in _codes(src)


def test_l1_uppercase_lambda_hints_warn_in_source_order():
    # the walk skips the leaves c and x but enters both lambdas, left to right
    src = make_spec(
        syntax="tm: type.\nc: tm.\nlam: (tm -> tm) -> tm.\napp: tm -> tm -> tm.",
        judgments="j: tm -> tm -> type.",
        rules=r"r: {x:tm} j c (app (lam (\Y. app x Y)) (app c (lam (\X. X)))).",
    )
    l1 = [d.message for d in lint(check_all(src)) if d.code == "L1"]
    assert l1 == [
        "eigenvariable 'Y' should be lowercase",
        "eigenvariable 'X' should be lowercase",
    ]


def test_l1_uppercase_context_variable():
    src = make_spec(
        syntax="tm: type.",
        schemas="schema xG = block (x:tm);",
        theorems="theorem t: {G:xG} true;",
    )
    assert "L1" in _codes(src)


def test_l2_non_level0_quantification():
    src = make_spec(
        syntax="tm: type.\nc: tm.",
        judgments="j: tm -> type.",
        rules="r: ({D:j c} j c) -> j c.",
    )
    assert "L2" in _codes(src)


@pytest.mark.parametrize(
    "rule, domains",
    [
        ("r3: {x:t} {d: j x x} k x x.", ["j x x"]),
        # a nested chain's domain names its own binders and the outer ones
        ("r4: {y:t} ({d: j y y} {x:t} {e: k x y} j c0 c0) -> k y y.", ["j y y", "k x y"]),
    ],
)
def test_l2_prints_the_domain_under_the_binder_names_of_fmt(rule, domains):
    src = make_spec(
        syntax="t: type.\nc0: t.",
        judgments="j: t -> t -> type.\nk: t -> t -> type.",
        rules=rule,
    )
    l2 = [d.message for d in lint(check_all(src)) if d.code == "L2"]
    assert l2 == [f"quantification over the non-level-0 type {dom!r}" for dom in domains]


def test_l1_and_l2_only_in_rules():
    # a constructor's upper-case Pi hint and a block entry's Pi over a
    # judgment are no eigenvariables of a rule
    src = make_spec(
        syntax="tm: type.\nlam: ({X:tm} tm) -> tm.",
        judgments="j: tm -> type.",
        schemas="schema xG = block (x:tm, u:{d: j x} j x);",
    )
    assert _codes(src) == ["L3", "L3"]


def test_l3_vacuous_pi_suggests_arrow():
    src = make_spec(syntax="tm: type.\nk: {x:tm} tm.")
    diags = lint(check_all(src))
    l3 = [d for d in diags if d.code == "L3"]
    assert len(l3) == 1
    assert "A -> B" in l3[0].hint


def test_l3_does_not_fire_on_dependent_pi():
    src = make_spec(
        syntax="tm: type.\nc: tm.",
        judgments="j: tm -> type.",
        rules="r: {x:tm} j x.",
    )
    assert "L3" not in _codes(src)


def test_l4_repeated_names_across_blocks():
    src = make_spec(
        syntax="tm: type.\nc: tm.",
        judgments="j: tm -> type.",
        schemas="schema xG = block (x:tm);",
        theorems="theorem t: {g:xG} [g, b1:block (y:tm), b2:block (y:tm) |- j c];",
    )
    diags = lint(check_all(src))
    assert [d.code for d in diags] == ["L4"]


def test_l4_scope_is_one_context_expression(checked):
    # the same label in blocks of two different patterns is fine (corpus Rxa)
    assert all(d.code != "L4" for d in lint(checked))


def test_lint_severity_is_warning():
    src = make_spec(syntax="tm: type.\nk: {x:tm} tm.")
    diags = lint(check_all(src))
    assert all(d.severity == "warning" for d in diags)


def test_fix_hints_remove_their_diagnostic():
    # applying the L1 hint clears the warning without introducing new ones
    src = make_spec(
        syntax="tm: type.\napp: tm -> tm -> tm.",
        judgments="aeq: tm -> tm -> type.",
        rules="ae_a: aeq m1 N1 -> aeq (app m1 m1) (app N1 N1).",
    )
    assert _codes(src) == ["L1"]
    assert _codes(src.replace("m1", "M1")) == []
    # same for the L3 hint
    vacuous = make_spec(syntax="tm: type.\nk: {x:tm} tm.")
    assert _codes(vacuous) == ["L3"]
    assert _codes(vacuous.replace("{x:tm} tm", "tm -> tm")) == []
