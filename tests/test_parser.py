import glob
import os
import random
import sys

import pytest

from helpers import make_spec, raises_code
from specgen import gen_spec
from test_lexer import _reference_tokenize
from orbi_forge import corpus_source, parse_spec
from orbi_forge.parser import parse_directive_line, parse_term_str, parse_tpkind_str
from orbi_forge.pretty import spec_str
from orbi_forge.syntax import (
    SECTIONS,
    And,
    App,
    Arrow,
    AtomApp,
    Block,
    Const,
    CtxPattern,
    Directive,
    ExistsTm,
    ForallCtx,
    ForallTm,
    Imp,
    Judgment,
    Lam,
    Or,
    Pi,
    RelApp,
    Separator,
    TermEq,
    TrueP,
    TYPE,
    Var,
)


def test_corpus_section_counts(corpus_spec):
    assert len(corpus_spec.syntax_decls) == 3
    assert len(corpus_spec.judgment_decls) == 2
    assert len(corpus_spec.rules) == 8
    assert len(corpus_spec.schemas) == 4
    assert len(corpus_spec.definitions) == 2
    assert len(corpus_spec.theorems) == 4


def test_theorem_ast_shape():
    spec = parse_spec(make_spec(theorems="theorem reflG: {h:xaG}{M:tm} [h |- aeq M M];"))
    (thm,) = spec.theorems
    assert thm.name == "reflG"
    assert thm.statement == ForallCtx(
        "h",
        "xaG",
        ForallTm(
            "M",
            AtomApp("tm"),
            Judgment(CtxPattern("h"), "aeq", (Const("M"), Const("M"))),
        ),
    )


def test_malformed_decl_reports_expected_type():
    with raises_code("E-PARSE") as exc:
        parse_spec(make_spec(syntax="lam: tm ->."))
    (diag,) = exc.value.diagnostics
    assert diag.code == "E-PARSE"
    assert diag.production == "tp"
    assert "'.'" in diag.message


def test_error_recovery_reports_all_errors():
    src = make_spec(syntax="a: -> b.\ntm: type.\nc: tm tm tm.\nd: {x} tm.")
    with raises_code("E-PARSE") as exc:
        parse_spec(src)
    diags = exc.value.diagnostics
    assert len(diags) >= 2
    assert all(d.code == "E-PARSE" for d in diags)


def test_declaration_before_any_section_rejected():
    with raises_code("E-PARSE") as exc:
        parse_spec("tm: type.\n")
    assert "section separator" in exc.value.diagnostics[0].message


def test_ctx_var_only_at_head():
    src = make_spec(
        schemas="schema xG = block (x:tm);",
        definitions="inductive R : {g:xG} prop =\n| R_c: R [g, h];",
    )
    with raises_code("E-PARSE"):
        parse_spec(src)


# ----------------------------------------- grammar coverage: signatures


def test_const_and_family_decls():
    spec = parse_spec(make_spec(syntax="tm: type.\napp: tm -> tm -> tm."))
    fam, const = spec.syntax_decls
    assert fam.kind is TYPE
    assert const.tp == Arrow(AtomApp("tm"), Arrow(AtomApp("tm"), AtomApp("tm")))


def test_reverse_arrow_normalized_at_parse():
    spec = parse_spec(make_spec(syntax="tm: type.\nf: tm <- tm."))
    assert spec.syntax_decls[1].tp == Arrow(AtomApp("tm"), AtomApp("tm"))


def test_reverse_arrow_chain_left_assoc():
    # a <- b <- c reads ((a <- b) <- c), i.e. c -> b -> a
    node = parse_tpkind_str("a <- b <- c")
    assert node == Arrow(AtomApp("c"), Arrow(AtomApp("b"), AtomApp("a")))


def test_mixed_arrows_rejected():
    with raises_code("E-PARSE"):
        parse_tpkind_str("a <- b -> c")


def test_kind_productions():
    # a kind is an arrow or Pi chain that ends in the one `type` atom
    assert parse_tpkind_str("type") is TYPE
    assert parse_tpkind_str("tm -> type") == Arrow(AtomApp("tm"), TYPE)
    # repr, not ==: equality ignores binder hints and block labels, which
    # the parser must still keep
    assert repr(parse_tpkind_str("{x:tm} type")) == repr(Pi("x", AtomApp("tm"), TYPE))
    assert parse_tpkind_str("tm -> (tm -> type)").cod.cod is TYPE


def test_tp_productions():
    assert parse_tpkind_str("a M (f x)") == AtomApp(
        "a", (Const("M"), App(Const("f"), Const("x")))
    )
    assert repr(parse_tpkind_str("{x:tm} a x")) == repr(
        Pi("x", AtomApp("tm"), AtomApp("a", (Var(0),)))
    )


def test_term_productions():
    assert parse_term_str("c") == Const("c")
    assert repr(parse_term_str(r"\x. x")) == repr(Lam("x", Var(0)))
    assert parse_term_str("f a b") == App(App(Const("f"), Const("a")), Const("b"))


def test_schema_alternatives_and_blocks():
    spec = parse_spec(
        make_spec(
            syntax="tm: type.\ntp: type.",
            schemas="schema xG = block (x:tm) + block (a:tp);",
        )
    )
    (schema,) = spec.schemas
    assert len(schema.alternatives) == 2


def test_block_entry_scoping_is_positional():
    spec = parse_spec(
        make_spec(
            syntax="tm: type.",
            judgments="aeq: tm -> tm -> type.",
            schemas="schema xaG = block (x:tm, u:aeq x x);",
        )
    )
    block = spec.schemas[0].alternatives[0]
    assert repr(block) == repr(
        Block((("x", AtomApp("tm")), ("u", AtomApp("aeq", (Var(0), Var(0))))))
    )


def test_bare_block_without_parens_accepted():
    spec = parse_spec(make_spec(syntax="tm: type.", schemas="schema xG = block x:tm;"))
    assert spec.schemas[0].alternatives[0].entries[0][0] == "x"


# ---------------------------- grammar coverage: inductive definitions


def test_inductive_definition_shape(corpus_spec):
    rxa = corpus_spec.definitions[0]
    assert rxa.name == "Rxa"
    assert rxa.params == (("g", "xG"), ("h", "xaG"))
    assert [c[0] for c in rxa.clauses] == ["Rxa_nl", "Rxa_cs"]
    assert rxa.clauses[0][1:] == ((), RelApp("Rxa", (CtxPattern(), CtxPattern())))
    _, premises, head = rxa.clauses[1]
    assert premises == (RelApp("Rxa", (CtxPattern("g"), CtxPattern("h"))),)
    assert [label for label, _ in head.ctxs[0].blocks] == ["b"]


def test_ctx_productions():
    src = make_spec(
        syntax="tm: type.",
        schemas="schema xG = block (x:tm);",
        definitions=(
            "inductive R : {g:xG} prop =\n"
            "| R_a: R []\n"
            "| R_b: R [g]\n"
            "| R_c: R [g, b:block (x:tm)]\n"
            "| R_d: R [b:block (x:tm)];"
        ),
    )
    spec = parse_spec(src)
    pats = [head.ctxs[0] for _, _, head in spec.definitions[0].clauses]
    assert pats[0] == CtxPattern()
    assert pats[1] == CtxPattern("g")
    assert pats[2].var == "g" and [label for label, _ in pats[2].blocks] == ["b"]
    assert pats[3].var is None and [label for label, _ in pats[3].blocks] == ["b"]


def test_block_commas_bind_tighter_than_context_commas():
    src = make_spec(
        syntax="tm: type.",
        judgments="aeq: tm -> tm -> type.",
        schemas="schema xG = block (x:tm);",
        definitions=(
            "inductive R : {g:xG} prop =\n"
            "| R_c: R [g, b:block (x:tm, u:aeq x x), c:block (y:tm)];"
        ),
    )
    pat = parse_spec(src).definitions[0].clauses[0][2].ctxs[0]
    assert pat.var == "g"
    assert [(label, len(block.entries)) for label, block in pat.blocks] == [("b", 2), ("c", 1)]


# ------------------------------------------- grammar coverage: theorems


def test_prp_productions():
    src = make_spec(
        theorems=(
            "theorem t: {g:xaG}{M:tm}<N:tm> "
            "R [g] -> [g |- aeq M M] || M = N & true -> false;"
        )
    )
    (thm,) = parse_spec(src).theorems
    body = thm.statement
    assert isinstance(body, ForallCtx)
    assert isinstance(body.body, ForallTm)
    assert isinstance(body.body.body, ExistsTm)


def test_prp_precedence():
    spec = parse_spec(make_spec(theorems="theorem t: P -> Q || R & S;"))
    stmt = spec.theorems[0].statement
    assert stmt == Imp(RelApp("P"), Or(RelApp("Q"), And(RelApp("R"), RelApp("S"))))


def test_quantifier_scopes_to_the_right():
    spec = parse_spec(make_spec(theorems="theorem t: {M:tm} P -> Q;"))
    stmt = spec.theorems[0].statement
    assert isinstance(stmt, ForallTm) and isinstance(stmt.body, Imp)


def test_unknown_single_id_classified_by_var_case():
    spec = parse_spec(make_spec(theorems="theorem bad: {g:noSuch} [g |- aeq M M];"))
    assert isinstance(spec.theorems[0].statement, ForallCtx)
    spec2 = parse_spec(make_spec(theorems="theorem t: {M:noSuch} true;"))
    assert isinstance(spec2.theorems[0].statement, ForallTm)


def test_term_equality_and_truth():
    spec = parse_spec(make_spec(theorems="theorem t: app M N = M -> true;"))
    stmt = spec.theorems[0].statement
    assert stmt == Imp(
        TermEq(App(App(Const("app"), Const("M")), Const("N")), Const("M")), TrueP()
    )


# ------------------------------------------------------------- directives


def test_parse_directive_annotation():
    d = parse_directive_line("%% wf [hy,ab] in tm")
    assert d == Directive("wf", ("hy", "ab"), "tm", False)


def test_parse_directive_separator():
    assert parse_directive_line("%% Syntax") == Separator("Syntax")


def test_parse_directive_ctx_dest():
    d = parse_directive_line("%% explicit [hy,ab] in [g]")
    assert d == Directive("explicit", ("hy", "ab"), "g", True)


@pytest.mark.parametrize(
    "line, plain",
    [
        ("%% wf [hy, ab] in tm", "%% wf [hy,ab] in tm"),
        ("%%\twf [ab,ab] in [ g ]", "%% wf [ab] in [g]"),
        ("%% explicit [ab,,hy] in M", "%% explicit [ab,hy] in M"),
        ("  %%  implicit[ tw ,bel ]in\tx  ", "%% implicit [tw,bel] in x"),
        ("%%\tRules ", "%% Rules"),
    ],
)
def test_parse_directive_blanks_and_repeats(line, plain):
    assert parse_directive_line(line) == parse_directive_line(plain)


def test_parse_directive_empty_system_set():
    with raises_code("E-DIR") as exc:
        parse_directive_line("%% wf [ , ] in tm")
    assert exc.value.message == "empty system set"


def test_parse_directive_unknown_system():
    with raises_code("E-DIR") as exc:
        parse_directive_line("%% wf [xy] in tm")
    assert "xy" in exc.value.message


def test_parse_directive_malformed():
    with raises_code("E-DIR"):
        parse_directive_line("%% frobnicate [ab] in tm")
    with raises_code("E-DIR"):
        parse_directive_line("%% Syntax trailing")
    with raises_code("E-DIR") as exc:
        parse_directive_line("%%")
    assert exc.value.message == "empty directive line"


def test_parse_term_str_rejects_trailing_input():
    with raises_code("E-PARSE") as exc:
        parse_term_str("c )")
    assert exc.value.message == "trailing input ')'"


def test_section_discipline_enforced():
    with raises_code("E-PARSE"):
        parse_spec("%% Syntax\nschema xG = block (x:tm);\n")
    with raises_code("E-PARSE"):
        parse_spec("%% Directives\ntm: type.\n")


def test_interleaved_sections_preserve_declaration_order():
    src = (
        "%% Syntax\ntm: type.\n"
        "%% Judgments\nj: tm -> type.\n"
        "%% Syntax\nc: tm.\n"
        "%% Rules\nr: j c.\n"
    )
    spec = parse_spec(src)
    assert [d.name for d in spec.syntax_decls] == ["tm", "c"]
    order = [d.name for _, d in spec.decls_in_order()]
    assert order == ["tm", "j", "c", "r"]
    from helpers import check_all

    checked = check_all(src)
    assert checked.sig.entries["c"].level == 0
    assert spec.section_text("Syntax") == "tm: type.\nc: tm."


# ------------------------------------------------- locations from the lexer

def _reference_item_locs(source):
    """(line, col) of the first token of every parsed item, and the section
    spans, both worked out from the character-loop reference tokenizer."""
    toks = _reference_tokenize(source)
    locs, spans = [], []
    section = seg_start = None
    for k, (kind, lexeme, loc, start, end) in enumerate(toks):
        if kind == "directive":
            body = lexeme[2:].strip()
            if body in SECTIONS:
                if section is not None:
                    spans.append((section, seg_start, start))
                section, seg_start = body, end
            else:
                locs.append(loc)
        elif kind == "kw" and lexeme in ("schema", "inductive", "theorem"):
            locs.append(loc)
        elif (
            kind in ("id", "uid")
            and section in ("Syntax", "Judgments", "Rules")
            and toks[k + 1][1] == ":"
            # after a directive or a declaration's final '.', not a lambda's
            and (toks[k - 1][0] == "directive" or (toks[k - 1][1] == "." and toks[k - 3][1] != "\\"))
        ):
            locs.append(loc)
    if section is not None:
        spans.append((section, seg_start, len(source)))
    return locs, spans


def _location_sources():
    eq = corpus_source()
    yield "eq.orbi", eq
    yield "eq.orbi, CRLF", eq.replace("\n", "\r\n")
    yield "eq.orbi, tabs", "\n".join("\t " + line.replace(" ", "\t") for line in eq.split("\n"))
    tests_dir = os.path.dirname(__file__)
    for path in sorted(glob.glob(os.path.join(tests_dir, "**", "*.orbi"), recursive=True)):
        with open(path, encoding="utf-8", newline="") as f:
            yield os.path.relpath(path, tests_dir), f.read()
    for seed in range(20):
        yield f"gen_spec({seed})", spec_str(gen_spec(random.Random(seed)))


def test_item_locations_and_spans_match_reference_tokens():
    for name, source in _location_sources():
        spec = parse_spec(source)
        locs, spans = _reference_item_locs(source)
        assert [(n.loc.line, n.loc.col) for _, n in spec.items] == locs, name
        assert list(spec.section_spans) == spans, name


@pytest.mark.parametrize(
    "source, expected",
    [
        # end of input, also after trailing blank lines
        ("%% Syntax\ntm: type", [(2, 9, "expected '.' but found 'end of input'")]),
        ("%% Syntax\ntm: type\n\n  ", [(4, 3, "expected '.' but found 'end of input'")]),
        ("%% Syntax\ntm: type.\napp: tm ->", [(3, 11, "expected a type but found 'end of input'")]),
        # CRLF line ends count one line each
        ("%% Syntax\r\ntm: type.\r\napp tm.\r\n", [(3, 5, "expected ':' but found 'tm'")]),
        # a tab is one column
        ("%% Syntax\n\ttm:\t.\n", [(2, 6, "expected a type but found '.'")]),
        # the second error of a two-error file
        (
            "%% Syntax\ntm: .\napp: tm -> .\n",
            [(2, 5, "expected a type but found '.'"), (3, 12, "expected a type but found '.'")],
        ),
        (
            "%% Syntax\r\n\ttm: type.\r\n\t\tapp: tm -> tm\r\n%% Rules\r\n\tr: .",
            [(4, 1, "expected '.' but found '%% Rules'"), (5, 5, "expected a type but found '.'")],
        ),
        # every exit of the term loop: no term in parentheses or after a dot
        ("%% Rules\nr: j ().\n", [(2, 7, "expected a term but found ')'")]),
        ("%% Rules\nr: j (lam (\\x.)).\n", [(2, 15, "expected a term but found ')'")]),
        # a lambda after a head ends the spine, so its parenthesis is open
        (
            "%% Rules\nr: j (app \\x. x) c.\n",
            [(2, 11, "expected ')' but found '\\\\'"), (2, 16, "expected ':' but found ')'")],
        ),
        ("%% Rules\nr: j (lam (\\x. app x x).\n", [(2, 24, "expected ')' but found '.'")]),
        ("%% Rules\nr: j (lam (\\x. x)\ns: j c.\n", [(3, 2, "expected ')' but found ':'")]),
        (
            "%% Rules\nr: j (lam (\\. x)).\n",
            [(2, 13, "expected an identifier but found '.'"), (2, 16, "expected ':' but found ')'")],
        ),
        ("%% Rules\nr: j (lam (\\", [(2, 13, "expected an identifier but found 'end of input'")]),
        ("%% Rules\nr: j (lam (\\x x)).\n", [(2, 15, "expected '.' but found 'x'")]),
        # and of the type loop
        ("%% Rules\nr: j c ->.\n", [(2, 10, "expected a type but found '.'")]),
        ("%% Rules\nr: j M <- {x:tm} j x.\n", [(2, 11, "expected a type but found '{'")]),
        ("%% Rules\nr: (j M -> j M.\n", [(2, 15, "expected ')' but found '.'")]),
        ("%% Rules\nr: {x tm} j x.\n", [(2, 7, "expected ':' but found 'tm'")]),
        ("%% Rules\nr: {x:tm j x.\n", [(2, 13, "expected '}' but found '.'")]),
        ("%% Rules\nr: j M <- j N -> j M.\n", [(2, 15, "cannot mix '->' and '<-' without parentheses")]),
        (
            "%% Rules\nr: j M -> j N <- j M <- j N -> j M.\n",
            [(2, 15, "cannot mix '->' and '<-' without parentheses")],
        ),
        # every exit of a schema and of its blocks
        ("%% Schemas\nschema = block (x:tm);\n", [(2, 8, "expected an identifier but found '='")]),
        ("%% Schemas\nschema xG block (x:tm);\n", [(2, 11, "expected '=' but found 'block'")]),
        ("%% Schemas\nschema xG = (x:tm);\n", [(2, 13, "expected 'block' but found '('")]),
        ("%% Schemas\nschema xG = block (:tm);\n", [(2, 20, "expected an identifier but found ':'")]),
        ("%% Schemas\nschema xG = block (x tm);\n", [(2, 22, "expected ':' but found 'tm'")]),
        ("%% Schemas\nschema xG = block (x:type);\n", [(2, 22, "expected a type, found a kind")]),
        ("%% Schemas\nschema xG = block (x:tm;\n", [(2, 24, "expected ')' but found ';'")]),
        ("%% Schemas\nschema xG = block x:tm\n", [(3, 1, "expected ';' but found 'end of input'")]),
        ("%% Schemas\nschema xG = block (x:tm) + ;\n", [(2, 28, "expected 'block' but found ';'")]),
        ("%% Schemas\nschema xG = block (x:tm) (u:tm);\n", [(2, 26, "expected ';' but found '('")]),
        # Beluga's schemas with parameters are not parsed
        (
            "%% Syntax\ntm: type.\ntp: type.\n\n%% Judgments\nof: tm -> tp -> type.\n\n"
            "%% Schemas\nschema tG = some [t:tp] block (x:tm, u:of x t);\n",
            [(9, 13, "expected 'block' but found 'some'")],
        ),
        # of a context
        (
            "%% Definitions\ninductive R : {g:xG} prop =\n| c: R [, b:block (x:tm)];\n",
            [(3, 9, "expected an identifier but found ','")],
        ),
        (
            "%% Definitions\ninductive R : {g:xG} prop =\n| c: R [g, :block (x:tm)];\n",
            [(3, 12, "expected an identifier but found ':'")],
        ),
        (
            "%% Definitions\ninductive R : {g:xG} prop =\n| c: R [g, b block (x:tm)];\n",
            [(3, 14, "expected ':' but found 'block'")],
        ),
        (
            "%% Definitions\ninductive R : {g:xG} prop =\n| c: R [g;\n",
            [(3, 10, "expected ']' but found ';'")],
        ),
        # of an inductive definition's header, parameters and clauses
        (
            "%% Definitions\ninductive : {g:xG} prop =\n| c: R [];\n",
            [(2, 11, "expected an identifier but found ':'")],
        ),
        ("%% Definitions\ninductive R {g:xG} prop =\n| c: R [];\n", [(2, 13, "expected ':' but found '{'")]),
        (
            "%% Definitions\ninductive R : {:xG} prop =\n| c: R [];\n",
            [(2, 16, "expected an identifier but found ':'")],
        ),
        (
            "%% Definitions\ninductive R : {g xG} prop =\n| c: R [];\n",
            [(2, 18, "expected ':' but found 'xG'")],
        ),
        (
            "%% Definitions\ninductive R : {g:} prop =\n| c: R [];\n",
            [(2, 18, "expected an identifier but found '}'")],
        ),
        (
            "%% Definitions\ninductive R : {g:xG prop =\n| c: R [];\n",
            [(2, 21, "expected '}' but found 'prop'")],
        ),
        (
            "%% Definitions\ninductive R : {g:xG} =\n| c: R [];\n",
            [(2, 22, "expected 'prop' but found '='")],
        ),
        (
            "%% Definitions\ninductive R : {g:xG} prop\n| c: R [];\n",
            [(3, 1, "expected '=' but found '|'")],
        ),
        (
            "%% Definitions\ninductive R : {g:xG} prop =\nc: R [];\n",
            [(3, 1, "expected '|' but found 'c'")],
        ),
        (
            "%% Definitions\ninductive R : {g:xG} prop =\n| : R [];\n",
            [(3, 3, "expected an identifier but found ':'")],
        ),
        (
            "%% Definitions\ninductive R : {g:xG} prop =\n| c R [];\n",
            [(3, 5, "expected ':' but found 'R'")],
        ),
        (
            "%% Definitions\ninductive R : {g:xG} prop =\n| c: [];\n",
            [(3, 6, "expected an identifier but found '['")],
        ),
        (
            "%% Definitions\ninductive R : {g:xG} prop =\n| c: R [] -> ;\n",
            [(3, 14, "expected an identifier but found ';'")],
        ),
        (
            "%% Definitions\ninductive R : {g:xG} prop =\n| c: R []\n",
            [(4, 1, "expected ';' but found 'end of input'")],
        ),
        # of a theorem and its quantifiers
        ("%% Theorems\ntheorem : true;\n", [(2, 9, "expected an identifier but found ':'")]),
        ("%% Theorems\ntheorem t true;\n", [(2, 11, "expected ':' but found 'true'")]),
        ("%% Theorems\ntheorem t: {:tm} true;\n", [(2, 13, "expected an identifier but found ':'")]),
        ("%% Theorems\ntheorem t: {M tm} true;\n", [(2, 15, "expected ':' but found 'tm'")]),
        ("%% Theorems\ntheorem t: {M:tm true;\n", [(2, 18, "expected '}' but found 'true'")]),
        ("%% Theorems\ntheorem t: {M:tm -> tm true;\n", [(2, 24, "expected '}' but found 'true'")]),
        ("%% Theorems\ntheorem t: <M:tm} true;\n", [(2, 17, "expected '>' but found '}'")]),
        ("%% Theorems\ntheorem t: true\n", [(3, 1, "expected ';' but found 'end of input'")]),
        # of a proposition's atoms
        ("%% Theorems\ntheorem t: ;\n", [(2, 12, "expected a proposition but found ';'")]),
        ("%% Theorems\ntheorem t: [g aeq M M];\n", [(2, 15, "expected '|-' but found 'aeq'")]),
        ("%% Theorems\ntheorem t: [g |- ];\n", [(2, 18, "expected an identifier but found ']'")]),
        ("%% Theorems\ntheorem t: [g |- aeq M M;\n", [(2, 25, "expected ']' but found ';'")]),
        ("%% Theorems\ntheorem t: R [g;\n", [(2, 16, "expected ']' but found ';'")]),
        ("%% Theorems\ntheorem t: M N;\n", [(2, 15, "expected '=' after a term in a proposition")]),
        ("%% Theorems\ntheorem t: (M) N;\n", [(2, 17, "expected '=' but found ';'")]),
        # the error of the reading that got further, here the proposition's
        ("%% Theorems\ntheorem t: (true -> ;\n", [(2, 21, "expected a proposition but found ';'")]),
        # of the item dispatch
        ("tm: type.\n", [(1, 1, "declaration before any %% section separator")]),
        ("%% Syntax\nschema xG = block (x:tm);\n", [(2, 1, "schema declaration in the Syntax section")]),
        (
            "%% Syntax\ninductive R : prop = | c: R;\n",
            [(2, 1, "inductive definition in the Syntax section")],
        ),
        ("%% Syntax\ntheorem t: true;\n", [(2, 1, "theorem in the Syntax section")]),
        ("%% Theorems\ntm: type.\n", [(2, 1, "constant or type declaration in the Theorems section")]),
        ("%% Syntax\nprop tm: type.\n", [(2, 1, "expected a declaration but found 'prop'")]),
        # a kind is reported at its first token, and parsing resumes after
        # it: the '.' of its lambda ends no declaration
        (
            "%% Theorems\ntheorem t: {M: a (\\x. x) -> type} true;\ntheorem u: ;\n",
            [
                (2, 16, "expected a type, found a kind"),
                (3, 12, "expected a proposition but found ';'"),
            ],
        ),
        # a '->' arm before a '<-' chain is reported at the '<-'
        (
            "%% Judgments\nj: tm -> type <- tm.\n",
            [(2, 15, "cannot mix '->' and '<-' without parentheses")],
        ),
    ],
)
def test_parse_error_locations(source, expected):
    with raises_code("E-PARSE") as exc:
        parse_spec(source)
    diags = exc.value.diagnostics
    assert all(d.code == "E-PARSE" for d in diags)
    assert [(d.loc.line, d.loc.col, d.message) for d in diags] == expected


# ----------------------------------------------------------- deep nesting

_DEEP_SIG = "%% Syntax\ntm: type.\nc: tm.\napp: tm -> tm -> tm.\nlam: (tm -> tm) -> tm.\n\n%% Rules\n"
_DEEP = 10_000


def _app_args(t):
    # app c (…)
    assert type(t) is App and t.fn == App(Const("app"), Const("c"))
    return t.arg


def _lam(t):
    # lam (\x. …)
    assert type(t) is App and t.fn == Const("lam") and type(t.arg) is Lam and t.arg.hint == "x"
    return t.arg.body


def _redex(t):
    # (\x. x) (…)
    assert type(t) is App and type(t.fn) is Lam and t.fn.body == Var(0)
    return t.arg


def _arrow(t):
    assert type(t) is Arrow and t.dom == AtomApp("j", (Const("M"),))
    return t.cod


def _pi(t):
    assert type(t) is Pi and t.hint == "x" and t.dom == AtomApp("tm")
    return t.cod


@pytest.mark.parametrize(
    "rule, level, innermost",
    [
        ("r: j " + "(app c " * _DEEP + "c" + ")" * _DEEP + ".", _app_args, Const("c")),
        ("r: j " + "(lam (\\x. " * _DEEP + "c" + "))" * _DEEP + ".", _lam, Const("c")),
        ("r: j " + "((\\x. x) " * _DEEP + "c" + ")" * _DEEP + ".", _redex, Const("c")),
        ("r: " + "j M -> " * _DEEP + "j M.", _arrow, AtomApp("j", (Const("M"),))),
        ("r: " + "{x:tm} " * _DEEP + "j x.", _pi, AtomApp("j", (Var(0),))),
    ],
    ids=["app-args", "lam", "redexes", "arrow-schematic", "pi-prefix"],
)
def test_deep_rules_parse(rule, level, innermost):
    # the shapes of test_cli.py::test_deep_rule_shapes_exit_zero, at
    # CPython's default recursion limit; walked level by level, as == and
    # repr recurse
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        (decl,) = parse_spec(_DEEP_SIG + rule + "\n").rules
    finally:
        sys.setrecursionlimit(limit)
    node = decl.tp
    if type(node) is AtomApp:
        (node,) = node.args
    for _ in range(_DEEP):
        node = level(node)
    assert node == innermost


def test_leaves_are_shared_within_one_parse_only():
    src = "%% Syntax\ntm: type.\nc: tm.\nf: tm -> tm.\n%% Rules\nr: j (f c) c.\ns: j c c.\n"
    r, s = parse_spec(src).rules
    (fc, c), (c2, c3) = r.tp.args, s.tp.args
    assert fc.arg is c is c2 is c3
    assert parse_spec(src).rules[1].tp.args[0] is not c

