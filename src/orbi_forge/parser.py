"""Recursive-descent parser for complete .orbi documents.

Parsing is section-driven: ``%%`` separator lines pick the section, and each
section admits its own declaration forms.  Errors are recovered at the next
``.`` or ``;`` so one run reports every malformed declaration.
"""

from __future__ import annotations

import re

from orbi_forge.errors import DirectiveError, ParseError, SpecParseError
from orbi_forge.lexer import Tokens, tokenize
from orbi_forge.syntax import (
    SECTIONS,
    SYSTEMS,
    And,
    App,
    Arrow,
    AtomApp,
    Block,
    Const,
    ConstDecl,
    CtxVar,
    Directive,
    EmptyCtx,
    ExistsTm,
    FalseP,
    FamDecl,
    ForallCtx,
    ForallTm,
    Imp,
    InductiveDef,
    Judgment,
    KArrow,
    Kind,
    KPi,
    Lam,
    Loc,
    NO_LOC,
    Or,
    OrbiSpec,
    Pi,
    RelApp,
    Schema,
    Separator,
    Snoc,
    TermEq,
    Theorem,
    TrueP,
    Type,
    TYPE_ATOM,
    Var,
)

_SEPARATORS = frozenset(SECTIONS)
_IDENTS = ("id", "uid")

_DIR_RE = re.compile(
    r"(?P<what>wf|explicit|implicit)\s*"
    r"\[(?P<systems>[^\]]*)\]\s*"
    r"in\s+(?:\[\s*(?P<ctx>[A-Za-z][A-Za-z0-9_']*)\s*\]|(?P<name>[A-Za-z][A-Za-z0-9_']*))\s*$"
)


def parse_directive_line(line: str, loc: Loc = NO_LOC):
    """Parse one ``%%`` line into a Separator or an annotation Directive."""
    body = line.strip()
    if body.startswith("%%"):
        body = body[2:].strip()
    if not body:
        raise DirectiveError("empty directive line", loc)
    if body in _SEPARATORS:
        return Separator(body, loc)
    m = _DIR_RE.match(body)
    if not m:
        raise DirectiveError(
            f"malformed directive: {body!r}",
            loc,
            hint="expected '%% <Section>' or '%% wf|explicit|implicit [sy,..] in <dest>'",
        )
    systems = tuple(s.strip() for s in m.group("systems").split(",") if s.strip())
    if not systems:
        raise DirectiveError("empty system set", loc)
    for s in systems:
        if s not in SYSTEMS:
            raise DirectiveError(f"unknown system {s!r}", loc, hint="systems are hy, ab, bel, tw")
    systems = tuple(dict.fromkeys(systems))
    what = m.group("what")
    if m.group("ctx"):
        return Directive(what, systems, m.group("ctx"), True, loc)
    return Directive(what, systems, m.group("name"), False, loc)


class _Cursor:
    """A position in a token list; ``i`` never passes the eof token.

    Comparing lexemes is enough to test for a keyword or a punctuation mark:
    neither ever equals an identifier, directive lexemes start with ``%%``
    and eof's lexeme is ``""``.
    """

    def __init__(self, toks: Tokens):
        self.toks = toks
        self.lex = toks.lexemes
        self.kinds = toks.kinds
        self.i = 0

    def at(self, lexeme: str) -> bool:
        return self.lex[self.i] == lexeme

    def at_next(self, lexeme: str) -> bool:
        """Whether the token after the current one is ``lexeme``; not at eof."""
        return self.lex[self.i + 1] == lexeme

    def at_ident(self) -> bool:
        return self.kinds[self.i] in _IDENTS

    def at_atom(self) -> bool:
        """Whether a term atom starts here: an identifier or ``(``."""
        i = self.i
        return self.kinds[i] in _IDENTS or self.lex[i] == "("

    def at_directive(self) -> bool:
        return self.kinds[self.i] == "directive"

    def at_eof(self) -> bool:
        return self.kinds[self.i] == "eof"

    def loc(self) -> Loc:
        return self.toks.loc(self.i)

    def found(self) -> str:
        """The current lexeme as an error message quotes it."""
        return self.lex[self.i] or "end of input"

    def take(self) -> str:
        i = self.i
        if self.kinds[i] != "eof":
            self.i = i + 1
        return self.lex[i]

    def expect(self, lexeme: str, production: str) -> None:
        if self.lex[self.i] == lexeme:
            self.i += 1
            return
        raise ParseError(
            f"expected {lexeme!r} but found {self.found()!r}",
            self.loc(),
            expected={lexeme},
            production=production,
        )

    def ident(self, production: str) -> str:
        i = self.i
        if self.kinds[i] in _IDENTS:
            self.i = i + 1
            return self.lex[i]
        raise ParseError(
            f"expected an identifier but found {self.found()!r}",
            self.loc(),
            expected={"identifier"},
            production=production,
        )


def _resolve(name: str, env: list[str]):
    for i, nm in enumerate(reversed(env)):
        if nm == name:
            return Var(i)
    return Const(name)


# ------------------------------------------------------------------ terms


def _parse_term(c: _Cursor, env: list[str]):
    if c.at("\\"):
        c.take()
        name = c.ident("term")
        c.expect(".", "term")
        body = _parse_term(c, env + [name])
        return Lam(name, body)
    t = _parse_term_atom(c, env)
    while c.at_atom():
        t = App(t, _parse_term_atom(c, env))
    return t


def _parse_term_atom(c: _Cursor, env: list[str]):
    if c.at_ident():
        return _resolve(c.take(), env)
    if c.at("("):
        c.take()
        inner = _parse_term(c, env)
        c.expect(")", "term")
        return inner
    raise ParseError(
        f"expected a term but found {c.found()!r}",
        c.loc(),
        expected={"identifier", "(", "\\"},
        production="term",
    )


# --------------------------------------------------------- types and kinds


def _kind_to_tp(k) :
    """Demote a kind that appeared in a type position; the checker rejects
    the resulting reserved `type` atom with a level error."""
    if isinstance(k, Type):
        return AtomApp(TYPE_ATOM)
    if isinstance(k, KArrow):
        return Arrow(k.dom, _kind_to_tp(k.cod))
    return Pi(k.hint, k.dom, _kind_to_tp(k.cod))


def _as_tp(node):
    return _kind_to_tp(node) if isinstance(node, Kind) else node


def _parse_tpkind(c: _Cursor, env: list[str]):
    """Parse a type-or-kind; the result is a Kind iff it terminates in `type`."""
    if c.at("{"):
        c.take()
        name = c.ident("tp")
        c.expect(":", "tp")
        dom = _as_tp(_parse_tpkind(c, env))
        c.expect("}", "tp")
        cod = _parse_tpkind(c, env + [name])
        if isinstance(cod, Kind):
            return KPi(name, dom, cod)
        return Pi(name, dom, cod)
    left = _parse_tp_atom(c, env)
    if c.at("->"):
        c.take()
        rest = _parse_tpkind(c, env)
        if isinstance(rest, Kind):
            return KArrow(_as_tp(left), rest)
        return Arrow(_as_tp(left), rest)
    if c.at("<-"):
        arms = [left]
        while c.at("<-"):
            c.take()
            arms.append(_parse_tp_atom(c, env))
        if c.at("->"):
            raise ParseError(
                "cannot mix '->' and '<-' without parentheses",
                c.loc(),
                expected={".", ";"},
                production="tp",
            )
        if isinstance(arms[0], Kind):
            out = arms[0]
            for a in arms[1:]:
                out = KArrow(_as_tp(a), out)
            return out
        out = _as_tp(arms[0])
        for a in arms[1:]:
            out = Arrow(_as_tp(a), out)
        return out
    return left


def _parse_tp_atom(c: _Cursor, env: list[str]):
    if c.at("("):
        c.take()
        inner = _parse_tpkind(c, env)
        c.expect(")", "tp")
        return inner
    if c.at("type"):
        c.take()
        return Type()
    if c.at_ident():
        name = c.take()
        args = []
        while c.at_atom():
            args.append(_parse_term_atom(c, env))
        return AtomApp(name, tuple(args))
    raise ParseError(
        f"expected a type but found {c.found()!r}",
        c.loc(),
        expected={"identifier", "(", "{", "type"},
        production="tp",
    )


def _parse_tp(c: _Cursor, env: list[str]):
    node = _parse_tpkind(c, env)
    if isinstance(node, Kind):
        raise ParseError("expected a type, found a kind", c.loc(), expected={"tp"}, production="tp")
    return node


# ----------------------------------------------------------- declarations


def _parse_decl(c: _Cursor):
    loc = c.loc()
    name = c.ident("decl")
    c.expect(":", "decl")
    node = _parse_tpkind(c, [])
    c.expect(".", "decl")
    if isinstance(node, Kind):
        return FamDecl(name, node, loc)
    return ConstDecl(name, node, loc)


def _parse_block(c: _Cursor):
    c.expect("block", "blk")
    parens = c.at("(")
    if parens:
        c.take()
    entries = []
    labels: list[str] = []
    while True:
        label = c.ident("blk")
        c.expect(":", "blk")
        tp = _parse_tp(c, labels)
        entries.append((label, tp))
        labels.append(label)
        if c.at(","):
            c.take()
            continue
        break
    if parens:
        c.expect(")", "blk")
    return Block(tuple(entries))


def _parse_schema(c: _Cursor):
    loc = c.loc()
    c.expect("schema", "s_decl")
    name = c.ident("s_decl")
    c.expect("=", "s_decl")
    alts = [_parse_block(c)]
    while c.at("+"):
        c.take()
        alts.append(_parse_block(c))
    c.expect(";", "s_decl")
    return Schema(name, tuple(alts), loc)


# --------------------------------------------------------------- contexts


def _parse_ctx_body(c: _Cursor, production: str):
    """Context pattern items up to (not including) the closing delimiter."""
    pat = EmptyCtx()
    first = True
    while True:
        if first and (c.at("]") or c.at("|-")):
            break
        if first:
            name = c.ident(production)
            if c.at(":"):
                c.take()
                block = _parse_block(c)
                pat = Snoc(pat, name, block)
            else:
                pat = CtxVar(name)
            first = False
        else:
            if not c.at(","):
                break
            c.take()
            label = c.ident(production)
            c.expect(":", production)
            block = _parse_block(c)
            pat = Snoc(pat, label, block)
    return pat


def _parse_ctx(c: _Cursor):
    c.expect("[", "ctx")
    pat = _parse_ctx_body(c, "ctx")
    c.expect("]", "ctx")
    return pat


# -------------------------------------------------- inductive definitions


def _parse_def_atom(c: _Cursor):
    name = c.ident("def_prp")
    ctxs = []
    while c.at("["):
        ctxs.append(_parse_ctx(c))
    return RelApp(name, tuple(ctxs))


def _parse_def_prp(c: _Cursor):
    lhs = _parse_def_atom(c)
    if c.at("->"):
        c.take()
        return Imp(lhs, _parse_def_prp(c))
    return lhs


def _parse_inductive(c: _Cursor):
    loc = c.loc()
    c.expect("inductive", "def_dec")
    name = c.ident("def_dec")
    c.expect(":", "def_dec")
    params = []
    while c.at("{"):
        c.take()
        v = c.ident("r_kind")
        c.expect(":", "r_kind")
        s = c.ident("r_kind")
        c.expect("}", "r_kind")
        params.append((v, s))
    c.expect("prop", "r_kind")
    c.expect("=", "def_dec")
    clauses = []
    c.expect("|", "def_body")
    while True:
        cname = c.ident("def_body")
        c.expect(":", "def_body")
        prp = _parse_def_prp(c)
        clauses.append((cname, prp))
        if c.at("|"):
            c.take()
            continue
        break
    c.expect(";", "def_dec")
    return InductiveDef(name, tuple(params), tuple(clauses), loc)


# ---------------------------------------------------------------- theorems


def _classify_quantifier(var: str, tyname: str, schema_names, family_names):
    """A `{v:id}` quantifier is context-valued when id is a declared schema;
    otherwise the variable's case decides (lowercase vars name contexts)."""
    if tyname in schema_names:
        return "ctx"
    if tyname in family_names:
        return "tm"
    return "ctx" if var[0].islower() else "tm"


def _parse_prp(c: _Cursor, env, schema_names, family_names):
    if c.at("{"):
        c.take()
        var = c.ident("quantif")
        c.expect(":", "quantif")
        if c.at_ident() and c.at_next("}"):
            tyname = c.take()
            c.expect("}", "quantif")
            body = _parse_prp(c, env, schema_names, family_names)
            if _classify_quantifier(var, tyname, schema_names, family_names) == "ctx":
                return ForallCtx(var, tyname, body)
            return ForallTm(var, AtomApp(tyname), body)
        tp = _parse_tp(c, [])
        c.expect("}", "quantif")
        body = _parse_prp(c, env, schema_names, family_names)
        return ForallTm(var, tp, body)
    if c.at("<"):
        c.take()
        var = c.ident("quantif")
        c.expect(":", "quantif")
        tp = _parse_tp(c, [])
        c.expect(">", "quantif")
        body = _parse_prp(c, env, schema_names, family_names)
        return ExistsTm(var, tp, body)
    return _parse_prp_imp(c, env, schema_names, family_names)


def _parse_prp_imp(c, env, schema_names, family_names):
    lhs = _parse_prp_or(c, env, schema_names, family_names)
    if c.at("->"):
        c.take()
        return Imp(lhs, _parse_prp_imp(c, env, schema_names, family_names))
    return lhs


def _parse_prp_or(c, env, schema_names, family_names):
    lhs = _parse_prp_and(c, env, schema_names, family_names)
    while c.at("||"):
        c.take()
        lhs = Or(lhs, _parse_prp_and(c, env, schema_names, family_names))
    return lhs


def _parse_prp_and(c, env, schema_names, family_names):
    lhs = _parse_prp_atom(c, env, schema_names, family_names)
    while c.at("&"):
        c.take()
        lhs = And(lhs, _parse_prp_atom(c, env, schema_names, family_names))
    return lhs


def _parse_prp_atom(c, env, schema_names, family_names):
    if c.at("true"):
        c.take()
        return TrueP()
    if c.at("false"):
        c.take()
        return FalseP()
    if c.at("("):
        # `(` opens either a parenthesized proposition or a parenthesized
        # term starting a term equality; try the proposition reading first
        # and fall back to the term reading.
        save = c.i
        try:
            c.take()
            p = _parse_prp(c, env, schema_names, family_names)
            c.expect(")", "prp")
            if not (c.at("=") or c.at_atom()):
                return p
        except ParseError:
            pass
        c.i = save
        term = _parse_term(c, env)
        c.expect("=", "prp")
        return TermEq(term, _parse_term(c, env))
    if c.at("["):
        c.take()
        ctx = _parse_ctx_body(c, "prp")
        c.expect("|-", "prp")
        fam = c.ident("prp")
        args = []
        while c.at_atom():
            args.append(_parse_term_atom(c, env))
        c.expect("]", "prp")
        return Judgment(ctx, fam, tuple(args))
    if c.at_ident() and c.at_next("["):
        name = c.take()
        ctxs = []
        while c.at("["):
            ctxs.append(_parse_ctx(c))
        return RelApp(name, tuple(ctxs))
    if c.at_ident() or c.at("\\"):
        term = _parse_term(c, env)
        if c.at("="):
            c.take()
            rhs = _parse_term(c, env)
            return TermEq(term, rhs)
        if isinstance(term, Const):
            return RelApp(term.name, ())
        raise ParseError(
            "expected '=' after a term in a proposition",
            c.loc(),
            expected={"="},
            production="prp",
        )
    raise ParseError(
        f"expected a proposition but found {c.found()!r}",
        c.loc(),
        expected={"true", "false", "(", "[", "{", "<", "identifier"},
        production="prp",
    )


def _parse_theorem(c: _Cursor, schema_names, family_names):
    loc = c.loc()
    c.expect("theorem", "thm")
    name = c.ident("thm")
    c.expect(":", "thm")
    prp = _parse_prp(c, [], schema_names, family_names)
    c.expect(";", "thm")
    return Theorem(name, prp, loc)


# ------------------------------------------------------------- the driver

_DECL_SECTIONS = ("Syntax", "Judgments", "Rules")


def _parse_item(c: _Cursor, section, schema_names, family_names):
    if section is None:
        raise ParseError(
            "declaration before any %% section separator",
            c.loc(),
            expected={"%% Syntax"},
            production="sig",
        )
    if c.at("schema"):
        if section != "Schemas":
            raise ParseError(
                f"schema declaration in the {section} section",
                c.loc(),
                expected={"%% Schemas"},
                production="s_decl",
            )
        return _parse_schema(c)
    if c.at("inductive"):
        if section != "Definitions":
            raise ParseError(
                f"inductive definition in the {section} section",
                c.loc(),
                expected={"%% Definitions"},
                production="def_dec",
            )
        return _parse_inductive(c)
    if c.at("theorem"):
        if section != "Theorems":
            raise ParseError(
                f"theorem in the {section} section",
                c.loc(),
                expected={"%% Theorems"},
                production="thm",
            )
        return _parse_theorem(c, schema_names, family_names)
    if c.at_ident():
        if section not in _DECL_SECTIONS:
            raise ParseError(
                f"constant or type declaration in the {section} section",
                c.loc(),
                expected={"%% Syntax", "%% Judgments", "%% Rules"},
                production="decl",
            )
        return _parse_decl(c)
    raise ParseError(
        f"expected a declaration but found {c.found()!r}",
        c.loc(),
        expected={"identifier", "schema", "inductive", "theorem"},
        production="sig",
    )


def _recover(c: _Cursor) -> None:
    while not c.at_eof():
        if c.at_directive():
            return
        if c.take() in (".", ";"):
            return


def parse_spec(source: str) -> OrbiSpec:
    toks = tokenize(source)
    c = _Cursor(toks)
    items = []
    errors = []
    section = None
    seg_start = 0
    spans = []
    schema_names: set[str] = set()
    family_names: set[str] = set()
    while not c.at_eof():
        if c.at_directive():
            i = c.i
            c.take()
            try:
                d = parse_directive_line(toks.lexemes[i], toks.loc(i))
            except DirectiveError as e:
                errors.extend(e.diagnostics())
                continue
            if isinstance(d, Separator):
                if section is not None:
                    spans.append((section, seg_start, toks.starts[i]))
                section = d.name
                seg_start = toks.ends[i]
            else:
                items.append((section or "", d))
            continue
        try:
            node = _parse_item(c, section, schema_names, family_names)
        except ParseError as e:
            errors.extend(e.diagnostics())
            _recover(c)
            continue
        items.append((section, node))
        if isinstance(node, Schema):
            schema_names.add(node.name)
        elif isinstance(node, FamDecl):
            family_names.add(node.name)
    if section is not None:
        spans.append((section, seg_start, len(source)))
    if errors:
        raise SpecParseError(errors)
    return OrbiSpec(tuple(items), source, tuple(spans))


# ------------------------------------------------------------ test helpers


def parse_term_str(text: str, binders=()):
    """Parse a standalone term; ``binders`` lists enclosing names, outermost first."""
    c = _Cursor(tokenize(text))
    t = _parse_term(c, list(binders))
    if not c.at_eof():
        raise ParseError(f"trailing input {c.found()!r}", c.loc(), production="term")
    return t


def parse_tpkind_str(text: str, binders=()):
    c = _Cursor(tokenize(text))
    node = _parse_tpkind(c, list(binders))
    if not c.at_eof():
        raise ParseError(f"trailing input {c.found()!r}", c.loc(), production="tp")
    return node
