"""Parser for complete .orbi documents.

Parsing is section-driven: ``%%`` separator lines pick the section, and each
section admits its own declaration forms.  Errors are recovered at the next
``.`` or ``;`` so one run reports every malformed declaration.

Terms and types, where nearly all the tokens are, are read by loops over the
token lists rather than by recursive descent: a term, however deeply nested,
is one loop with an explicit stack of open parentheses, and a type is one loop
over its Π binders and arrows, recursing only into a parenthesised type or a
Π domain.  A bound name resolves to its de Bruijn index in one lookup, and the
leaves of one parse (constants, variables, argument-free type atoms) are
shared.  Declarations, schemas, contexts and theorems are parsed by recursive
descent through ``_Cursor``; a proposition's quantifiers and connectives, and
a relation clause's premises, are read in loops, so only parentheses recurse.
"""

from __future__ import annotations

import re

from orbi_forge.errors import OrbiError, ParseError
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
    CtxPattern,
    Directive,
    ExistsTm,
    FalseP,
    FamDecl,
    ForallCtx,
    ForallTm,
    Imp,
    InductiveDef,
    Judgment,
    KArrow,
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
        raise OrbiError("E-DIR", "empty directive line", loc)
    if body in _SEPARATORS:
        return Separator(body, loc)
    m = _DIR_RE.match(body)
    if not m:
        raise OrbiError(
            "E-DIR",
            f"malformed directive: {body!r}",
            loc,
            hint="expected '%% <Section>' or '%% wf|explicit|implicit [sy,..] in <dest>'",
        )
    systems = tuple(s.strip() for s in m.group("systems").split(",") if s.strip())
    if not systems:
        raise OrbiError("E-DIR", "empty system set", loc)
    for s in systems:
        if s not in SYSTEMS:
            raise OrbiError(
                "E-DIR", f"unknown system {s!r}", loc, hint="systems are hy, ab, bel, tw"
            )
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

    The cursor also holds the binders around the current position and the
    leaves shared within one parse.  ``names`` has one ``(name, shadowed)``
    pair per binder, outermost first, where ``shadowed`` is the position of
    the binder of that name it hides, or None; ``depth`` maps each bound name
    to the position of its innermost binder, so an occurrence resolves in one
    lookup.  ``consts``, ``vars`` and ``atoms`` hold the ``Const``, ``Var``
    and argument-free ``AtomApp`` leaves made so far, by name or index.
    """

    def __init__(self, toks: Tokens):
        self.toks = toks
        self.lex = toks.lexemes
        self.kinds = toks.kinds
        self.i = 0
        self.names: list[tuple[str, int | None]] = []
        self.depth: dict[str, int] = {}
        self.consts: dict[str, Const] = {}
        self.vars: dict[int, Var] = {}
        self.atoms: dict[str, AtomApp] = {}

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
        raise self.error(self.i, repr(lexeme), production)

    def ident(self, production: str) -> str:
        i = self.i
        if self.kinds[i] in _IDENTS:
            self.i = i + 1
            return self.lex[i]
        raise self.error(i, "an identifier", production)

    def error(self, i: int, what: str, production: str) -> ParseError:
        """The error of finding token ``i`` where ``what`` was expected; the
        cursor is left at that token."""
        self.i = i
        return ParseError(
            f"expected {what} but found {self.found()!r}", self.loc(), production=production
        )

    def bind(self, name: str) -> None:
        depth = self.depth
        self.names.append((name, depth.get(name)))
        depth[name] = len(self.names) - 1

    def unbind(self, n: int = 0) -> None:
        """Drop every binder but the outermost ``n``."""
        names, depth = self.names, self.depth
        while len(names) > n:
            name, shadowed = names.pop()
            if shadowed is None:
                del depth[name]
            else:
                depth[name] = shadowed


# ------------------------------------------------------------------ terms


def _parse_term(c: _Cursor, args: bool = False):
    """The term at the cursor or, with ``args``, the tuple of the term atoms
    (identifiers and parenthesised terms) there; one must start there.

    One loop reads the tokens.  ``head`` is the application spine read so
    far inside the innermost open parenthesis, and the binders above ``base``
    are the lambdas opened there; ``levels`` keeps both for every enclosing
    parenthesis.  ``collect`` holds outside every parenthesis with ``args``,
    where atoms go to ``out`` instead of a spine.  A ``\\`` is reached only
    where a term starts, since a spine goes on only at an identifier or ``(``.
    """
    lex, kinds, names, depth = c.lex, c.kinds, c.names, c.depth
    consts, vars_ = c.consts, c.vars
    i = c.i
    n = base = len(names)
    collect = args
    out = []
    levels = []
    head = None
    while True:
        tok = lex[i]
        if kinds[i] in _IDENTS:
            if tok in depth:
                k = n - 1 - depth[tok]
                if k in vars_:
                    t = vars_[k]
                else:
                    t = vars_[k] = Var(k)
            elif tok in consts:
                t = consts[tok]
            else:
                t = consts[tok] = Const(tok)
            i += 1
        elif tok == "(":
            levels.append((head, base))
            head = None
            base = n
            collect = False
            i += 1
            continue
        elif tok == "\\":
            if kinds[i + 1] not in _IDENTS:
                raise c.error(i + 1, "an identifier", "term")
            if lex[i + 2] != ".":
                raise c.error(i + 2, "'.'", "term")
            c.bind(lex[i + 1])
            n += 1
            i += 3
            continue
        else:
            raise c.error(i, "a term", "term")
        # ``t`` is a whole atom: apply the spine to it, then close every
        # level that ends after it
        while True:
            if collect:
                out.append(t)
            elif head is None:
                head = t
            else:
                head = App(head, t)
            if kinds[i] in _IDENTS or lex[i] == "(":
                break
            if collect:
                c.i = i
                return tuple(out)
            if n > base:
                for name, _ in reversed(names[base:]):
                    head = Lam(name, head)
                c.unbind(base)
                n = base
            if not levels:
                c.i = i
                return head
            if lex[i] != ")":
                raise c.error(i, "')'", "term")
            i += 1
            t = head
            head, base = levels.pop()
            collect = args and not levels


# --------------------------------------------------------- types and kinds

_KINDS = (Type, KArrow, KPi)


def _as_tp(node):
    """Demote a kind that appeared in a type position; the checker rejects
    the resulting reserved `type` atom with a level error."""
    outer = []
    while type(node) is KArrow or type(node) is KPi:
        outer.append(node)
        node = node.cod
    if type(node) is not Type:
        return node
    node = AtomApp(TYPE_ATOM)
    for k in reversed(outer):
        node = Arrow(k.dom, node) if type(k) is KArrow else Pi(k.hint, k.dom, node)
    return node


def _parse_tpkind(c: _Cursor):
    """Parse a type-or-kind; the result is a Kind iff it terminates in `type`.

    A loop collects the ``{x:A}`` binders and the ``->`` arms from the left
    and folds them from the right; a ``<-`` chain reads ``a <- b <- c`` as
    ``c -> b -> a``.  A parenthesised type and a Π domain recurse.
    """
    lex, kinds = c.lex, c.kinds
    i = c.i
    base = len(c.names)
    prefix = []  # (binder, domain) of each Π, (None, domain) of each '->'
    arms = None  # a '<-' chain's atoms
    while True:
        tok = lex[i]
        if tok == "{" and arms is None:
            if kinds[i + 1] not in _IDENTS:
                raise c.error(i + 1, "an identifier", "tp")
            if lex[i + 2] != ":":
                raise c.error(i + 2, "':'", "tp")
            name = lex[i + 1]
            c.i = i + 3
            dom = _as_tp(_parse_tpkind(c))
            i = c.i
            if lex[i] != "}":
                raise c.error(i, "'}'", "tp")
            i += 1
            c.bind(name)
            prefix.append((name, dom))
            continue
        if kinds[i] in _IDENTS:
            i += 1
            if kinds[i] in _IDENTS or lex[i] == "(":
                c.i = i
                atom = AtomApp(tok, _parse_term(c, True))
                i = c.i
            elif tok in c.atoms:
                atom = c.atoms[tok]
            else:
                atom = c.atoms[tok] = AtomApp(tok)
        elif tok == "(":
            c.i = i + 1
            atom = _parse_tpkind(c)
            i = c.i
            if lex[i] != ")":
                raise c.error(i, "')'", "tp")
            i += 1
        elif tok == "type":
            atom = Type()
            i += 1
        else:
            raise c.error(i, "a type", "tp")
        op = lex[i]
        if arms is not None:
            arms.append(_as_tp(atom))
            if op == "<-":
                i += 1
                continue
            if op == "->":
                c.i = i
                raise ParseError(
                    "cannot mix '->' and '<-' without parentheses", c.loc(), production="tp"
                )
            break
        if op == "->":
            prefix.append((None, _as_tp(atom)))
            i += 1
            continue
        if op != "<-":
            break
        arms = [atom]
        i += 1
    c.i = i
    if arms is None:
        out = atom
    else:
        out = arms[0]
        arrow = KArrow if type(out) in _KINDS else Arrow
        for a in arms[1:]:
            out = arrow(a, out)
    if prefix:
        kind = type(out) in _KINDS
        for name, dom in reversed(prefix):
            if name is None:
                out = KArrow(dom, out) if kind else Arrow(dom, out)
            else:
                out = KPi(name, dom, out) if kind else Pi(name, dom, out)
        c.unbind(base)
    return out


def _parse_tp(c: _Cursor):
    node = _parse_tpkind(c)
    if type(node) in _KINDS:
        raise ParseError("expected a type, found a kind", c.loc(), production="tp")
    return node


# ----------------------------------------------------------- declarations


def _parse_decl(c: _Cursor):
    loc = c.loc()
    name = c.ident("decl")
    c.expect(":", "decl")
    node = _parse_tpkind(c)
    c.expect(".", "decl")
    if type(node) in _KINDS:
        return FamDecl(name, node, loc)
    return ConstDecl(name, node, loc)


def _parse_block(c: _Cursor):
    c.expect("block", "blk")
    parens = c.at("(")
    if parens:
        c.take()
    entries = []
    base = len(c.names)
    while True:
        label = c.ident("blk")
        c.expect(":", "blk")
        entries.append((label, _parse_tp(c)))
        c.bind(label)  # later entries see it
        if c.at(","):
            c.take()
            continue
        break
    c.unbind(base)
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
    if c.at("]") or c.at("|-"):
        return CtxPattern()
    var = c.ident(production)
    blocks = []
    if c.at(":"):
        c.take()
        blocks.append((var, _parse_block(c)))
        var = None
    while c.at(","):
        c.take()
        label = c.ident(production)
        c.expect(":", production)
        blocks.append((label, _parse_block(c)))
    return CtxPattern(var, tuple(blocks))


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
        atoms = [_parse_def_atom(c)]
        while c.at("->"):
            c.take()
            atoms.append(_parse_def_atom(c))
        clauses.append((cname, tuple(atoms[:-1]), atoms[-1]))
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


# binding strength and node of each connective; -> is the loosest and the
# only right-associative one
_CONNECTIVES = {"->": (1, Imp), "||": (2, Or), "&": (3, And)}


def _parse_prp(c: _Cursor, schema_names, family_names):
    """A proposition: a prefix of quantifiers, then atoms joined by
    connectives, folded with an operator stack.  Only a parenthesised
    proposition recurses, two frames a level."""
    quants = []  # (exists, var, type name or None, type), outermost first
    lex = c.lex
    while lex[c.i] == "{" or lex[c.i] == "<":
        exists = c.take() == "<"
        var = c.ident("quantif")
        c.expect(":", "quantif")
        if not exists and c.at_ident() and c.at_next("}"):
            quants.append((False, var, c.take(), None))
        else:
            quants.append((exists, var, None, _parse_tp(c)))
        c.expect(">" if exists else "}", "quantif")
    args = [_parse_prp_atom(c, schema_names, family_names)]
    ops = []  # (strength, node) of the connectives not folded yet
    while True:
        op = lex[c.i]
        strength, node = _CONNECTIVES[op] if op in _CONNECTIVES else (0, None)
        # fold what binds tighter than ``op``, and as tight unless ``op`` is ->
        while ops and ops[-1][0] >= strength + (node is Imp):
            rhs = args.pop()
            args[-1] = ops.pop()[1](args[-1], rhs)
        if node is None:
            break
        c.i += 1
        ops.append((strength, node))
        args.append(_parse_prp_atom(c, schema_names, family_names))
    body = args[0]
    for exists, var, tyname, tp in reversed(quants):
        if exists:
            body = ExistsTm(var, tp, body)
        elif tp is not None:
            body = ForallTm(var, tp, body)
        elif _classify_quantifier(var, tyname, schema_names, family_names) == "ctx":
            body = ForallCtx(var, tyname, body)
        else:
            body = ForallTm(var, AtomApp(tyname), body)
    return body


def _parse_prp_atom(c, schema_names, family_names):
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
            p = _parse_prp(c, schema_names, family_names)
            c.expect(")", "prp")
            if not (c.at("=") or c.at_atom()):
                return p
        except ParseError:
            c.unbind()
        c.i = save
        term = _parse_term(c)
        c.expect("=", "prp")
        return TermEq(term, _parse_term(c))
    if c.at("["):
        c.take()
        ctx = _parse_ctx_body(c, "prp")
        c.expect("|-", "prp")
        fam = c.ident("prp")
        args = _parse_term(c, True) if c.at_atom() else ()
        c.expect("]", "prp")
        return Judgment(ctx, fam, args)
    if c.at_ident() and c.at_next("["):
        return _parse_def_atom(c)
    if c.at_ident() or c.at("\\"):
        term = _parse_term(c)
        if c.at("="):
            c.take()
            rhs = _parse_term(c)
            return TermEq(term, rhs)
        if isinstance(term, Const):
            return RelApp(term.name, ())
        raise ParseError("expected '=' after a term in a proposition", c.loc(), production="prp")
    raise ParseError(f"expected a proposition but found {c.found()!r}", c.loc(), production="prp")


def _parse_theorem(c: _Cursor, schema_names, family_names):
    loc = c.loc()
    c.expect("theorem", "thm")
    name = c.ident("thm")
    c.expect(":", "thm")
    prp = _parse_prp(c, schema_names, family_names)
    c.expect(";", "thm")
    return Theorem(name, prp, loc)


# ------------------------------------------------------------- the driver

_DECL_SECTIONS = ("Syntax", "Judgments", "Rules")


def _parse_item(c: _Cursor, section, schema_names, family_names):
    if section is None:
        raise ParseError("declaration before any %% section separator", c.loc(), production="sig")
    if c.at_ident():
        if section not in _DECL_SECTIONS:
            raise ParseError(
                f"constant or type declaration in the {section} section", c.loc(), production="decl"
            )
        return _parse_decl(c)
    if c.at("schema"):
        if section != "Schemas":
            raise ParseError(
                f"schema declaration in the {section} section", c.loc(), production="s_decl"
            )
        return _parse_schema(c)
    if c.at("inductive"):
        if section != "Definitions":
            raise ParseError(
                f"inductive definition in the {section} section", c.loc(), production="def_dec"
            )
        return _parse_inductive(c)
    if c.at("theorem"):
        if section != "Theorems":
            raise ParseError(f"theorem in the {section} section", c.loc(), production="thm")
        return _parse_theorem(c, schema_names, family_names)
    raise ParseError(f"expected a declaration but found {c.found()!r}", c.loc(), production="sig")


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
    kinds = toks.kinds
    while True:
        i = c.i
        if kinds[i] == "eof":
            break
        if kinds[i] == "directive":
            c.i = i + 1
            try:
                d = parse_directive_line(toks.lexemes[i], toks.loc(i))
            except OrbiError as e:
                errors += e.diagnostics
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
            errors += e.diagnostics
            _recover(c)
            c.unbind()
            continue
        items.append((section, node))
        if type(node) is Schema:
            schema_names.add(node.name)
        elif type(node) is FamDecl:
            family_names.add(node.name)
    if section is not None:
        spans.append((section, seg_start, len(source)))
    if errors:
        raise OrbiError.of(errors)
    return OrbiSpec(tuple(items), source, tuple(spans))


# ------------------------------------------------------------ test helpers


def parse_term_str(text: str, binders=()):
    """Parse a standalone term; ``binders`` lists enclosing names, outermost first."""
    c = _Cursor(tokenize(text))
    for name in binders:
        c.bind(name)
    t = _parse_term(c)
    if not c.at_eof():
        raise ParseError(f"trailing input {c.found()!r}", c.loc(), production="term")
    return t


def parse_tpkind_str(text: str, binders=()):
    c = _Cursor(tokenize(text))
    for name in binders:
        c.bind(name)
    node = _parse_tpkind(c)
    if not c.at_eof():
        raise ParseError(f"trailing input {c.found()!r}", c.loc(), production="tp")
    return node
