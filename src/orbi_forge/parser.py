"""Parser for complete .orbi documents.

Parsing is section-driven: ``%%`` separator lines pick the section, and each
section admits its own declaration forms.  Errors are recovered at the next
``.`` or ``;`` so one run reports every malformed declaration.

Every production reads the lexeme list through a local index: a lookahead is
a list index, and a fixed run of tokens such as ``inductive NAME :`` or
``{ v : s }`` is checked in place, so no call is made per token.  A
production stores the index back in the cursor only to call another one or to
return.  A term, however deeply nested, is one loop with an explicit stack of
open parentheses; a type is one loop over its Π binders and arrows, recursing
only into a parenthesised type or a Π domain; a proposition's quantifiers and
connectives, and a relation clause's premises, are read in loops, so only
parentheses recurse.  A bound name resolves to its de Bruijn index in one
lookup, and the leaves of one parse (constants, variables, argument-free type
atoms) are shared.
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
    TYPE,
    Var,
)

_NAME = r"[A-Za-z][A-Za-z0-9_']*"
# A whole ``%%`` line: a separator, or a directive whose systems are checked
# after the match.
_LINE_RE = re.compile(
    rf"\s*(?:%%\s*)?(?:({'|'.join(SECTIONS)})"
    r"|(wf|explicit|implicit)\s*\[([^\]]*)\]\s*"
    rf"in\s+(?:\[\s*({_NAME})\s*\]|({_NAME})))\s*\Z"
)


def parse_directive_line(line: str, loc: Loc = NO_LOC):
    """Parse one ``%%`` line into a Separator or an annotation Directive."""
    m = _LINE_RE.match(line)
    if m is None:
        body = line.strip()
        if body.startswith("%%"):
            body = body[2:].strip()
        if not body:
            raise OrbiError("E-DIR", "empty directive line", loc)
        raise OrbiError(
            "E-DIR",
            f"malformed directive: {body!r}",
            loc,
            hint="expected '%% <Section>' or '%% wf|explicit|implicit [sy,..] in <dest>'",
        )
    section, what, systems, ctx, name = m.groups()
    if section is not None:
        return Separator(section, loc)
    systems = [t for s in systems.split(",") if (t := s.strip())]
    if not systems:
        raise OrbiError("E-DIR", "empty system set", loc)
    for s in systems:
        if s not in SYSTEMS:
            raise OrbiError(
                "E-DIR", f"unknown system {s!r}", loc, hint="systems are hy, ab, bel, tw"
            )
    return Directive(what, tuple(dict.fromkeys(systems)), ctx or name, ctx is not None, loc)


class _Cursor:
    """The state of one parse: the lexemes, the position ``i`` among them,
    the binders around it and the leaves made so far.

    ``i`` never passes the eof token.  A production reads ``lex`` at a local
    index, so it may look at token ``i + k`` once the tokens before it are
    known not to be eof.  An identifier's lexeme is in the set ``ids``, a
    directive's starts with ``%%`` and eof's is ``""``; comparing lexemes
    tests for a keyword or a punctuation mark.

    ``names`` has one ``(name, shadowed)`` pair per binder, outermost first,
    where ``shadowed`` is the position of the binder of that name it hides,
    or None; ``depth`` maps each bound name to the position of its innermost
    binder, so an occurrence resolves in one lookup.  A production pushes its
    binders inline and drops them with one ``unbind`` where their scope ends;
    after an error they are all dropped.
    ``consts``, ``vars`` and ``atoms`` hold the ``Const``, ``Var`` and
    argument-free ``AtomApp`` leaves made so far, by name or index.
    ``closers`` maps the index of each ``(`` to that of its ``)``; it is made
    once, when a ``(`` first opens a proposition atom.
    """

    def __init__(self, toks: Tokens):
        self.toks = toks
        self.lex = toks.lexemes
        self.ids = toks.idents
        self.i = 0
        self.names: list[tuple[str, int | None]] = []
        self.depth: dict[str, int] = {}
        self.consts: dict[str, Const] = {}
        self.vars: dict[int, Var] = {}
        self.atoms: dict[str, AtomApp] = {}
        self.closers: dict[int, int] | None = None

    def error(self, i: int, what: str, production: str) -> ParseError:
        """The error of finding token ``i`` where ``what`` was expected."""
        found = self.lex[i] or "end of input"
        return self.fail(i, f"expected {what} but found {found!r}", production)

    def name_error(self, i: int, after: str, production: str) -> ParseError:
        """The error where a name was expected at token ``i`` and ``after``
        right after it, and one of them is not there."""
        if self.lex[i] not in self.ids:
            return self.error(i, "an identifier", production)
        return self.error(i + 1, repr(after), production)

    def fail(self, i: int, message: str, production: str) -> ParseError:
        """The error ``message`` at token ``i``; the cursor is left there."""
        self.i = i
        return ParseError(message, self.toks.loc(i), production=production)

    def unbind(self, n: int = 0) -> None:
        """Drop every binder but the outermost ``n``."""
        names, depth = self.names, self.depth
        for name, shadowed in reversed(names[n:]):
            if shadowed is None:
                del depth[name]
            else:
                depth[name] = shadowed
        del names[n:]


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
    lex, ids, names, depth = c.lex, c.ids, c.names, c.depth
    consts, vars_ = c.consts, c.vars
    i = c.i
    n = base = len(names)
    collect = args
    out = []
    levels = []
    head = None
    while True:
        tok = lex[i]
        if tok in ids:
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
            if lex[i + 1] not in ids or lex[i + 2] != ".":
                raise c.name_error(i + 1, ".", "term")
            name = lex[i + 1]
            names.append((name, depth.get(name)))
            depth[name] = n
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
            if lex[i] in ids or lex[i] == "(":
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


def _parse_tpkind(c: _Cursor):
    """Parse a type or a kind: a chain of ``Arrow`` and ``Pi`` that is a kind
    iff it ends in the `type` atom ``TYPE``.  Only a family's kind may end
    so; the checker rejects `type` anywhere else with a level error.

    A loop collects the ``{x:A}`` binders and the ``->`` arms from the left
    and folds them from the right; a ``<-`` chain reads ``a <- b <- c`` as
    ``c -> b -> a``, and no ``->`` arm may stand before or after it.  A
    parenthesised type and a Π domain recurse.
    """
    lex, ids, names, depth = c.lex, c.ids, c.names, c.depth
    i = c.i
    n = base = len(names)
    prefix = []  # (binder, domain) of each Π, (None, domain) of each '->'
    arms = None  # a '<-' chain's atoms
    while True:
        tok = lex[i]
        if tok == "{" and arms is None:
            if lex[i + 1] not in ids or lex[i + 2] != ":":
                raise c.name_error(i + 1, ":", "tp")
            name = lex[i + 1]
            c.i = i + 3
            dom = _parse_tpkind(c)
            i = c.i
            if lex[i] != "}":
                raise c.error(i, "'}'", "tp")
            i += 1
            names.append((name, depth.get(name)))
            depth[name] = n
            n += 1
            prefix.append((name, dom))
            continue
        if tok in ids:
            i += 1
            if lex[i] in ids or lex[i] == "(":
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
            atom = TYPE
            i += 1
        else:
            raise c.error(i, "a type", "tp")
        op = lex[i]
        if arms is not None:
            arms.append(atom)
            if op == "<-":
                i += 1
                continue
            if op == "->":
                raise c.fail(i, "cannot mix '->' and '<-' without parentheses", "tp")
            break
        if op == "->":
            prefix.append((None, atom))
            i += 1
            continue
        if op != "<-":
            break
        if any(name is None for name, _ in prefix):
            raise c.fail(i, "cannot mix '->' and '<-' without parentheses", "tp")
        arms = [atom]
        i += 1
    c.i = i
    if arms is None:
        out = atom
    else:
        out = arms[0]
        for a in arms[1:]:
            out = Arrow(a, out)
    if prefix:
        for name, dom in reversed(prefix):
            out = Arrow(dom, out) if name is None else Pi(name, dom, out)
        if n > base:
            c.unbind(base)
    return out


def _parse_tp(c: _Cursor):
    """A type: a chain at the cursor that does not end in `type`.  A kind
    there is an error at its first token, and the cursor is left after it."""
    start = c.i
    tp = last = _parse_tpkind(c)
    while type(last) is not AtomApp:
        last = last.cod
    if last is TYPE:
        raise ParseError("expected a type, found a kind", c.toks.loc(start), production="tp")
    return tp


# ------------------------------------------------------ schemas and contexts


def _parse_block(c: _Cursor):
    """``block (x:A, …)``; the parentheses may be left out."""
    lex, ids, names, depth = c.lex, c.ids, c.names, c.depth
    i = c.i
    if lex[i] != "block":
        raise c.error(i, "'block'", "blk")
    parens = lex[i + 1] == "("
    i += 2 if parens else 1
    entries = []
    n = base = len(names)
    while True:
        if lex[i] not in ids or lex[i + 1] != ":":
            raise c.name_error(i, ":", "blk")
        label = lex[i]
        c.i = i + 2
        entries.append((label, _parse_tp(c)))
        i = c.i
        # later entries see it
        names.append((label, depth.get(label)))
        depth[label] = n
        n += 1
        if lex[i] != ",":
            break
        i += 1
    c.unbind(base)
    if parens:
        if lex[i] != ")":
            raise c.error(i, "')'", "blk")
        i += 1
    c.i = i
    return Block(tuple(entries))


def _parse_ctx_body(c: _Cursor, production: str):
    """Context pattern items up to (not including) the closing delimiter."""
    lex, ids = c.lex, c.ids
    i = c.i
    var = lex[i]
    if var == "]" or var == "|-":
        return CtxPattern()
    if lex[i] not in ids:
        raise c.error(i, "an identifier", production)
    i += 1
    blocks = []
    if lex[i] == ":":
        c.i = i + 1
        blocks.append((var, _parse_block(c)))
        i = c.i
        var = None
    while lex[i] == ",":
        if lex[i + 1] not in ids or lex[i + 2] != ":":
            raise c.name_error(i + 1, ":", production)
        c.i = i + 3
        blocks.append((lex[i + 1], _parse_block(c)))
        i = c.i
    c.i = i
    return CtxPattern(var, tuple(blocks))


# -------------------------------------------------- inductive definitions


def _parse_def_atom(c: _Cursor):
    """A relation applied to its bracketed contexts: ``R [g] [h, b:block …]``."""
    lex = c.lex
    i = c.i
    if lex[i] not in c.ids:
        raise c.error(i, "an identifier", "def_prp")
    name = lex[i]
    i += 1
    ctxs = []
    while lex[i] == "[":
        c.i = i + 1
        ctxs.append(_parse_ctx_body(c, "ctx"))
        i = c.i
        if lex[i] != "]":
            raise c.error(i, "']'", "ctx")
        i += 1
    c.i = i
    return RelApp(name, tuple(ctxs))


def _parse_inductive(c: _Cursor):
    """The parameters ``{v:s} … prop`` and the clauses ``= | c: R … | …`` of
    an inductive definition."""
    lex, ids = c.lex, c.ids
    i = c.i
    params = []
    while lex[i] == "{":
        if lex[i + 1] not in ids or lex[i + 2] != ":":
            raise c.name_error(i + 1, ":", "r_kind")
        if lex[i + 3] not in ids or lex[i + 4] != "}":
            raise c.name_error(i + 3, "}", "r_kind")
        params.append((lex[i + 1], lex[i + 3]))
        i += 5
    if lex[i] != "prop":
        raise c.error(i, "'prop'", "r_kind")
    if lex[i + 1] != "=":
        raise c.error(i + 1, "'='", "def_dec")
    if lex[i + 2] != "|":
        raise c.error(i + 2, "'|'", "def_body")
    i += 3
    clauses = []
    while True:
        if lex[i] not in ids or lex[i + 1] != ":":
            raise c.name_error(i, ":", "def_body")
        c.i = i + 2
        atoms = [_parse_def_atom(c)]
        while lex[c.i] == "->":
            c.i += 1
            atoms.append(_parse_def_atom(c))
        clauses.append((lex[i], tuple(atoms[:-1]), atoms[-1]))
        if lex[c.i] != "|":
            return tuple(params), tuple(clauses)
        i = c.i + 1


# ---------------------------------------------------------------- theorems

# binding strength and node of each connective; -> is the loosest and the
# only right-associative one
_CONNECTIVES = {"->": (1, Imp), "||": (2, Or), "&": (3, And)}


def _parse_prp(c: _Cursor, schema_names, family_names):
    """A proposition: a prefix of quantifiers, then atoms joined by
    connectives, folded with an operator stack.  Only a parenthesised
    proposition recurses, two frames a level.

    A ``{v:id}`` quantifier ranges over contexts when ``id`` is a declared
    schema; otherwise the variable's case decides (lowercase variables name
    contexts) unless ``id`` is a declared family."""
    lex, ids = c.lex, c.ids
    i = c.i
    quants = []  # (exists, var, type name or None, type), outermost first
    while lex[i] == "{" or lex[i] == "<":
        close = "}" if lex[i] == "{" else ">"
        if lex[i + 1] not in ids or lex[i + 2] != ":":
            raise c.name_error(i + 1, ":", "quantif")
        var = lex[i + 1]
        if close == "}" and lex[i + 3] in ids and lex[i + 4] == "}":
            quants.append((False, var, lex[i + 3], None))
            i += 5
            continue
        c.i = i + 3
        tp = _parse_tp(c)
        i = c.i
        if lex[i] != close:
            raise c.error(i, repr(close), "quantif")
        quants.append((close == ">", var, None, tp))
        i += 1
    c.i = i
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
        elif tyname in schema_names or tyname not in family_names and var[0].islower():
            body = ForallCtx(var, tyname, body)
        else:
            body = ForallTm(var, AtomApp(tyname), body)
    return body


def _parse_prp_atom(c: _Cursor, schema_names, family_names):
    lex, ids = c.lex, c.ids
    i = c.i
    tok = lex[i]
    if tok == "true" or tok == "false":
        c.i = i + 1
        return TrueP() if tok == "true" else FalseP()
    if tok == "(":
        # `(` opens either a parenthesized proposition or a parenthesized
        # term starting a term equality.  The token after the matching `)`
        # decides: an identifier, `(` or `=` there means the term reading.
        # Otherwise the proposition reading is tried, then the term reading:
        # if both fail, the error is that of the one that got further.
        if c.closers is None:
            c.closers, opened = {}, []
            for j, t in enumerate(lex):
                if t == "(":
                    opened.append(j)
                elif t == ")" and opened:
                    c.closers[opened.pop()] = j
        close = c.closers.get(i)  # None: this `(` is never closed
        failed = None  # the proposition reading's error, and its token
        if close is None or not (lex[close + 1] in ids or lex[close + 1] in ("(", "=")):
            c.i = i + 1
            try:
                p = _parse_prp(c, schema_names, family_names)
            except ParseError as e:
                c.unbind()
                failed = e, c.i
            else:
                if c.i == close:
                    c.i = close + 1
                    return p
        c.i = i
        try:
            term = _parse_term(c)
            j = c.i
            if lex[j] != "=":
                raise c.error(j, "'='", "prp")
        except ParseError:
            if failed is None or c.i >= failed[1]:
                raise
            c.i = failed[1]
            raise failed[0] from None
        c.i = j + 1
        return TermEq(term, _parse_term(c))
    if tok == "[":
        c.i = i + 1
        ctx = _parse_ctx_body(c, "prp")
        i = c.i
        if lex[i] != "|-":
            raise c.error(i, "'|-'", "prp")
        if lex[i + 1] not in ids:
            raise c.error(i + 1, "an identifier", "prp")
        fam = lex[i + 1]
        i += 2
        args = ()
        if lex[i] in ids or lex[i] == "(":
            c.i = i
            args = _parse_term(c, True)
            i = c.i
        if lex[i] != "]":
            raise c.error(i, "']'", "prp")
        c.i = i + 1
        return Judgment(ctx, fam, args)
    if tok in ids and lex[i + 1] == "[":
        return _parse_def_atom(c)
    if tok in ids or tok == "\\":
        term = _parse_term(c)
        j = c.i
        if lex[j] == "=":
            c.i = j + 1
            return TermEq(term, _parse_term(c))
        if type(term) is Const:
            return RelApp(term.name, ())
        raise c.fail(j, "expected '=' after a term in a proposition", "prp")
    raise c.error(i, "a proposition", "prp")


# ------------------------------------------------------------- the driver

# The item a keyword starts (None: an identifier starts a declaration): the
# sections it may stand in, what an error calls it, its production, and the
# tokens after its name and at its end.
_ITEMS = {
    None: (("Syntax", "Judgments", "Rules"), "constant or type declaration", "decl", ":", "."),
    "schema": (("Schemas",), "schema declaration", "s_decl", "=", ";"),
    "inductive": (("Definitions",), "inductive definition", "def_dec", ":", ";"),
    "theorem": (("Theorems",), "theorem", "thm", ":", ";"),
}


def _parse_item(c: _Cursor, section, schema_names, family_names):
    lex, ids = c.lex, c.ids
    i = c.i
    if section is None:
        raise c.fail(i, "declaration before any %% section separator", "sig")
    key = None if lex[i] in ids else lex[i]
    if key not in _ITEMS:
        raise c.error(i, "a declaration", "sig")
    sections, what, production, after, end = _ITEMS[key]
    if section not in sections:
        raise c.fail(i, f"{what} in the {section} section", production)
    j = i if key is None else i + 1  # the name
    if lex[j] not in ids or lex[j + 1] != after:
        raise c.name_error(j, after, production)
    name, loc = lex[j], c.toks.loc(i)
    c.i = j + 2
    if key is None:
        node = last = _parse_tpkind(c)
        while type(last) is not AtomApp:  # inline: a call here is one per declaration
            last = last.cod
        node = (FamDecl if last is TYPE else ConstDecl)(name, node, loc)
    elif key == "schema":
        alts = [_parse_block(c)]
        while lex[c.i] == "+":
            c.i += 1
            alts.append(_parse_block(c))
        node = Schema(name, tuple(alts), loc)
    elif key == "inductive":
        node = InductiveDef(name, *_parse_inductive(c), loc)
    else:
        node = Theorem(name, _parse_prp(c, schema_names, family_names), loc)
    i = c.i
    if lex[i] != end:
        raise c.error(i, repr(end), production)
    c.i = i + 1
    return node


def parse_spec(source: str) -> OrbiSpec:
    toks = tokenize(source)
    c = _Cursor(toks)
    lex = c.lex
    items = []
    errors = []
    section = None
    seg_start = 0
    spans = []
    schema_names: set[str] = set()
    family_names: set[str] = set()
    while True:
        i = c.i
        if not lex[i]:  # eof
            break
        if lex[i][0] == "%":  # a directive
            c.i = i + 1
            try:
                d = parse_directive_line(lex[i], toks.loc(i))
            except OrbiError as e:
                errors += e.diagnostics
                continue
            if type(d) is Separator:
                start, end = toks.span(i)
                if section is not None:
                    spans.append((section, seg_start, start))
                section, seg_start = d.name, end
            else:
                items.append((section or "", d))
            continue
        try:
            node = _parse_item(c, section, schema_names, family_names)
        except ParseError as e:
            errors += e.diagnostics
            # go on after the next '.' or ';', or at the next directive
            i = c.i
            while lex[i] and lex[i][0] != "%":
                i += 1
                if lex[i - 1] == "." or lex[i - 1] == ";":
                    break
            c.i = i
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


def _parse_str(parse, production: str, text: str, binders):
    c = _Cursor(tokenize(text))
    for k, name in enumerate(binders):
        c.names.append((name, c.depth.get(name)))
        c.depth[name] = k
    node = parse(c)
    if c.lex[c.i]:
        raise c.fail(c.i, f"trailing input {c.lex[c.i]!r}", production)
    return node


def parse_term_str(text: str, binders=()):
    """Parse a standalone term; ``binders`` lists enclosing names, outermost first."""
    return _parse_str(_parse_term, "term", text, binders)


def parse_tpkind_str(text: str, binders=()):
    return _parse_str(_parse_tpkind, "tp", text, binders)
