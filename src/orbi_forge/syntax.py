"""Core abstract syntax shared by every stage of the toolchain.

Bound variables are nameless: a ``Var`` carries the number of binders between
its occurrence and the binder that introduced it.  Surface names survive only
as printing hints on the binders themselves, so capture-avoiding substitution
is plain structural recursion and ``==`` is alpha-equivalence: the ``hint`` of
``Lam``/``Pi``/``KPi``, ``Block`` entry labels and every ``loc`` are left out of
equality and hashing.  Names that a reader can refer to are compared:
``Snoc`` labels, the variables of ``ForallCtx``/``ForallTm``/``ExistsTm``,
``InductiveDef`` clause names and every ``Directive`` field.  ``free`` is the
one walker asking which indices and names occur, and ``rebuild`` the one
rewriting map (``shift``, ``subst``, ``lf._close``, ``translate.eta_contract``
and ``lf.normalize`` on types and kinds are its instances; on a term,
``normalize`` stays a normal-order fold).  Nothing here consults a signature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union


@dataclass(frozen=True)
class Loc:
    """1-based source position."""

    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


NO_LOC = Loc(0, 0)

SECTIONS = ("Syntax", "Judgments", "Rules", "Schemas", "Definitions", "Directives", "Theorems")
SYSTEMS = ("hy", "ab", "bel", "tw")

# Name used when the `type` keyword leaks into a type position; the checker
# rejects any type mentioning this pseudo-family.
TYPE_ATOM = "type"


# ------------------------------------------------------------------ terms


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    index: int


@dataclass(frozen=True)
class Const(Term):
    name: str


@dataclass(frozen=True)
class Lam(Term):
    hint: str = field(compare=False)
    body: Term


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term


def spine(t: Term) -> tuple[Term, tuple[Term, ...]]:
    """Split left-nested applications into (head, args)."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    return t, tuple(reversed(args))


def apply_spine(head: Term, args) -> Term:
    t = head
    for a in args:
        t = App(t, a)
    return t


# ------------------------------------------------------------------ types


class Tp:
    __slots__ = ()


@dataclass(frozen=True)
class AtomApp(Tp):
    family: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class Arrow(Tp):
    dom: Tp
    cod: Tp


@dataclass(frozen=True)
class Pi(Tp):
    hint: str = field(compare=False)
    dom: Tp
    cod: Tp  # scopes one binder


# ------------------------------------------------------------------ kinds


class Kind:
    __slots__ = ()


@dataclass(frozen=True)
class Type(Kind):
    pass


@dataclass(frozen=True)
class KArrow(Kind):
    dom: Tp
    cod: Kind


@dataclass(frozen=True)
class KPi(Kind):
    hint: str = field(compare=False)
    dom: Tp
    cod: Kind  # scopes one binder


# ----------------------------------------------------------- declarations


@dataclass(frozen=True)
class ConstDecl:
    name: str
    tp: Tp
    loc: Loc = field(default=NO_LOC, compare=False)


@dataclass(frozen=True)
class FamDecl:
    name: str
    kind: Kind
    loc: Loc = field(default=NO_LOC, compare=False)


Decl = Union[ConstDecl, FamDecl]


# ---------------------------------------------------------------- schemas


@dataclass(frozen=True, eq=False)
class Block:
    """Ordered telescope of labelled assumptions.

    Entry types may reference earlier entries of the same block through Var
    indices (the previous entry is Var(0)).  Labels are printing hints and
    matching material for the linter only, so ``==`` and ``hash`` see the
    entry types alone.
    """

    entries: tuple[tuple[str, Tp], ...]

    def __eq__(self, other):
        if type(other) is not Block:
            return NotImplemented
        return [tp for _, tp in self.entries] == [tp for _, tp in other.entries]

    def __hash__(self):
        return hash(tuple(tp for _, tp in self.entries))


@dataclass(frozen=True)
class Schema:
    name: str
    alternatives: tuple[Block, ...]
    loc: Loc = field(default=NO_LOC, compare=False)


# -------------------------------------------------------- context patterns


class CtxPattern:
    __slots__ = ()


@dataclass(frozen=True)
class EmptyCtx(CtxPattern):
    pass


@dataclass(frozen=True)
class CtxVar(CtxPattern):
    name: str


@dataclass(frozen=True)
class Snoc(CtxPattern):
    prefix: CtxPattern
    label: str
    block: Block


def ctx_head_var(c: CtxPattern):
    """The context variable at the head of a pattern, or None."""
    while isinstance(c, Snoc):
        c = c.prefix
    return c.name if isinstance(c, CtxVar) else None


def ctx_blocks(c: CtxPattern) -> tuple[tuple[str, Block], ...]:
    out = []
    while isinstance(c, Snoc):
        out.append((c.label, c.block))
        c = c.prefix
    return tuple(reversed(out))


# ------------------------------------------------------------ propositions


class Prp:
    __slots__ = ()


@dataclass(frozen=True)
class RelApp(Prp):
    name: str
    ctxs: tuple[CtxPattern, ...] = ()


@dataclass(frozen=True)
class Judgment(Prp):
    ctx: CtxPattern
    family: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class TermEq(Prp):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class TrueP(Prp):
    pass


@dataclass(frozen=True)
class FalseP(Prp):
    pass


@dataclass(frozen=True)
class And(Prp):
    lhs: Prp
    rhs: Prp


@dataclass(frozen=True)
class Or(Prp):
    lhs: Prp
    rhs: Prp


@dataclass(frozen=True)
class Imp(Prp):
    lhs: Prp
    rhs: Prp


@dataclass(frozen=True)
class ForallCtx(Prp):
    var: str
    schema: str
    body: Prp


@dataclass(frozen=True)
class ForallTm(Prp):
    var: str
    tp: Tp
    body: Prp


@dataclass(frozen=True)
class ExistsTm(Prp):
    var: str
    tp: Tp
    body: Prp


# ------------------------------------------------- definitions / theorems


@dataclass(frozen=True)
class InductiveDef:
    name: str
    params: tuple[tuple[str, str], ...]  # (context var, schema name)
    clauses: tuple[tuple[str, Prp], ...]
    loc: Loc = field(default=NO_LOC, compare=False)


@dataclass(frozen=True)
class Theorem:
    name: str
    statement: Prp
    loc: Loc = field(default=NO_LOC, compare=False)


@dataclass(frozen=True)
class Directive:
    what: str  # wf | explicit | implicit
    systems: tuple[str, ...]
    dest: str
    dest_is_ctx: bool = False
    loc: Loc = field(default=NO_LOC, compare=False)


@dataclass(frozen=True)
class Separator:
    name: str
    loc: Loc = field(default=NO_LOC, compare=False)


# -------------------------------------------------------------- documents


@dataclass(frozen=True)
class OrbiSpec:
    """A parsed .orbi document.

    ``items`` keeps every declaration in source order together with the
    section it was written under; the per-section views below are derived.
    The raw source and section spans are retained so that passthrough
    targets can reproduce input sections byte for byte.
    """

    items: tuple[tuple[str, object], ...] = ()
    source: str = field(default="", compare=False, repr=False)
    section_spans: tuple[tuple[str, int, int], ...] = field(default=(), compare=False, repr=False)

    def _nodes(self, section, kinds):
        return tuple(n for s, n in self.items if s == section and isinstance(n, kinds))

    @property
    def syntax_decls(self):
        return self._nodes("Syntax", (ConstDecl, FamDecl))

    @property
    def judgment_decls(self):
        return self._nodes("Judgments", (ConstDecl, FamDecl))

    @property
    def rules(self):
        return self._nodes("Rules", (ConstDecl, FamDecl))

    @property
    def schemas(self):
        return tuple(n for _, n in self.items if isinstance(n, Schema))

    @property
    def definitions(self):
        return tuple(n for _, n in self.items if isinstance(n, InductiveDef))

    @property
    def directives(self):
        return tuple(n for _, n in self.items if isinstance(n, Directive))

    @property
    def theorems(self):
        return tuple(n for _, n in self.items if isinstance(n, Theorem))

    def decls_in_order(self):
        return tuple((s, n) for s, n in self.items if isinstance(n, (ConstDecl, FamDecl)))

    def section_text(self, section: str) -> str:
        """Raw source of a section (separator lines excluded)."""
        parts = []
        for name, start, end in self.section_spans:
            if name == section:
                chunk = self.source[start:end].strip("\n")
                if chunk.strip():
                    parts.append(chunk)
        return "\n".join(parts)


# ------------------------------------------------------- rewriting walker


def rebuild(node, f, d: int = 0):
    """Bottom-up map over a Term, Tp or Kind.

    Each node's children are rebuilt first; then ``f(node, k)`` replaces the
    node, where ``k`` counts the binders above it (from ``d``).  A node none
    of whose children changed reaches ``f`` as it is, so unchanged subtrees
    are shared rather than copied.
    """
    t = type(node)
    if t is App:
        fn = rebuild(node.fn, f, d)
        arg = rebuild(node.arg, f, d)
        if fn is not node.fn or arg is not node.arg:
            node = App(fn, arg)
    elif t is Lam:
        body = rebuild(node.body, f, d + 1)
        if body is not node.body:
            node = Lam(node.hint, body)
    elif t is AtomApp:
        args = node.args
        for i, a in enumerate(node.args):
            b = rebuild(a, f, d)
            if b is not a:
                args = args[:i] + (b,) + args[i + 1 :]
        if args is not node.args:
            node = AtomApp(node.family, args)
    elif t is Arrow or t is KArrow:
        dom = rebuild(node.dom, f, d)
        cod = rebuild(node.cod, f, d)
        if dom is not node.dom or cod is not node.cod:
            node = t(dom, cod)
    elif t is Pi or t is KPi:
        dom = rebuild(node.dom, f, d)
        cod = rebuild(node.cod, f, d + 1)
        if dom is not node.dom or cod is not node.cod:
            node = t(node.hint, dom, cod)
    return f(node, d)


def shift(node, by: int, cutoff: int = 0):
    """Add ``by`` to each free index of ``node`` that is ``cutoff`` or more,
    counted from outside ``node`` as ``free`` counts them."""

    def var(n, k):
        return Var(n.index + by) if type(n) is Var and n.index >= cutoff + k else n

    return rebuild(node, var)


def subst(node, repl: Term):
    """Eliminate the binder scoping ``node``: replace Var(0) by ``repl`` and
    lower the indices above it, capture-avoidingly."""

    def var(n, k):
        if type(n) is not Var or n.index < k:
            return n
        if n.index > k:
            return Var(n.index - 1)
        return shift(repl, k) if k else repl

    return rebuild(node, var)


# ------------------------------------------------- spec equality & free names


def spec_alpha_equal(a: OrbiSpec, b: OrbiSpec) -> bool:
    """Section-wise comparison up to alpha, ignoring locations and layout."""
    return all(
        getattr(a, view) == getattr(b, view)
        for view in (
            "syntax_decls",
            "judgment_decls",
            "rules",
            "schemas",
            "definitions",
            "directives",
            "theorems",
        )
    )


def free(node, d: int = 0) -> set:
    """Free de Bruijn indices (ints, counted from outside ``d`` binders) and
    the constant and family names (strs) occurring in a Term, Tp or Kind."""
    t = type(node)
    if t is Var:
        return {node.index - d} if node.index >= d else set()
    if t is Const:
        return {node.name}
    if t is App:
        return free(node.fn, d) | free(node.arg, d)
    if t is Lam:
        return free(node.body, d + 1)
    if t is AtomApp:
        out = {node.family}
        for a in node.args:
            out |= free(a, d)
        return out
    if t is Arrow or t is KArrow:
        return free(node.dom, d) | free(node.cod, d)
    if t is Pi or t is KPi:
        return free(node.dom, d) | free(node.cod, d + 1)
    return set()
