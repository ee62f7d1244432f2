"""Core abstract syntax shared by every stage of the toolchain.

Every node is a ``Record``: its class lists its fields in ``__slots__`` and the
values of its trailing defaulted fields in ``_defaults``, and gets a generated
``__init__``, ``==`` and ``hash``.  Bound variables are nameless: a ``Var``
carries the number of binders between its occurrence and the binder that
introduced it.  Surface names survive only as printing hints on the binders
themselves, so capture-avoiding substitution is plain structural recursion and
``==`` is alpha-equivalence.  The fields left out of equality and hashing are
each class's ``_hidden``: the ``hint`` of ``Lam``/``Pi``, the ``loc`` of
every declaration, and the raw ``source`` and ``section_spans`` of an
``OrbiSpec``; ``Block``'s own ``==`` ignores its entry labels.  Names that a
reader can refer to are compared: the block labels of a ``CtxPattern``, the
variables of ``ForallCtx``/``ForallTm``/``ExistsTm``, ``InductiveDef`` clause
names and every ``Directive`` field.  Context patterns and relation clauses
are stored flat: a ``CtxPattern`` keeps its blocks in a tuple, and a clause
its premises.  ``free`` is the one walker asking which indices and names
occur, and ``rebuild`` the one rewriting map (``shift``, ``subst`` and a
rule's stored form are its instances; ``lf.normalize``, the one βη
normaliser, is a walk of its own that enters only applications, lambdas
and types, with normal-order β and bottom-up η).  ``last_uses`` runs
``free`` once over each part of a telescope, a chain of products
(``chain``) or a block, for the printer to name its binders and for the
linter to find the vacuous ones.
A kind is a type whose chain ends in the atom ``TYPE``, as in a pure type
system: one ``Arrow`` and one ``Pi`` serve both.  Nothing here consults a
signature.
"""

from __future__ import annotations

_COMPILED: dict = {}  # generated Record source -> its code object


class Record:
    """Base of the syntax nodes and of every other plain record.

    A subclass lists its fields in ``__slots__``, the values of its trailing
    defaulted fields in ``_defaults`` and the fields left out of ``==`` and
    ``hash`` in ``_hidden``.  The slots it names in ``_derived`` are not
    fields but values its own ``__getattr__`` derives from them on first use;
    the fields are ``_fields``.  As ``collections.namedtuple`` does, one short
    ``exec`` per class compiles an ``__init__`` taking the fields in order,
    positionally or by keyword, and, unless the class defines its own, an
    ``__eq__`` (same class and equal compared fields) with its ``__hash__``.
    Classes of one shape share the compiled code: each distinct source is
    compiled once, so ``And`` and ``Or`` run the same ``__eq__`` code.
    Records are immutable by convention: no code assigns a field after
    construction, and ``__slots__`` rejects new attributes.
    """

    __slots__ = ()
    _defaults: tuple = ()
    _hidden: tuple = ()
    _derived: tuple = ()

    def __init_subclass__(cls):
        fields = cls._fields = tuple(f for f in cls.__slots__ if f not in cls._derived)
        n = len(fields) - len(cls._defaults)
        params = "".join(f", {f}" if i < n else f", {f}=_d[{i - n}]" for i, f in enumerate(fields))
        body = [f" self.{f} = {f}" for f in fields] or [" pass"]
        lines = [f"def __init__(self{params}):", *body]
        if "__eq__" not in cls.__dict__:
            shown = [f for f in fields if f not in cls._hidden]
            # field by field rather than as tuples: one rich comparison less
            # per tree level; ``is`` skips shared subtrees as tuples do
            same = [f"(self.{f} is other.{f} or self.{f} == other.{f})" for f in shown]
            lines += [
                "def __eq__(self, other):",
                " if other.__class__ is not self.__class__: return NotImplemented",
                f" return {' and '.join(same) or 'True'}",
                "def __hash__(self):",
                f" return hash(({''.join(f'self.{f}, ' for f in shown)}))",
            ]
        source = "\n".join(lines)
        code = _COMPILED.get(source)
        if code is None:
            code = _COMPILED[source] = compile(source, f"<record({', '.join(fields)})>", "exec")
        methods: dict = {}
        exec(code, {"_d": cls._defaults}, methods)
        for name, fn in methods.items():
            setattr(cls, name, fn)

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def _replace(self, **changes):
        """A copy with the named fields changed."""
        return type(self)(**{f: getattr(self, f) for f in self._fields} | changes)


class Loc(Record):
    """1-based source position."""

    __slots__ = ("line", "col")

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


NO_LOC = Loc(0, 0)

SECTIONS = ("Syntax", "Judgments", "Rules", "Schemas", "Definitions", "Directives", "Theorems")
SYSTEMS = ("hy", "ab", "bel", "tw")

# The family of the atom that the `type` keyword reads as.  It ends the chain
# of a family's kind; the checker rejects it anywhere else.
TYPE_ATOM = "type"


# ------------------------------------------------------------------ terms


class Term(Record):
    __slots__ = ()


class Var(Term):
    __slots__ = ("index",)


class Const(Term):
    __slots__ = ("name",)


class Lam(Term):
    __slots__ = ("hint", "body")
    _hidden = ("hint",)


class App(Term):
    __slots__ = ("fn", "arg")


# ------------------------------------------------------------------ types


class Tp(Record):
    __slots__ = ()


class AtomApp(Tp):
    __slots__ = ("family", "args")
    _defaults = ((),)


class Arrow(Tp):
    __slots__ = ("dom", "cod")


class Pi(Tp):
    __slots__ = ("hint", "dom", "cod")  # cod scopes one binder
    _hidden = ("hint",)


TYPE = AtomApp(TYPE_ATOM)  # the one `type` atom the parser makes


# ----------------------------------------------------------- declarations


class ConstDecl(Record):
    __slots__ = ("name", "tp", "loc")
    _defaults = (NO_LOC,)
    _hidden = ("loc",)


class FamDecl(Record):
    __slots__ = ("name", "kind", "loc")
    _defaults = (NO_LOC,)
    _hidden = ("loc",)


# ---------------------------------------------------------------- schemas


class Block(Record):
    """Ordered telescope of labelled assumptions.

    Entry types may reference earlier entries of the same block through Var
    indices (the previous entry is Var(0)).  Labels are printing hints and
    matching material for the linter only, so ``==`` and ``hash`` see the
    entry types alone.
    """

    __slots__ = ("entries",)

    def __eq__(self, other):
        if type(other) is not Block:
            return NotImplemented
        return [tp for _, tp in self.entries] == [tp for _, tp in other.entries]

    def __hash__(self):
        return hash(tuple(tp for _, tp in self.entries))


class Schema(Record):
    __slots__ = ("name", "alternatives", "loc")
    _defaults = (NO_LOC,)
    _hidden = ("loc",)


# -------------------------------------------------------- context patterns


class CtxPattern(Record):
    """A context: its context variable, or None when it starts empty, then
    its (label, ``Block``) pairs in source order."""

    __slots__ = ("var", "blocks")
    _defaults = (None, ())


# ------------------------------------------------------------ propositions


class Prp(Record):
    __slots__ = ()


class RelApp(Prp):
    __slots__ = ("name", "ctxs")
    _defaults = ((),)


class Judgment(Prp):
    __slots__ = ("ctx", "family", "args")
    _defaults = ((),)


class TermEq(Prp):
    __slots__ = ("lhs", "rhs")


class TrueP(Prp):
    __slots__ = ()


class FalseP(Prp):
    __slots__ = ()


class And(Prp):
    __slots__ = ("lhs", "rhs")


class Or(Prp):
    __slots__ = ("lhs", "rhs")


class Imp(Prp):
    __slots__ = ("lhs", "rhs")


class ForallCtx(Prp):
    __slots__ = ("var", "schema", "body")


class ForallTm(Prp):
    __slots__ = ("var", "tp", "body")


class ExistsTm(Prp):
    __slots__ = ("var", "tp", "body")


# ------------------------------------------------- definitions / theorems


class InductiveDef(Record):
    # params: (context var, schema name) pairs; clauses: (name, premises,
    # head) triples, each premise and the head a RelApp
    __slots__ = ("name", "params", "clauses", "loc")
    _defaults = (NO_LOC,)
    _hidden = ("loc",)


class Theorem(Record):
    __slots__ = ("name", "statement", "loc")
    _defaults = (NO_LOC,)
    _hidden = ("loc",)


class Directive(Record):
    __slots__ = ("what", "systems", "dest", "dest_is_ctx", "loc")  # what: wf | explicit | implicit
    _defaults = (False, NO_LOC)
    _hidden = ("loc",)


class Separator(Record):
    __slots__ = ("name", "loc")
    _defaults = (NO_LOC,)
    _hidden = ("loc",)


# -------------------------------------------------------------- documents


class OrbiSpec(Record):
    """A parsed .orbi document.

    ``items`` keeps every declaration in source order together with the
    section it was written under.  The per-section views (``rules``,
    ``schemas``, ...) are derived from it in one pass, at the first read of
    any of them.  The raw source and section spans are retained so that
    passthrough targets can reproduce input sections byte for byte.
    """

    _derived = (
        *("syntax_decls", "judgment_decls", "rules", "_decls"),
        *("schemas", "definitions", "directives", "theorems"),
    )
    __slots__ = ("items", "source", "section_spans", *_derived)
    _defaults = ((), "", ())
    _hidden = ("source", "section_spans")
    _DECL_VIEWS = {"Syntax": "syntax_decls", "Judgments": "judgment_decls", "Rules": "rules"}
    _ITEM_VIEWS = {
        Schema: "schemas",
        InductiveDef: "definitions",
        Directive: "directives",
        Theorem: "theorems",
    }

    def __getattr__(self, name):
        # reached only while the views are unset
        if name not in self._derived:
            raise AttributeError(name)
        views = {view: [] for view in self._derived}
        for section, node in self.items:
            kind = type(node)
            if kind is ConstDecl or kind is FamDecl:
                views["_decls"].append((section, node))
                view = self._DECL_VIEWS.get(section)
            else:
                view = self._ITEM_VIEWS.get(kind)
            if view is not None:
                views[view].append(node)
        for view, nodes in views.items():
            setattr(self, view, tuple(nodes))
        return getattr(self, name)

    def decls_in_order(self):
        """The (section, declaration) pairs of every constant and family."""
        return self._decls

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
    """Bottom-up map over a Term or a Tp.

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
    elif t is Arrow or t is Pi:
        dom = rebuild(node.dom, f, d)
        cod = rebuild(node.cod, f, d + 1 if t is Pi else d)
        if dom is not node.dom or cod is not node.cod:
            node = Arrow(dom, cod) if t is Arrow else Pi(node.hint, dom, cod)
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
    the constant and family names (strs) occurring in a Term or a Tp; a
    kind's include ``TYPE_ATOM``.
    The arguments of an application or an atom are walked in a loop, each
    leaf read in place."""
    t = type(node)
    if t is Var:
        return {node.index - d} if node.index >= d else set()
    if t is Const:
        return {node.name}
    if t is App or t is AtomApp:
        if t is App:
            out, args = set(), []  # the spine, innermost argument first
            while t is App:
                args += (node.arg,)
                node = node.fn
                t = type(node)
            args += (node,)
        else:
            out, args = {node.family}, node.args
        for a in args:
            t = type(a)
            if t is Const:
                out |= {a.name}
            elif t is Var:
                if a.index >= d:
                    out |= {a.index - d}
            else:
                out |= free(a, d)
        return out
    if t is Lam:
        return free(node.body, d + 1)
    if t is Arrow or t is Pi:
        return free(node.dom, d) | free(node.cod, d + 1 if t is Pi else d)
    return set()


def chain(tp) -> tuple[list, list]:
    """A chain of arrows and products (``Arrow``, ``Pi``), a type's or a
    kind's, followed along its codomains: the hints of its products,
    outermost first, and its parts as ``last_uses`` takes them, each link's
    domain and then the atom that ends the chain, each under the products
    before it."""
    hints: list = []
    parts: list = []
    t = type(tp)
    while t is Arrow or t is Pi:
        parts += ((tp.dom, len(hints)),)
        if t is Pi:
            hints += (tp.hint,)
        tp = tp.cod
        t = type(tp)
    parts += ((tp, len(hints)),)
    return hints, parts


def last_uses(parts) -> dict:
    """Where a telescope last mentions each name.  ``parts`` are (node, k)
    pairs in order of ``k``, each node lying under the telescope's first
    ``k`` binders.  The result maps each constant or family name (str) and
    each binder position (int: binder i is i, and an index y free outside
    the telescope is -1 - y) that a part under a binder mentions to the
    largest such ``k``, so binder i is mentioned inside its own scope iff
    ``i`` is a key.  A part under no binder is in no binder's scope, and
    is skipped."""
    last: dict = {}
    for node, k in parts:
        if k:
            for x in free(node):
                last[x if type(x) is str else k - 1 - x] = k
    return last
