"""LF checking of ORBI signatures at levels 0 and 1.

Syntax-section families define object syntax (level 0), Judgments-section
families are judgments indexed by level-0 terms (level 1), and Rules-section
constants must target a judgment.  Every term is level-0 and simply typed:
``check_tp`` erases a level-0 type to a ``Simple`` type, ``{x:A} B`` and
``A -> B`` alike to ``A⁻ -> B⁻``, in one loop per chain that recurses only
into a domain that is itself a chain.  A rule's schematic variables are
implicit; hole mode reads their types off their Miller-pattern occurrences,
and types a redex as written, solving them by unification, before it
normalises it.  The signature stores a rule's schematic prefix
(``SigEntry.implicit``) and its open body, β-normal, with each arrow from a
level-0 domain made a Pi and each Pi over a judgment an arrow (no term may
use its variable): as written when it is so already, else βη-normal.
``normalize`` is the one βη normaliser: block matching in ``contexts`` and
ab/hy emission use it too.
"""

from __future__ import annotations

from orbi_forge.errors import OrbiError
from orbi_forge.syntax import (
    App,
    Arrow,
    AtomApp,
    Const,
    ConstDecl,
    FamDecl,
    Lam,
    OrbiSpec,
    Pi,
    Record,
    Term,
    Tp,
    TYPE_ATOM,
    Var,
    free,
    rebuild,
    shift,
    subst,
)


class SigEntry(Record):
    # implicit: a rule's schematic variables, in first-occurrence order, and
    # implicit_tps their simple types; decl holds the open body.  simple: a
    # level-0 constant's erased type, or a family's erased kind, with its atom
    __slots__ = ("decl", "level", "section", "implicit", "implicit_tps", "simple")
    _defaults = ((), (), None)


class Simple:
    """A simple type: the atom of a family, or an arrow ``dom -> cod``.  The
    simple types of one signature are interned: a family has one atom, and
    an arrow is filed in ``Signature.arrows`` by its domain and codomain, so
    two are equal iff they are one object."""

    __slots__ = ("family", "dom", "cod")

    def __init__(self, family=None, dom=None, cod=None):
        self.family, self.dom, self.cod = family, dom, cod

    def __str__(self) -> str:
        # as ORBI writes it: a domain that is an arrow is parenthesised
        parts, t = [], _resolve(self)
        while t.dom is not None:
            d = _resolve(t.dom)
            parts.append(f"({d})" if d.dom is not None else d.family)
            t = _resolve(t.cod)
        return " -> ".join(parts + [t.family])


class TypeVar(Simple):
    """An unknown simple type, ``TypeVar("?")``, until unification binds ``ref``."""

    ref = None


def _resolve(t: Simple) -> Simple:
    while type(t) is TypeVar and t.ref is not None:
        t = t.ref
    return t


def _unify(a: Simple, b: Simple) -> bool:
    """Solve ``a = b`` by binding type variables, with an occurs check
    (Damas and Milner, POPL 1982); False if there is no solution."""
    pairs = [(a, b)]
    while pairs:
        a, b = pairs.pop()
        a, b = _resolve(a), _resolve(b)
        if a is b:
            continue
        if type(b) is TypeVar:
            a, b = b, a
        if type(a) is TypeVar:
            todo = [b]
            while todo:
                t = _resolve(todo.pop())
                if t is a:
                    return False
                if t.dom is not None:
                    todo += (t.dom, t.cod)
            a.ref = b
        elif a.dom is None or b.dom is None:
            return False  # two atoms, or an atom and an arrow
        else:
            pairs += ((a.cod, b.cod), (a.dom, b.dom))
    return True


class Signature:
    """Ordered map ``entries`` from declared names to checked entries.

    Each name is added once; ``add`` also files a constant under the family
    its type targets, so ``constructors_of`` is a lookup.  ``arrows`` interns
    the arrows of its simple types by (domain, codomain).
    """

    def __init__(self):
        self.entries: dict[str, SigEntry] = {}
        self._constructors: dict[str, list[ConstDecl]] = {}
        self.arrows: dict[tuple[Simple, Simple], Simple] = {}

    def add(self, entry: SigEntry) -> None:
        decl = entry.decl
        self.entries[decl.name] = entry
        if type(decl) is ConstDecl:
            self._constructors.setdefault(target_family(decl.tp), []).append(decl)

    def rules(self):
        return tuple(e for e in self.entries.values() if e.section == "Rules")

    def constructors_of(self, fam: str):
        return tuple(self._constructors.get(fam, ()))


def target_family(tp: Tp) -> str:
    while type(tp) is not AtomApp:
        tp = tp.cod
    return tp.family


def is_level0(sig: Signature, tp: Tp) -> bool:
    """Whether every family ``tp`` mentions is a syntax-level family."""
    # an atom's indices are terms, which mention no family
    for fam in (tp.family,) if type(tp) is AtomApp else families_in_tp(tp):
        entry = sig.entries.get(fam)
        if entry is None or entry.level != 0:
            return False
    return True


def families_in_tp(tp: Tp, out: dict | None = None) -> dict[str, None]:
    """The families ``tp`` mentions, as the keys of a dict in source order;
    a loop follows a chain's codomains, recursing only into its domains."""
    if out is None:
        out = {}
    while type(tp) is not AtomApp:
        families_in_tp(tp.dom, out)
        tp = tp.cod
    out[tp.family] = None
    return out


# ---------------------------------------------------------- normalization


def normalize(node):
    """βη-normal form of a Term or a Tp.  β is normal order: a redex is
    contracted before its argument is normalised, if ever.  η is bottom-up:
    ``\\x. f x`` becomes ``f`` when x is not free in ``f``.  Only
    applications, lambdas and types are entered, so a ``Const`` or ``Var``
    leaf costs no call; a node none of whose subterms changed is returned
    itself."""
    t = type(node)
    if t is App:
        fn, arg = node.fn, node.arg
        k = type(fn)
        if k is App or k is Lam:
            fn = normalize(fn)
            if type(fn) is Lam:
                return normalize(subst(fn.body, arg))
        k = type(arg)
        if k is App or k is Lam:
            arg = normalize(arg)
        return node if fn is node.fn and arg is node.arg else App(fn, arg)
    if t is Lam:
        body = node.body
        k = type(body)
        if k is App or k is Lam:
            body = normalize(body)
            if type(body) is App and type(body.arg) is Var and body.arg.index == 0:
                fn = body.fn
                if type(fn) is Const:
                    return fn
                if 0 not in free(fn):
                    return shift(fn, -1)
        return node if body is node.body else Lam(node.hint, body)
    if t is AtomApp:
        args = node.args
        for i, a in enumerate(args):
            k = type(a)
            if k is App or k is Lam:
                b = normalize(a)
                if b is not a:
                    args = (*args[:i], b, *args[i + 1 :])
        return node if args is node.args else AtomApp(node.family, args)
    if t is Arrow or t is Pi:
        dom, cod = normalize(node.dom), normalize(node.cod)
        if dom is node.dom and cod is node.cod:
            return node
        return Arrow(dom, cod) if t is Arrow else Pi(node.hint, dom, cod)
    return node


# ------------------------------------------------------- type and kind checking


class _Holes(dict):
    """Schematic variable name -> its simple type, in first-occurrence order
    in the rule's normal form.  Passing one to ``check_tp`` puts the checker
    in hole mode: an identifier the signature lacks is a schematic variable,
    whose type is read off its Miller-pattern occurrences, or is a
    ``TypeVar`` while ``_redex`` types a redex as written (``solving``).
    ``normal`` is cleared once the rule as written is not its stored form."""

    normal, solving = True, False


def check_tp(sig: Signature, ctx: list, tp: Tp, holes=None, kind=None) -> Simple | None:
    """Check that ``tp`` is a well-formed type under ``ctx`` (Var(0) is the
    last entry), or with ``kind``, its family's atom, a kind: the one chain
    that may end in `type`.  Return its erasure if it is level-0 (mentions
    only syntax-level families), else None.  One loop along the chain checks
    each atom, a domain or its end, in place, and pushes each Pi domain's
    erasure onto ``ctx``, popping them all on the way out, also when the
    check raises; a chain that ends in a level-0 family or `type` keeps its
    domains as (domain, rest) pairs."""
    entries = sig.entries
    end = tp
    while type(end) is not AtomApp:
        end = end.cod
    keep = kind is not None or end.family in entries and entries[end.family].level == 0
    doms, pushed = (), 0
    try:
        while True:
            part = tp if type(tp) is AtomApp else tp.dom
            if type(part) is not AtomApp:
                out = check_tp(sig, ctx, part, holes)
            elif part.family == TYPE_ATOM:
                if kind is None or part is not tp:
                    raise OrbiError(
                        "E-LEVEL",
                        "the kind 'type' cannot appear inside a type; "
                        "a family may only be indexed by level-0 terms",
                    )
                out = kind
            else:
                entry = entries.get(fam := part.family)
                if entry is None:
                    raise OrbiError("E-UNBOUND", f"unknown type family {fam!r}")
                if type(entry.decl) is not FamDecl:
                    raise OrbiError("E-TYPE", f"{fam!r} is a term constant, not a type family")
                out = entry.simple
                for arg in part.args:
                    if out.dom is None:
                        raise OrbiError(
                            "E-KIND", f"type family {fam!r} applied to too many arguments"
                        )
                    if type(arg) is not Var or ctx[-1 - arg.index] is not out.dom:
                        _check(sig, ctx, arg, out.dom, holes)
                    out = out.cod
                if out.dom is not None:
                    raise OrbiError("E-KIND", f"type family {fam!r} is not fully applied")
                if entry.level:
                    out = None
            if part is tp:
                break
            if holes is not None and not keep:
                # a rule's product: over a level-0 type a binder, stored as
                # a Pi, else a premise, stored as an arrow (no term may use
                # its variable), which must end in a judgment
                if (out is None) is (type(tp) is Pi):
                    holes.normal = False  # stored otherwise than written
                if out is None:
                    end = part
                    while type(end) is not AtomApp:
                        end = end.cod
                    if entries[end.family].level == 0:
                        raise OrbiError(
                            "E-LEVEL",
                            f"a premise must end in a judgment, not in the level-0 family {end.family!r}",
                        )
            if type(tp) is Pi:
                ctx.append(out)
                pushed += 1
            if keep:
                doms = (out, doms)
            tp = tp.cod
        while doms:
            dom, doms = doms
            if dom is None:
                return None
            key = dom, out
            if key not in sig.arrows:
                sig.arrows[key] = Simple(None, dom, out)
            out = sig.arrows[key]
        return out
    finally:
        if pushed:
            del ctx[-pushed:]


# ------------------------------------------------------------------ typing


def _infer(sig: Signature, ctx: list, t: Term, holes: _Holes | None = None) -> Simple:
    k = type(t)
    if k is Var:
        tp = ctx[-1 - t.index]  # the parser binds every variable
        if tp is None:
            raise OrbiError("E-TYPE", "a variable of a non-level-0 type used as a term")
        return tp
    if k is Const:
        entry = sig.entries.get(t.name)
        if entry is None:
            if holes is None:
                raise OrbiError("E-UNBOUND", f"unbound identifier {t.name!r}")
            tp = holes.get(t.name)  # a schematic in a redex, typed as written
            if tp is None:
                tp = holes[t.name] = TypeVar("?")
            return tp
        if type(entry.decl) is FamDecl:
            raise OrbiError("E-TYPE", f"type family {t.name!r} used as a term")
        if entry.level:
            raise OrbiError("E-TYPE", f"rule {t.name!r} used as a term")
        return entry.simple
    if k is App:
        head, args = t.fn, [t.arg]  # the spine's arguments, last first
        while type(head) is App:
            args.append(head.arg)
            head = head.fn
        inner = ctx
        if type(head) is Lam:
            # a redex: infer each argument that its lambdas bind, so that it
            # is typed even if the body discards it, then the body under them
            inner = ctx[:]
            while type(head) is Lam and args:
                inner.append(_infer(sig, ctx, args.pop(), holes))
                head = head.body
        tf = _infer(sig, inner, head, holes)
        for arg in reversed(args):
            if tf.dom is None:  # an atom, or a type variable
                fn = Simple(None, TypeVar("?"), TypeVar("?"))
                if not _unify(tf, fn):
                    raise OrbiError("E-TYPE", f"term of atomic type '{tf}' applied to an argument")
                tf = fn
            if type(arg) is not Var or ctx[-1 - arg.index] is not tf.dom:
                _check(sig, ctx, arg, tf.dom, holes)
            tf = tf.cod
        return tf
    raise OrbiError("E-TYPE", "cannot infer the type of a bare lambda")


def _check(sig: Signature, ctx: list, t: Term, exp: Simple, holes: _Holes | None = None) -> None:
    if type(t) is Lam:
        if exp.dom is None:  # an atom, or a type variable
            fn = Simple(None, TypeVar("?"), TypeVar("?"))
            if not _unify(exp, fn):
                if holes is not None and not holes.solving:
                    raise OrbiError("E-RECON", f"lambda used where '{exp}' is expected")
                raise OrbiError("E-TYPE", f"expected {exp}, got a lambda")
            exp = fn
        _check(sig, ctx + [exp.dom], t.body, exp.cod, holes)
        return
    if holes is not None and not holes.solving:
        head = t
        while type(head) is App:
            head = head.fn
        if type(head) is Lam:
            _redex(sig, ctx, t, exp, holes)
            return
        if type(head) is Const and head.name not in sig.entries:
            if head is not t or holes.get(t.name) is not exp:
                _schematic(sig, ctx, t, exp, holes)
            # else a bare occurrence already recorded at this very type
            return
    actual = _infer(sig, ctx, t, holes)
    if actual is not exp and not _unify(actual, exp):
        raise OrbiError("E-TYPE", f"expected {exp}, got {actual}")


# ---------------------------------------------------------- reconstruction


def _schematic(sig: Signature, ctx: list, t: Term, exp: Simple, holes: _Holes) -> None:
    """Record the type of the schematic head of ``t : exp``, which must be a
    Miller pattern: the head applied to distinct bound variables of level-0
    types.  One loop along the spine, last argument first, builds the type."""
    cand, seen, fault = exp, 0, ""
    while type(t) is App:
        arg, t = t.arg, t.fn
        if type(arg) is not Var or arg.index >= len(ctx):
            fault = "must be applied to bound variables only"
        elif not fault:
            i = arg.index
            dom = ctx[-1 - i]
            if seen >> i & 1:
                fault = "applied to repeated bound variables"
            elif dom is None:
                fault = "applied to a variable of a non-level-0 type"
            else:
                seen |= 1 << i
                key = dom, cand
                if key not in sig.arrows:
                    sig.arrows[key] = Simple(None, dom, cand)
                cand = sig.arrows[key]
    name = t.name
    if not fault:
        prev = holes.get(name)
        if prev is None:
            holes[name] = cand
            return
        if prev is cand:
            return
        if type(prev) is TypeVar and _unify(prev, cand):
            del holes[name]  # typed in a redex, and here first in normal form
            holes[name] = cand
            return
        fault = f"used at incompatible types '{prev}' and '{cand}'"
    raise OrbiError("E-RECON", f"schematic variable {name!r} {fault}")


def _redex(sig: Signature, ctx: list, t: Term, exp: Simple, holes: _Holes) -> None:
    """Check the redex ``t : exp`` of a rule as written, so that an argument
    the body discards is typed too, then its normal form in hole mode."""
    holes.normal, holes.solving = False, True
    _check(sig, ctx, t, exp, holes)
    holes.solving = False
    _check(sig, ctx, normalize(t), exp, holes)  # simply typed, so it has one


def _reconstruct(sig: Signature, decl: ConstDecl) -> SigEntry:
    """Check a rule and infer its schematic prefix, keeping its open body."""
    holes = _Holes()
    check_tp(sig, [], decl.tp, holes)
    if not holes.normal:
        for name, tp in holes.items():
            if type(tp) is TypeVar:  # only a discarded argument mentions it
                raise OrbiError("E-UNBOUND", f"unbound identifier {name!r}")

        def binder(n, k):  # an arrow from a level-0 domain into a judgment; a Pi over a judgment
            if type(n) is Arrow and is_level0(sig, n.dom) and not is_level0(sig, n.cod):
                return Pi("x", n.dom, shift(n.cod, 1))
            if type(n) is Pi and sig.entries[target_family(n.dom)].level:
                return Arrow(n.dom, shift(n.cod, -1))
            return n

        decl = ConstDecl(decl.name, rebuild(normalize(decl.tp), binder), decl.loc)
    return SigEntry(decl, 1, "Rules", tuple(holes), tuple(holes.values()))


# ---------------------------------------------------------------- checking


def check_signature(spec: OrbiSpec) -> Signature:
    sig = Signature()
    for section, decl in spec.decls_in_order():
        try:
            if decl.name in sig.entries:
                raise OrbiError("E-DUP", f"duplicate declaration of {decl.name!r}")
            if section == "Syntax":
                if type(decl) is FamDecl:
                    if type(decl.kind) is not AtomApp:
                        raise OrbiError(
                            "E-LEVEL", f"syntax-level family {decl.name!r} must have kind 'type'"
                        )
                    simple = Simple(decl.name)
                elif (simple := check_tp(sig, [], decl.tp)) is None:
                    raise OrbiError(
                        "E-LEVEL",
                        f"syntax-level constant {decl.name!r} may only mention level-0 families",
                    )
                sig.add(SigEntry(decl, 0, section, simple=simple))
            elif section == "Judgments":
                if type(decl) is ConstDecl:
                    raise OrbiError(
                        "E-LEVEL",
                        "only judgment (type family) declarations may appear in the "
                        "Judgments section",
                    )
                if (simple := check_tp(sig, [], decl.kind, kind=Simple(decl.name))) is None:
                    raise OrbiError(
                        "E-LEVEL",
                        f"judgment {decl.name!r} must be indexed by level-0 terms "
                        "only (family indexed by a family)",
                    )
                sig.add(SigEntry(decl, 1, section, simple=simple))
            else:  # the parser admits a declaration in these three sections only
                if type(decl) is FamDecl:
                    raise OrbiError(
                        "E-LEVEL", "type families may not be declared in the Rules section"
                    )
                entry = _reconstruct(sig, decl)
                if sig.entries[target_family(decl.tp)].level != 1:
                    raise OrbiError(
                        "E-LEVEL", f"rule {decl.name!r} must target a level-1 judgment family"
                    )
                sig.add(entry)
        except OrbiError as e:
            raise e.at(decl.loc)
    return sig
