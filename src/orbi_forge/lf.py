"""LF checking of ORBI signatures at levels 0 and 1.

Syntax-section families define object syntax (level 0), Judgments-section
families are judgments indexed by level-0 terms (level 1), and Rules-section
constants must target a judgment.  Definitional equality is beta only.  A
rule's schematic variables are left implicit in the source; their types are
inferred from Miller-pattern occurrences in the same traversal that checks
the rule (the checker's hole mode).  The signature stores a rule's open body,
in which each schematic occurrence is still a ``Const``, and its schematic
prefix, the names in ``SigEntry.implicit`` with their types.

Every term of a spec is a level-0 term: a rule, or a variable of a type that
is not level-0, used as a term is an ``E-TYPE``.  A level-0 family has kind
``type``, so every type a term is checked against mentions no term: it is
closed and beta-normal, kept as it is and compared with ``==`` (by identity
first: the parser shares one argument-free ``AtomApp`` per family).
"""

from __future__ import annotations

from orbi_forge.errors import OrbiError
from orbi_forge.pretty import tp_str
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
    apply_spine,
    free,
    rebuild,
    subst,
)


class SigEntry(Record):
    # implicit: a rule's schematic variables, in first-occurrence order, and
    # implicit_tps their reconstructed types; decl holds the open body
    __slots__ = ("decl", "level", "section", "implicit", "implicit_tps")
    _defaults = ((), ())


class Signature:
    """Ordered map ``entries`` from declared names to checked entries.

    Each name is added once; ``add`` also files a constant under the family
    its type targets, so ``constructors_of`` is a lookup.
    """

    def __init__(self):
        self.entries: dict[str, SigEntry] = {}
        self._constructors: dict[str, list[ConstDecl]] = {}

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


def kind_domains(k: Tp) -> tuple[Tp, ...]:
    """The domains of a family's kind, up to the `type` atom that ends it."""
    out = []
    while type(k) is not AtomApp:
        out.append(k.dom)
        k = k.cod
    return tuple(out)


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
    """Beta-normal form of a Term or a Tp, without eta, visiting each node
    once.  Normal order: a redex is contracted before its argument is
    normalised, if ever."""
    t = type(node)
    if t is AtomApp and not node.args:
        return node
    if t is Lam:
        body = normalize(node.body)
        return node if body is node.body else Lam(node.hint, body)
    if t is App:
        fn = normalize(node.fn)
        if type(fn) is Lam:
            return normalize(subst(fn.body, node.arg))
        arg = normalize(node.arg)
        return node if fn is node.fn and arg is node.arg else App(fn, arg)
    if t is AtomApp:
        args = tuple([normalize(a) for a in node.args])
        changed = [a is not b for a, b in zip(args, node.args)]
        return AtomApp(node.family, args) if any(changed) else node
    if t is Arrow or t is Pi:
        dom, cod = normalize(node.dom), normalize(node.cod)
        if dom is node.dom and cod is node.cod:
            return node
        return Arrow(dom, cod) if t is Arrow else Pi(node.hint, dom, cod)
    return node


# ------------------------------------------------------- type and kind checking


class _Holes(dict):
    """Schematic variable name -> reconstructed type, in first-occurrence order.

    Passing one to ``check_tp`` puts the checker in hole mode: a spine headed
    by an identifier the signature lacks is a schematic occurrence.
    """

    beta = False  # set once a beta-redex was checked


def check_tp(
    sig: Signature, ctx: list[Tp | None], tp: Tp, holes: _Holes | None = None, kind: bool = False
) -> bool:
    """Check that ``tp`` is a well-formed type under ``ctx`` (Var(0) is the
    last entry), or with ``kind`` a family's kind, the one chain that may end
    in `type`, and return whether it is level-0: whether every family it
    mentions is a syntax-level one.  A loop along an arrow or Pi chain pushes
    each Pi domain onto ``ctx``, one that is not level-0 as ``None``, and pops
    them all on the way out, also when the check raises."""
    pushed, level0 = 0, True
    try:
        while type(tp) is not AtomApp:
            dom = tp.dom
            dom0 = check_tp(sig, ctx, dom, holes)
            if type(tp) is Pi:
                ctx.append(dom if dom0 else None)
                pushed += 1
            level0 = level0 and dom0
            tp = tp.cod
        if tp.family == TYPE_ATOM:
            if kind:
                return level0
            raise OrbiError(
                "E-LEVEL",
                "the kind 'type' cannot appear inside a type; "
                "a family may only be indexed by level-0 terms",
            )
        entry = sig.entries.get(tp.family)
        if entry is None:
            raise OrbiError("E-UNBOUND", f"unknown type family {tp.family!r}")
        if type(entry.decl) is not FamDecl:
            raise OrbiError("E-TYPE", f"{tp.family!r} is a term constant, not a type family")
        k = entry.decl.kind
        for arg in tp.args:
            if type(k) is AtomApp:
                raise OrbiError(
                    "E-KIND", f"type family {tp.family!r} applied to too many arguments"
                )
            # a stored kind's domains are level-0, so its codomain mentions no term
            dom, k = k.dom, k.cod
            _check(sig, ctx, arg, dom, holes)
        if type(k) is not AtomApp:
            raise OrbiError("E-KIND", f"type family {tp.family!r} is not fully applied")
        return level0 and entry.level == 0
    finally:
        if pushed:
            del ctx[-pushed:]


# ------------------------------------------------------------------ typing


def _infer(sig: Signature, ctx: list[Tp | None], t: Term, holes: _Holes | None = None) -> Tp:
    k = type(t)
    if k is Var:
        if t.index >= len(ctx):
            raise OrbiError("E-UNBOUND", f"unbound variable index {t.index}")
        tp = ctx[-1 - t.index]
        # check_tp pushes a Pi domain that is not level-0 as None, so in hole
        # mode every other entry is level-0; a block's telescope, read outside
        # it, holds each entry's type, level-0 or not
        if tp is None or holes is None and (
            sig.entries[tp.family].level if type(tp) is AtomApp else not is_level0(sig, tp)
        ):
            raise OrbiError("E-TYPE", "a variable of a non-level-0 type used as a term")
        return tp
    if k is Const:
        entry = sig.entries.get(t.name)
        if entry is None:
            raise OrbiError("E-UNBOUND", f"unbound identifier {t.name!r}")
        if type(entry.decl) is FamDecl:
            raise OrbiError("E-TYPE", f"type family {t.name!r} used as a term")
        if entry.level:
            raise OrbiError("E-TYPE", f"rule {t.name!r} used as a term")
        return entry.decl.tp
    if k is App:
        head, args = t.fn, [t.arg]  # the spine's arguments, last first
        while type(head) is App:
            args.append(head.arg)
            head = head.fn
        if type(head) is Lam:
            # beta-redex: infer the first argument, so that it is typed even
            # if the body discards it, then the instantiated body, applied to
            # the other arguments if there are any
            first = args.pop()
            ta = _infer(sig, ctx, first)
            if args:
                return _infer(sig, ctx, apply_spine(subst(head.body, first), reversed(args)))
            return _infer(sig, ctx + [ta], head.body)
        tf = _infer(sig, ctx, head, holes)
        for arg in reversed(args):
            k = type(tf)
            if k is not Arrow and k is not Pi:
                raise OrbiError(
                    "E-TYPE", f"term of atomic type {tp_str(tf, [])!r} applied to an argument"
                )
            _check(sig, ctx, arg, tf.dom, holes)
            tf = tf.cod
        return tf
    raise OrbiError("E-TYPE", "cannot infer the type of a bare lambda")


def _check(
    sig: Signature, ctx: list[Tp | None], t: Term, exp: Tp, holes: _Holes | None = None
) -> None:
    if type(t) is Lam:
        k = type(exp)
        if k is not Arrow and k is not Pi:
            if holes is not None:
                raise OrbiError("E-RECON", f"lambda used where {tp_str(exp, [])!r} is expected")
            raise OrbiError("E-TYPE", f"expected {tp_str(exp, [])}, got a lambda")
        _check(sig, ctx + [exp.dom], t.body, exp.cod, holes)
        return
    if holes is not None:
        head = t
        while type(head) is App:
            head = head.fn
        if type(head) is Lam:
            # _reconstruct checks each redex once more in the closed rule,
            # and stores the open normal form
            holes.beta = True
            if any(type(x) is str and x not in sig.entries for x in free(t)):
                # a schematic's type is read off its pattern occurrences,
                # so reconstruction sees the normal form
                _check(sig, ctx, normalize(t), exp, holes)
            else:
                _check(sig, ctx, t, exp)  # typed as written, so it normalises
            return
        if type(head) is Const and head.name not in sig.entries:
            if head is not t or holes.get(t.name) is not exp:
                _schematic(ctx, t, exp, holes)
            # else a bare occurrence already recorded at this very type
            return
    actual = _infer(sig, ctx, t, holes)
    if actual is not exp and actual != exp:
        raise OrbiError("E-TYPE", f"expected {tp_str(exp, [])}, got {tp_str(actual, [])}")


# ---------------------------------------------------------- reconstruction


def _schematic(ctx: list[Tp | None], t: Term, exp: Tp, holes: _Holes) -> None:
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
            seen |= 1 << i
            cand = Arrow(dom, cand)
    name = t.name
    if not fault:
        prev = holes.get(name)
        if prev is None:
            holes[name] = cand
            return
        if prev is cand or prev == cand:
            return
        fault = f"used at incompatible types {tp_str(prev, [])!r} and {tp_str(cand, [])!r}"
    raise OrbiError("E-RECON", f"schematic variable {name!r} {fault}")


def _reconstruct(sig: Signature, decl: ConstDecl) -> SigEntry:
    """Check a rule and infer its schematic prefix; the entry keeps the open
    body."""
    unknowns = _Holes()
    check_tp(sig, [], decl.tp, unknowns)
    entry = SigEntry(decl, 1, "Rules", tuple(unknowns), tuple(unknowns.values()))
    if unknowns.beta:
        # the schematics' types are known now: check each redex as written,
        # so that its discarded arguments are well typed too, then store the
        # open normal form (schematics are opaque constants, so normalising
        # commutes with closing)
        check_tp(sig, [], closed_decl(entry).tp)
        entry = entry._replace(decl=ConstDecl(decl.name, normalize(decl.tp), decl.loc))
    return entry


def _close(tp: Tp, names: tuple[str, ...], tps: tuple[Tp, ...]) -> Tp:
    """Bind the schematic variables ``names`` of ``tp`` by an outermost
    Pi-prefix with domains ``tps``."""
    # index of each name's binder, counted from inside the prefix
    outer = {n: len(names) - 1 - j for j, n in enumerate(names)}

    def bind(n, k):
        return Var(k + outer[n.name]) if type(n) is Const and n.name in outer else n

    body = rebuild(tp, bind)
    for name, dom in zip(reversed(names), reversed(tps)):
        body = Pi(name, dom, body)
    return body


def closed_decl(entry: SigEntry) -> ConstDecl:
    """The declaration of a checked constant with its schematic variables
    bound by an outermost Pi-prefix, in first-occurrence order."""
    decl = entry.decl
    if not entry.implicit:
        return decl
    return ConstDecl(decl.name, _close(decl.tp, entry.implicit, entry.implicit_tps), decl.loc)


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
                elif not check_tp(sig, [], decl.tp):
                    raise OrbiError(
                        "E-LEVEL",
                        f"syntax-level constant {decl.name!r} may only mention level-0 families",
                    )
                sig.add(SigEntry(decl, 0, section))
            elif section == "Judgments":
                if type(decl) is ConstDecl:
                    raise OrbiError(
                        "E-LEVEL",
                        "only judgment (type family) declarations may appear in the "
                        "Judgments section",
                    )
                if not check_tp(sig, [], decl.kind, kind=True):
                    raise OrbiError(
                        "E-LEVEL",
                        f"judgment {decl.name!r} must be indexed by level-0 terms "
                        "only (family indexed by a family)",
                    )
                sig.add(SigEntry(decl, 1, section))
            elif section == "Rules":
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
            else:
                raise OrbiError(
                    "E-LEVEL", f"constant or type declaration in unsupported section {section!r}"
                )
        except OrbiError as e:
            raise e.at(decl.loc)
    return sig
