"""The one printer: ORBI's canonical syntax with minimal parenthesization,
and through a ``Dialect`` the terms and formulas of ab/hy and bel.

``term_str``, ``tp_str`` (types and kinds) and ``prp_str`` are the only walks
that print these trees.  Every dialect names a binder, a lambda's, a
product's or a block entry's, by one rule: its hint is kept verbatim unless
that would capture a name in scope, in which case primes are appended (`y`
becomes `y'`), so re-parsing the output gives the input up to alpha.  A
print names each binder from its hint, primed only away from a keyword,
with no pass over its scope, and tests each leaf against the names it gave
by lookup.  Only on a capture does the outermost chain of lambdas or of
products, or block, around the leaf print again by the exact rule:
``telescope_names`` over one ``last_uses`` pass per chain.  So printing is
linear in the size of a tree with no capture.  A type prints in one loop
along its chain, each atom in place.
"""

from __future__ import annotations

from orbi_forge.lexer import KEYWORDS
from orbi_forge.syntax import (
    SECTIONS,
    And,
    App,
    AtomApp,
    Arrow,
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
    Or,
    OrbiSpec,
    Pi,
    Prp,
    Record,
    RelApp,
    Schema,
    Term,
    Theorem,
    Tp,
    TrueP,
    Var,
    chain,
    last_uses,
)

# precedence levels of formulas
_P_QUANT, _P_IMP, _P_OR, _P_AND, _P_ATOM = 0, 1, 2, 3, 4


class Dialect(Record):
    """How one target writes terms and formulas.  A lambda is
    ``{lam}x{dot}body``, its binder named by ``term_str``'s one rule in every
    dialect; ``or_``/``and_`` are the connectives.  A quantifier chain ``p``
    prints as ``quant(p, d, cx)``, an atomic formula as ``atom(p, d, cx)``,
    where ``cx`` is the theorem's printing state, ``translate._Scope``, into
    whose context and term tables both formula layouts bind as the walk
    goes (None for ORBI); ``sep`` goes between ORBI's groups."""

    __slots__ = ("lam", "dot", "or_", "and_", "sep", "quant", "atom")


def _groups(p: Prp, d: Dialect, cx) -> str:
    """``{g:S}{M:tm}<N:tm> body``: the quantifier layout of ORBI and bel.  A
    theorem's scope ``cx`` (bel) binds each variable of the chain and, once
    the body is printed, names the context of each explicit variable from
    the entry that binding it returned, written ``{M:[g |- tm]}``."""
    groups = []
    if cx is not None:
        # (entry, slot) of each explicit variable, the slot (index in groups, name, type)
        saved, pending = cx.open(), []
    while True:
        t = type(p)
        if t is ForallCtx:
            groups.append(f"{{{p.var}:{p.schema}}}")
            if cx is not None:
                cx.bind(p, p.var)
        elif t is ForallTm:
            tp = tp_str(p.tp, [])
            if cx is not None and (entry := cx.bind(p, p.var)) is not None:
                pending.append((entry, (len(groups), p.var, tp)))
            groups.append(f"{{{p.var}:{tp}}}")
        elif t is ExistsTm:
            groups.append(f"<{p.var}:{tp_str(p.tp, [])}>")
            if cx is not None:
                cx.bind(p, p.var)
        else:
            body = prp_str(p, _P_QUANT, d, cx)
            if cx is not None:
                for (i, var, tp), ctx in cx.close(saved, pending):
                    groups[i] = f"{{{var}:[{ctx[0]} |- {tp}]}}"
            return d.sep.join(groups) + " " + body
        p = p.body


def _atom(p: Prp, d: Dialect, cx) -> str:
    t = type(p)
    if t is Judgment:
        if cx is not None and p.args:
            cx.use(p.ctx, p.args)
        ctx = _ctx_body(p.ctx)
        head = p.family
        if p.args:
            head += " " + " ".join([term_str(a, [], True, d) for a in p.args])
        return "[" + (ctx + " " if ctx else "") + "|- " + head + "]"
    if t is RelApp:
        if not p.ctxs:
            return p.name
        return p.name + " " + " ".join([ctx_str(c) for c in p.ctxs])
    # prp_str hands this only atoms, so ``p`` is a TermEq
    return f"{term_str(p.lhs, [], False, d)} = {term_str(p.rhs, [], False, d)}"


ORBI = Dialect("\\", ". ", "||", "&", "", _groups, _atom)


class _Capture(Exception):
    """A leaf named like a binder that this print named from its hint, and
    lying under it."""


def term_str(
    t: Term, env: list, atom: bool = False, d: Dialect = ORBI, own: dict | bool | None = None
) -> str:
    """``t`` under the binder names ``env`` (innermost last), in parentheses
    if ``atom`` and it is a lambda or an application.

    A lambda's binder is named from its hint, and ``own`` holds the names
    this print gave so far (None before the first).  A leaf that a binder so
    named may capture raises ``_Capture``.  The lambda, chain or block
    entered with no such binder around it catches it and prints again with
    ``own`` False: each chain of lambdas under it is named as a telescope
    by ``telescope_names``, with its body under it."""
    k = type(t)
    if k is Var:
        i = t.index
        if i < len(env):
            s = env[-1 - i]
            if own and i and s in own and s in env[-i:]:
                raise _Capture
            return s
        return f"_{i}"  # out of scope: an open term printed by ``pretty``
    if k is Const:
        if own and t.name in own:
            raise _Capture
        return t.name
    if k is Lam:  # a chain of lambdas is one telescope, as a chain of products is
        root, names, body = not own, [], t
        while type(body) is Lam:
            h = body.hint
            names += (h + "'" if h in KEYWORDS else h or "x",)
            body = body.body
        if own is False:  # telescope_names primes a name as the loop above does first
            names = telescope_names(names, ((body, len(names)),), env)
        else:
            own = own or {}
            for h in names:
                own[h] = None
        try:
            s = term_str(body, env + names, False, d, own)
        except _Capture:
            if not root:
                raise
            return term_str(t, env, atom, d, False)
        for h in names[::-1]:
            s = f"{d.lam}{h}{d.dot}{s}"
        return f"({s})" if atom else s
    args = []  # the spine, innermost argument first
    while k is App:
        args += (t.arg,)
        t = t.fn
        k = type(t)
    args += (t,)
    s = " ".join(arg_strs(args[::-1], env, d, own))
    return f"({s})" if atom else s


def arg_strs(ts, env: list, d: Dialect = ORBI, own: dict | bool | None = None) -> list[str]:
    """Each term of ``ts`` in argument position, under ``own`` as
    ``term_str`` takes it; a constant or an in-scope variable is read in
    place."""
    out: list[str] = []
    for a in ts:
        k = type(a)
        if k is Const:
            if own and a.name in own:
                raise _Capture
            out += (a.name,)
        elif k is Var and a.index < len(env):
            i = a.index
            s = env[-1 - i]
            if own and i and s in own and s in env[-i:]:
                raise _Capture
            out += (s,)
        else:
            out += (term_str(a, env, True, d, own),)
    return out


def telescope_names(hints, parts, env: list) -> list[str]:
    """Names of a telescope's binders, given their ``hints`` and the
    telescope's ``parts`` as ``last_uses`` takes them: binder i keeps its
    hint, primed away from the keywords and from every name that a part
    under it (k > i) mentions, a constant or a binder in scope."""
    last = last_uses(parts)  # its str keys are the constants
    n = len(env)
    reach: dict[str, int] = {}  # binder name -> the largest k of a part mentioning it
    for x, k in last.items():
        if type(x) is int and -n <= x < 0 and (env[x] not in reach or reach[env[x]] < k):
            reach[env[x]] = k
    names: list[str] = []
    for i, h in enumerate(hints):
        h = h or "x"
        while h in KEYWORDS or h in last and last[h] > i or h in reach and reach[h] > i:
            h += "'"
        names += (h,)
        if i in last and (h not in reach or reach[h] < last[i]):
            reach[h] = last[i]
    return names


def tp_str(tp, env: list, dom: bool = False, own: dict | bool | None = None) -> str:
    """A type or a kind, in parentheses if ``dom`` and it is an arrow or a
    product.  A chain of arrows and products prints in a loop along its
    codomains that prints an atom, a domain or the end, in place, each
    product's binder named from its hint and added to ``own`` as
    ``term_str`` adds a lambda's; printed again, with ``own`` False, its
    binders are named by one ``telescope_names`` pass."""
    s, link, scope, root = "", tp, env, not own
    names = None  # with ``own`` False, the chain's binder names from its first product on
    try:
        while True:
            t = type(link)
            part = link if t is AtomApp else link.dom
            if t is Pi:
                if scope is env:  # the chain's first product
                    scope = list(env)
                    if own is False:
                        names = iter(telescope_names(*chain(link), env))
                    elif root:
                        own = {}
                if names is None:
                    h = link.hint + "'" if link.hint in KEYWORDS else link.hint or "x"
                else:
                    h = next(names)
                s += f"{{{h}:"
            if type(part) is not AtomApp:
                s += tp_str(part, scope, t is Arrow, own)
            elif own and part.family in own:
                raise _Capture
            elif part.args:
                s += part.family + " " + " ".join(arg_strs(part.args, scope, ORBI, own))
            else:
                s += part.family
            if t is AtomApp:
                break
            s += " -> " if t is Arrow else "} "
            if t is Pi:
                scope += (h,)
                if names is None:
                    own[h] = None
            link = link.cod
    except _Capture:
        if not root:
            raise
        return tp_str(tp, env, dom, False)
    return f"({s})" if dom and type(tp) is not AtomApp else s


def decl_str(d) -> str:
    return f"{d.name}: {tp_str(d.kind if type(d) is FamDecl else d.tp, [])}."


def block_str(b: Block, exact: bool = False) -> str:
    """A block: a telescope whose entry i lies under entries 0..i-1, its
    entries named as ``tp_str`` names a chain's products."""
    entries = b.entries
    env: list[str] = []
    own: dict | bool = {}
    names = None
    if exact:
        own = False
        names = iter(
            telescope_names(
                [label for label, _ in entries], [(tp, i) for i, (_, tp) in enumerate(entries)], env
            )
        )
    parts = []
    try:
        for label, tp in entries:
            if names is None:
                h = label + "'" if label in KEYWORDS else label or "x"
            else:
                h = next(names)
            parts += (f"{h}:{tp_str(tp, env, False, own)}",)
            env += (h,)
            if names is None:
                own[h] = None
    except _Capture:
        return block_str(b, True)
    return "block (" + ", ".join(parts) + ")"


def schema_str(s: Schema) -> str:
    return f"schema {s.name} = " + " + ".join(block_str(b) for b in s.alternatives) + ";"


def _ctx_body(c: CtxPattern) -> str:
    blocks = [f"{label}:{block_str(block)}" for label, block in c.blocks]
    return ", ".join(blocks if c.var is None else [c.var, *blocks])


def ctx_str(c: CtxPattern) -> str:
    return "[" + _ctx_body(c) + "]"


def prp_str(p: Prp, prec: int = _P_QUANT, d: Dialect = ORBI, cx=None) -> str:
    """``p`` in dialect ``d``, in parentheses if it binds less tightly than
    ``prec``: ``->`` takes an or-level lhs and an imp-level rhs, ``or`` takes
    or/and, ``and`` takes and/atom, and a quantifier is parenthesised when
    nested.  A chain of one connective, along the right spine of ``->`` and
    the left spine of ``or``/``and``, prints in a loop, its operands left to
    right."""
    t = type(p)
    if t is Imp:
        s = prp_str(p.lhs, _P_OR, d, cx)
        p = p.rhs
        while type(p) is Imp:
            s += " -> " + prp_str(p.lhs, _P_OR, d, cx)
            p = p.rhs
        s += " -> " + prp_str(p, _P_IMP, d, cx)
        return f"({s})" if prec > _P_IMP else s
    if t is Or or t is And:
        level, op = (_P_OR, f" {d.or_} ") if t is Or else (_P_AND, f" {d.and_} ")
        rhs = []  # the right operands, outermost first
        while type(p) is t:
            rhs += (p.rhs,)
            p = p.lhs
        s = prp_str(p, level, d, cx)
        for r in rhs[::-1]:
            s += op + prp_str(r, level + 1, d, cx)
        return f"({s})" if prec > level else s
    if t is TrueP:
        return "true"
    if t is FalseP:
        return "false"
    if t is ForallCtx or t is ForallTm or t is ExistsTm:
        s = d.quant(p, d, cx)
        return f"({s})" if prec > _P_QUANT else s
    return d.atom(p, d, cx)


def inductive_str(d: InductiveDef) -> str:
    params = "".join(f"{{{v}:{s}}} " for v, s in d.params)
    lines = [f"inductive {d.name} : {params}prop ="]
    for i, (cname, premises, head) in enumerate(d.clauses):
        end = ";" if i == len(d.clauses) - 1 else ""
        lines.append(f"| {cname}: {' -> '.join(map(prp_str, (*premises, head)))}{end}")
    return "\n".join(lines)


def theorem_str(t: Theorem) -> str:
    return f"theorem {t.name}: {prp_str(t.statement)};"


def directive_str(d: Directive) -> str:
    dest = f"[{d.dest}]" if d.dest_is_ctx else d.dest
    return f"%% {d.what} [{','.join(d.systems)}] in {dest}"


def spec_str(spec: OrbiSpec) -> str:
    groups = {
        "Syntax": [decl_str(d) for d in spec.syntax_decls],
        "Judgments": [decl_str(d) for d in spec.judgment_decls],
        "Rules": [decl_str(d) for d in spec.rules],
        "Schemas": [schema_str(s) for s in spec.schemas],
        "Definitions": [inductive_str(d) for d in spec.definitions],
        "Directives": [directive_str(d) for d in spec.directives],
        "Theorems": [theorem_str(t) for t in spec.theorems],
    }
    parts = []
    for section in SECTIONS:
        lines = groups[section]
        if lines:
            parts.append("\n".join([f"%% {section}"] + lines))
    return "\n\n".join(parts) + "\n" if parts else ""


def pretty(node, binders=()) -> str:
    """Concrete ORBI syntax for any AST node."""
    env = list(binders)
    if isinstance(node, OrbiSpec):
        return spec_str(node)
    if isinstance(node, Term):
        return term_str(node, env)
    if isinstance(node, Tp):
        return tp_str(node, env)
    if isinstance(node, (ConstDecl, FamDecl)):
        return decl_str(node)
    if isinstance(node, Schema):
        return schema_str(node)
    if isinstance(node, Block):
        return block_str(node)
    if isinstance(node, CtxPattern):
        return ctx_str(node)
    if isinstance(node, Prp):
        return prp_str(node)
    if isinstance(node, InductiveDef):
        return inductive_str(node)
    if isinstance(node, Theorem):
        return theorem_str(node)
    if isinstance(node, Directive):
        return directive_str(node)
    raise TypeError(f"cannot print {node!r}")
