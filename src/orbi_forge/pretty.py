"""Canonical concrete-syntax printer with minimal parenthesization.

Binder hints are kept verbatim unless doing so would capture a free name in
scope, in which case primes are appended (`y` becomes `y'`).  Re-parsing the
output therefore yields the input up to alpha-equivalence.
"""

from __future__ import annotations

from orbi_forge.syntax import (
    SECTIONS,
    AtomApp,
    And,
    Arrow,
    Block,
    Const,
    ConstDecl,
    CtxPattern,
    CtxVar,
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
    Kind,
    Lam,
    Or,
    OrbiSpec,
    Prp,
    RelApp,
    Schema,
    Snoc,
    Term,
    TermEq,
    Theorem,
    Tp,
    TrueP,
    Type,
    Var,
    free,
    spine,
)

_KEYWORDS = {"type", "schema", "block", "inductive", "prop", "theorem", "true", "false"}

# precedence levels
_T_LAM, _T_APP, _T_ATOM = 0, 1, 2
_TP_LOW, _TP_DOM = 0, 1
_P_QUANT, _P_IMP, _P_OR, _P_AND, _P_ATOM = 0, 1, 2, 3, 4


def _escaping(node, d: int, env: list) -> set:
    """Names free in ``node``: consts plus the enclosing binders it references."""
    n = len(env)
    return {x if type(x) is str else env[-1 - x] for x in free(node, d) if type(x) is str or x < n}


def _fresh(hint: str, avoid: set) -> str:
    h = hint or "x"
    while h in avoid or h in _KEYWORDS:
        h += "'"
    return h


def _binder_name(hint: str, body, env: list) -> str:
    return _fresh(hint, _escaping(body, 1, env))


def term_str(t: Term, env: list, prec: int = _T_LAM) -> str:
    if isinstance(t, Var):
        if t.index < len(env):
            return env[-1 - t.index]
        return f"_{t.index}"  # out-of-scope index; diagnostics only
    if isinstance(t, Const):
        return t.name
    if isinstance(t, Lam):
        h = _binder_name(t.hint, t.body, env)
        s = f"\\{h}. {term_str(t.body, env + [h], _T_LAM)}"
        return f"({s})" if prec > _T_LAM else s
    head, args = spine(t)
    parts = [term_str(head, env, _T_ATOM)]
    parts += [term_str(a, env, _T_ATOM) for a in args]
    s = " ".join(parts)
    return f"({s})" if prec > _T_APP else s


def tp_str(tp: Tp, env: list, prec: int = _TP_LOW) -> str:
    if isinstance(tp, AtomApp):
        if not tp.args:
            return tp.family
        return tp.family + " " + " ".join(term_str(a, env, _T_ATOM) for a in tp.args)
    if isinstance(tp, Arrow):
        s = f"{tp_str(tp.dom, env, _TP_DOM)} -> {tp_str(tp.cod, env, _TP_LOW)}"
        return f"({s})" if prec > _TP_LOW else s
    h = _binder_name(tp.hint, tp.cod, env)
    s = f"{{{h}:{tp_str(tp.dom, env, _TP_LOW)}}} {tp_str(tp.cod, env + [h], _TP_LOW)}"
    return f"({s})" if prec > _TP_LOW else s


def kind_str(k: Kind, env: list, prec: int = _TP_LOW) -> str:
    if isinstance(k, Type):
        return "type"
    if isinstance(k, KArrow):
        s = f"{tp_str(k.dom, env, _TP_DOM)} -> {kind_str(k.cod, env, _TP_LOW)}"
        return f"({s})" if prec > _TP_LOW else s
    h = _binder_name(k.hint, k.cod, env)
    s = f"{{{h}:{tp_str(k.dom, env, _TP_LOW)}}} {kind_str(k.cod, env + [h], _TP_LOW)}"
    return f"({s})" if prec > _TP_LOW else s


def decl_str(d) -> str:
    if isinstance(d, FamDecl):
        return f"{d.name}: {kind_str(d.kind, [])}."
    return f"{d.name}: {tp_str(d.tp, [])}."


def block_str(b: Block, env: list | None = None) -> str:
    env = list(env or [])
    labels: list[str] = []
    parts = []
    entries = list(b.entries)
    for i, (label, tp) in enumerate(entries):
        avoid: set = set()
        for j in range(i + 1, len(entries)):
            avoid |= _escaping(entries[j][1], j - i, env + labels[:i])
        name = _fresh(label, avoid)
        parts.append(f"{name}:{tp_str(tp, env + labels)}")
        labels.append(name)
    return "block (" + ", ".join(parts) + ")"


def schema_str(s: Schema) -> str:
    return f"schema {s.name} = " + " + ".join(block_str(b) for b in s.alternatives) + ";"


def _ctx_body(c: CtxPattern) -> str:
    parts: list[str] = []
    blocks = []
    node = c
    while isinstance(node, Snoc):
        blocks.append((node.label, node.block))
        node = node.prefix
    if isinstance(node, CtxVar):
        parts.append(node.name)
    for label, block in reversed(blocks):
        parts.append(f"{label}:{block_str(block)}")
    return ", ".join(parts)


def ctx_str(c: CtxPattern) -> str:
    return "[" + _ctx_body(c) + "]"


def prp_str(p: Prp, prec: int = _P_QUANT) -> str:
    if isinstance(p, (ForallCtx, ForallTm, ExistsTm)):
        groups = []
        body = p
        while isinstance(body, (ForallCtx, ForallTm, ExistsTm)):
            if isinstance(body, ForallCtx):
                groups.append(f"{{{body.var}:{body.schema}}}")
            elif isinstance(body, ForallTm):
                groups.append(f"{{{body.var}:{tp_str(body.tp, [])}}}")
            else:
                groups.append(f"<{body.var}:{tp_str(body.tp, [])}>")
            body = body.body
        s = "".join(groups) + " " + prp_str(body, _P_QUANT)
        return f"({s})" if prec > _P_QUANT else s
    if isinstance(p, Imp):
        s = f"{prp_str(p.lhs, _P_OR)} -> {prp_str(p.rhs, _P_IMP)}"
        return f"({s})" if prec > _P_IMP else s
    if isinstance(p, Or):
        s = f"{prp_str(p.lhs, _P_OR)} || {prp_str(p.rhs, _P_AND)}"
        return f"({s})" if prec > _P_OR else s
    if isinstance(p, And):
        s = f"{prp_str(p.lhs, _P_AND)} & {prp_str(p.rhs, _P_ATOM)}"
        return f"({s})" if prec > _P_AND else s
    if isinstance(p, TrueP):
        return "true"
    if isinstance(p, FalseP):
        return "false"
    if isinstance(p, RelApp):
        if not p.ctxs:
            return p.name
        return p.name + " " + " ".join(ctx_str(c) for c in p.ctxs)
    if isinstance(p, Judgment):
        ctx = _ctx_body(p.ctx)
        head = p.family
        if p.args:
            head += " " + " ".join(term_str(a, [], _T_ATOM) for a in p.args)
        return "[" + (ctx + " " if ctx else "") + "|- " + head + "]"
    if isinstance(p, TermEq):
        return f"{term_str(p.lhs, [])} = {term_str(p.rhs, [])}"
    raise TypeError(f"cannot print {p!r}")


def inductive_str(d: InductiveDef) -> str:
    params = "".join(f"{{{v}:{s}}} " for v, s in d.params)
    lines = [f"inductive {d.name} : {params}prop ="]
    for i, (cname, prp) in enumerate(d.clauses):
        end = ";" if i == len(d.clauses) - 1 else ""
        lines.append(f"| {cname}: {prp_str(prp)}{end}")
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
    if isinstance(node, Kind):
        return kind_str(node, env)
    if isinstance(node, (ConstDecl, FamDecl)):
        return decl_str(node)
    if isinstance(node, Schema):
        return schema_str(node)
    if isinstance(node, Block):
        return block_str(node, env)
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
