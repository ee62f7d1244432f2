"""Target-dialect emission for the four supported systems.

Proof-theoretic targets (ab, hy) get full pipelines: generated
well-formedness predicates, rules as hereditary-Harrop clauses, schemas and
context relations as inductive list predicates, theorem statements as
formulas.  bel passes the signature through unchanged and lifts theorems;
tw passes the signature through and comments out everything it cannot say.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from orbi_forge.contexts import _clause_parts
from orbi_forge.directives import AnnotationTable, resolve
from orbi_forge.errors import (
    Diagnostic,
    EmptyRenderingError,
    LevelError,
    NoCtxInScopeError,
    UnsupportedShapeError,
)
from orbi_forge.lf import Signature, families_in_tp, is_level0, normalize
from orbi_forge.pretty import inductive_str, prp_str, theorem_str, tp_str
from orbi_forge.syntax import (
    And,
    App,
    Arrow,
    AtomApp,
    Const,
    ConstDecl,
    CtxVar,
    EmptyCtx,
    ExistsTm,
    FalseP,
    ForallCtx,
    ForallTm,
    Imp,
    InductiveDef,
    Judgment,
    Lam,
    Or,
    Pi,
    Prp,
    RelApp,
    Schema,
    Term,
    TermEq,
    Theorem,
    TrueP,
    Var,
    ctx_blocks,
    ctx_head_var,
    free,
    rebuild,
    shift,
    spine,
)

_ID_RE = re.compile(r"[A-Za-z][A-Za-z0-9_']*")


# -------------------------------------------------------------- clause IR


@dataclass(frozen=True)
class AtomG:
    pred: str
    args: tuple[str, ...] = ()

    def render(self) -> str:
        return self.pred + ("" if not self.args else " " + " ".join(self.args))


@dataclass(frozen=True)
class PiG:
    var: str
    body: object

    def render(self) -> str:
        return f"pi {self.var}\\ {self.body.render()}"


@dataclass(frozen=True)
class ImpG:
    hyp: object
    body: object

    def render(self) -> str:
        h = self.hyp.render()
        if not isinstance(self.hyp, AtomG):
            h = f"({h})"
        return f"{h} => {self.body.render()}"


@dataclass(frozen=True)
class Clause:
    head: AtomG
    body: tuple = ()

    def render(self) -> str:
        if not self.body:
            return f"{self.head.render()}."
        parts = []
        for g in self.body:
            s = g.render()
            if not isinstance(g, AtomG) and len(self.body) > 1:
                s = f"({s})"
            parts.append(s)
        return f"{self.head.render()} :- {', '.join(parts)}."


def _goal_ok(g) -> bool:
    if isinstance(g, AtomG):
        return True
    if isinstance(g, PiG):
        return _goal_ok(g.body)
    return _clause_ok(g.hyp) and _goal_ok(g.body)


def _clause_ok(d) -> bool:
    if isinstance(d, AtomG):
        return True
    if isinstance(d, PiG):
        return _clause_ok(d.body)
    return _goal_ok(d.hyp) and _clause_ok(d.body)


def clause_is_hereditary_harrop(cl: Clause) -> bool:
    return all(_goal_ok(g) for g in cl.body)


def _mentions(g, var: str) -> bool:
    if isinstance(g, AtomG):
        return any(var in _ID_RE.findall(a) for a in g.args) or g.pred == var
    if isinstance(g, PiG):
        return _mentions(g.body, var)
    return _mentions(g.hyp, var) or _mentions(g.body, var)


def _erase_goal(g):
    if isinstance(g, AtomG):
        return None if g.pred.startswith("is_") else g
    if isinstance(g, PiG):
        body = _erase_goal(g.body)
        if body is None:
            return None
        if not _mentions(body, g.var):
            return body
        return PiG(g.var, body)
    hyp = _erase_goal(g.hyp)
    body = _erase_goal(g.body)
    if body is None:
        return None
    if hyp is None:
        return body
    return ImpG(hyp, body)


def erase_clause(cl: Clause) -> Clause:
    """Delete is_* atoms and the pi binders left vacuous by the deletion."""
    body = tuple(g2 for g2 in (_erase_goal(g) for g in cl.body) if g2 is not None)
    return Clause(cl.head, body)


# -------------------------------------------------------------- eta + names


def _eta(n, k):
    if type(n) is Lam:
        body = n.body
        if type(body) is App and body.arg == Var(0) and 0 not in free(body.fn):
            return shift(body.fn, -1)
    return n


def eta_contract(t: Term) -> Term:
    """Syntactic eta: \\x. (f x) becomes f when x is not free in f."""
    return rebuild(t, _eta)


class _Names:
    """Fresh-name supply that never collides with user identifiers.

    ``reserved`` (typically ``sig.entries``) is consulted, never copied;
    names handed out or added go into the supply's own ``taken`` set.
    """

    _UPPER = "MNOPQRSTUVWXYZABCDEFGHIJKL"
    _LOWER = "xyzuvw"

    def __init__(self, reserved, taken=()):
        self.reserved = reserved
        self.taken = set(taken)

    def __contains__(self, name: str) -> bool:
        return name in self.taken or name in self.reserved

    def add(self, name: str) -> None:
        self.taken.add(name)

    def grab(self, name: str) -> str:
        while name in self:
            name += "'"
        self.taken.add(name)
        return name

    def _pick(self, pool):
        for ch in pool:
            if ch not in self:
                self.taken.add(ch)
                return ch
        i = 1
        while f"{pool[0]}{i}" in self:
            i += 1
        name = f"{pool[0]}{i}"
        self.taken.add(name)
        return name

    def fresh_upper(self) -> str:
        return self._pick(self._UPPER)

    def fresh_lower(self) -> str:
        return self._pick(self._LOWER)


def _alpha_list_var(taken) -> str:
    for ch in "ABCDEFGHIJKLMNOPQRSTUVWXYZ":
        if f"{ch}s" not in taken:
            return f"{ch}s"
    i = 1
    while f"As{i}" in taken:
        i += 1
    return f"As{i}"


def _numbered(base: str, taken) -> str:
    name = base
    i = 0
    while name in taken:
        i += 1
        name = f"{base}{i}"
    return name


def render_term(t: Term, env: list[str], atom: bool = False, rename=None) -> str:
    """``t`` in the ab/hy term syntax, where a lambda is written ``x\\ body``."""
    rename = rename or {}
    if isinstance(t, Var):
        return env[-1 - t.index] if t.index < len(env) else f"_{t.index}"
    if isinstance(t, Const):
        return rename.get(t.name, t.name)
    if isinstance(t, Lam):
        h = t.hint or "x"
        while h in env:
            h += "'"
        s = f"{h}\\ {render_term(t.body, env + [h], False, rename)}"
        return f"({s})" if atom else s
    head, args = spine(t)
    parts = [render_term(head, env, True, rename)]
    parts += [render_term(a, env, True, rename) for a in args]
    s = " ".join(parts)
    return f"({s})" if atom and len(parts) > 1 else s


# ------------------------------------------------- well-formedness clauses


def _atomize(s: str) -> str:
    return f"({s})" if " " in s else s


def _strip_fn(tp):
    """(domain, codomain) of an arrow-like type, treating a vacuous Pi as an
    arrow (level-0 types cannot be dependent)."""
    if isinstance(tp, Arrow):
        return tp.dom, tp.cod
    if isinstance(tp, Pi):
        if 0 in free(tp.cod):
            raise UnsupportedShapeError(
                "dependent products cannot appear in level-0 constructor types"
            )
        return tp.dom, shift(tp.cod, -1)
    return None


def _wf_goal(expr: str, tp, names: _Names):
    """Goal asserting that ``expr`` is a well-formed inhabitant of ``tp``.

    Function types recurse into an embedded implication under a fresh pi,
    so higher-order constructor arguments nest one pi/=> per order.
    """
    if isinstance(tp, AtomApp):
        return AtomG(f"is_{tp.family}", (_atomize(expr),))
    dom, cod = _strip_fn(tp)
    x = names.fresh_lower()
    hyp = _wf_goal(x, dom, names)
    return PiG(x, ImpG(hyp, _wf_goal(f"{expr} {x}", cod, names)))


def gen_wf_predicates(sig: Signature, wf_families) -> list[Clause]:
    """Wf clauses of the given families, in the order given; names that are
    not declared families are skipped."""
    out: list[Clause] = []
    for fam in dict.fromkeys(wf_families):
        if not sig.is_family(fam):
            continue
        if sig.level(fam) != 0:
            raise LevelError(f"wf predicate requested for non-level-0 family {fam!r}")
        for c in sig.constructors_of(fam):
            doms = []
            tp = c.tp
            while (parts := _strip_fn(tp)) is not None:
                doms.append(parts[0])
                tp = parts[1]
            names = _Names(sig.entries)
            arg_names = [names.fresh_upper() for _ in doms]
            head_term = c.name if not arg_names else f"{c.name} {' '.join(arg_names)}"
            head = AtomG(f"is_{fam}", (_atomize(head_term),))
            body = tuple(_wf_goal(n, d, names) for n, d in zip(arg_names, doms))
            out.append(Clause(head, body))
    return out


# ------------------------------------------------------------------- rules


def translate_rule(sig: Signature, rule: ConstDecl, ann: AnnotationTable) -> Clause:
    """Render one reconstructed rule, whose type is beta-normal, as a
    hereditary-Harrop clause."""
    explicit = rule.name in ann.explicit_rules
    tp = rule.tp
    clause_vars: list[tuple[str, object]] = []
    env: list[str] = []
    while isinstance(tp, Pi):
        name = tp.hint
        while name in env:
            name += "'"
        clause_vars.append((name, tp.dom))
        env.append(name)
        tp = tp.cod
    premises = []
    while isinstance(tp, Arrow):
        premises.append(tp.dom)
        tp = tp.cod
    if not isinstance(tp, AtomApp):
        raise UnsupportedShapeError(
            f"rule {rule.name!r}: conclusion must be an atomic judgment"
        )
    names = _Names(sig.entries, env)

    def atom_goal(a: AtomApp, env_names) -> AtomG:
        args = tuple(render_term(eta_contract(x), env_names, True) for x in a.args)
        return AtomG(a.family, args)

    def goal_of(p, env_names):
        if isinstance(p, Pi):
            if not is_level0(sig, p.dom):
                raise UnsupportedShapeError(
                    f"rule {rule.name!r}: premise quantifies over a non-level-0 type"
                )
            var = names.grab(p.hint or "x")
            body = goal_of(p.cod, env_names + [var])
            if explicit:
                if isinstance(p.dom, AtomApp):
                    if p.dom.family in ann.wf_families:
                        body = ImpG(AtomG(f"is_{p.dom.family}", (var,)), body)
                elif families_in_tp(p.dom) <= ann.wf_families:
                    body = ImpG(_wf_goal(var, p.dom, names), body)
            return PiG(var, body)
        if isinstance(p, Arrow):
            return ImpG(goal_of(p.dom, env_names), goal_of(p.cod, env_names))
        if isinstance(p, AtomApp):
            if sig.level(p.family) != 1:
                raise UnsupportedShapeError(
                    f"rule {rule.name!r}: premise atom {p.family!r} is not a judgment"
                )
            return atom_goal(p, env_names)
        raise UnsupportedShapeError(f"rule {rule.name!r}: unsupported premise shape")

    body_goals: list = []
    if explicit:
        for name, dom in clause_vars:
            if isinstance(dom, AtomApp) and dom.family in ann.wf_families:
                body_goals.append(AtomG(f"is_{dom.family}", (name,)))
    body_goals += [goal_of(p, env) for p in premises]
    return Clause(atom_goal(tp, env), tuple(body_goals))


# ----------------------------------------------------------------- schemas


def _block_parts(sig: Signature, owner: str, block, explicit_pos: bool, ann):
    """(fresh-variable labels, rendered atom strings) of one block."""
    variables: list[str] = []
    atoms: list[str] = []
    labels: list[str] = []
    for label, tp in block.entries:
        if is_level0(sig, tp):
            variables.append(label)
            if explicit_pos:
                if not isinstance(tp, AtomApp):
                    raise UnsupportedShapeError(
                        f"{owner}: cannot reify well-formedness of the higher-order "
                        f"block entry {label!r}"
                    )
                if tp.family in ann.wf_families:
                    atoms.append(f"is_{tp.family} {label}")
        else:
            if not isinstance(tp, AtomApp):
                raise UnsupportedShapeError(
                    f"{owner}: block entry {label!r} must be an atomic judgment"
                )
            args = " ".join(render_term(a, labels, True) for a in tp.args)
            atoms.append(f"{tp.family} {args}" if args else tp.family)
        labels.append(label)
    return variables, atoms


def _schema_suffix(name: str) -> str:
    return name[:-1] if name.endswith("G") and len(name) > 1 else name


def translate_schema(sig: Signature, s: Schema, target: str, ann: AnnotationTable) -> str:
    explicit = s.name in ann.explicit_schemas
    rendered = []
    for block in s.alternatives:
        variables, atoms = _block_parts(sig, f"schema {s.name!r}", block, explicit, ann)
        if not atoms:
            raise EmptyRenderingError(
                f"schema {s.name!r}: implicit translation erases the whole block; "
                f"mark the schema explicit (%% explicit [{target}] in {s.name})"
            )
        rendered.append((variables, atoms))
    taken = _Names(sig.entries, [s.name, *(v for variables, _ in rendered for v in variables)])
    if target == "ab":
        list_var = _alpha_list_var(taken)
        clauses = [f"{s.name} nil"]
        for variables, atoms in rendered:
            prefix = f"nabla {' '.join(variables)}, " if variables else ""
            cons = " :: ".join(atoms)
            clauses.append(f"{prefix}{s.name} ({cons} :: {list_var}) := {s.name} {list_var}")
        return f"Define {s.name} : olist -> prop by\n  " + ";\n  ".join(clauses) + "."
    ctx_var = _numbered("Gamma", taken)
    sfx = _schema_suffix(s.name)
    lines = [f"Inductive {s.name} : list atm -> Prop :=", f"| nil_{sfx} : {s.name} nil"]
    for i, (variables, atoms) in enumerate(rendered):
        cname = f"cns_{sfx}" if len(rendered) == 1 else f"cns_{sfx}{i + 1}"
        binders = f"({ctx_var}:list atm)" + "".join(f" ({v}:uexp)" for v in variables)
        chain = [f"proper {v}" for v in variables]
        chain.append(f"{s.name} {ctx_var}")
        chain.append(f"{s.name} ({' :: '.join(atoms)} :: {ctx_var})")
        lines.append(f"| {cname} : forall {binders},")
        end = "." if i == len(rendered) - 1 else ""
        lines.append(f"    {' -> '.join(chain)}{end}")
    return "\n".join(lines)


# --------------------------------------------------------------- relations


def translate_relation(
    sig: Signature,
    d: InductiveDef,
    target: str,
    ann: AnnotationTable,
) -> str:
    if target == "bel":
        return inductive_str(d)
    explicit_vars = ann.explicit_relation_params.get(d.name, frozenset())
    explicit_pos = {i for i, (v, _) in enumerate(d.params) if v in explicit_vars}
    taken = _Names(sig.entries, [d.name])
    list_names = {}
    for v, _ in d.params:
        list_names[v] = _numbered(v[0].upper() + v[1:], taken)
        taken.add(list_names[v])

    def clause_render(cname: str, prp: Prp):
        premises, head = _clause_parts(prp)
        var_name = dict(list_names)
        for prem in premises:
            for arg in prem.ctxs:
                if isinstance(arg, CtxVar) and arg.name not in var_name:
                    var_name[arg.name] = _numbered(arg.name[0].upper() + arg.name[1:], taken)
        nabla: list[str] = []
        head_args = []
        used_lists: list[str] = []
        for i, arg in enumerate(head.ctxs):
            base = ctx_head_var(arg)
            atoms: list[str] = []
            has_blocks = False
            for _, block in ctx_blocks(arg):
                has_blocks = True
                variables, batoms = _block_parts(
                    sig, f"relation {d.name!r}", block, i in explicit_pos, ann
                )
                for v in variables:
                    if v not in nabla:
                        nabla.append(v)
                atoms += batoms
            if has_blocks and not atoms:
                var = d.params[i][0]
                raise EmptyRenderingError(
                    f"relation {d.name!r}: context parameter {var!r} erases to "
                    f"nothing; mark it explicit (%% explicit [{target}] in [{var}])"
                )
            tail = var_name[base] if base is not None else "nil"
            if base is not None:
                used_lists.append(var_name[base])
            if atoms:
                head_args.append(f"({' :: '.join(atoms)} :: {tail})")
            else:
                head_args.append(tail)
        head_str = f"{d.name} {' '.join(head_args)}"
        body = [
            f"{p.name} {' '.join(var_name[a.name] for a in p.ctxs)}" for p in premises
        ]
        return cname, nabla, used_lists, head_str, body

    clauses = [clause_render(cname, prp) for cname, prp in d.clauses]
    arity = len(d.params)
    if target == "ab":
        parts = []
        for _, nabla, _, head_str, body in clauses:
            prefix = f"nabla {' '.join(nabla)}, " if nabla else ""
            s = f"{prefix}{head_str}"
            if body:
                s += " := " + " /\\ ".join(body)
            parts.append(s)
        sig_tp = " -> ".join(["olist"] * arity) + " -> prop"
        return f"Define {d.name} : {sig_tp} by\n  " + ";\n  ".join(parts) + "."
    lines = [f"Inductive {d.name} : {' -> '.join(['list atm'] * arity)} -> Prop :="]
    for k, (cname, nabla, used_lists, head_str, body) in enumerate(clauses):
        end = "." if k == len(clauses) - 1 else ""
        binder_lists = list(dict.fromkeys(used_lists))
        if not binder_lists and not nabla:
            lines.append(f"| {cname} : {head_str}{end}")
            continue
        binders = "".join(f"({v}:list atm) " for v in binder_lists)
        binders += " ".join(f"({v}:uexp)" for v in nabla)
        chain = [f"proper {v}" for v in nabla] + body + [head_str]
        lines.append(f"| {cname} : forall {binders.strip()},")
        lines.append(f"    {' -> '.join(chain)}{end}")
    return "\n".join(lines)


# ---------------------------------------------------------------- theorems


def _usage_ctxs(statement: Prp, var: str) -> list[str]:
    """Context variables of the judgments that mention ``var``, in order."""
    out: list[str] = []

    def walk(p: Prp) -> None:
        if isinstance(p, Judgment):
            head = ctx_head_var(p.ctx)
            if head is not None and any(var in free(a) for a in p.args):
                if head not in out:
                    out.append(head)
        elif isinstance(p, (And, Or, Imp)):
            walk(p.lhs)
            walk(p.rhs)
        elif isinstance(p, (ForallCtx, ForallTm, ExistsTm)):
            walk(p.body)

    walk(statement)
    return out


def _pick_ctx(t: Theorem, var: str, scope: list[str], warnings: list) -> str:
    usage = [c for c in _usage_ctxs(t.statement, var) if c in scope]
    if len(usage) == 1:
        return usage[0]
    if not scope:
        raise NoCtxInScopeError(
            f"theorem {t.name!r}: variable {var!r} is explicit but no context "
            "quantifier is in scope",
            t.loc,
        )
    if len(usage) > 1:
        warnings.append(
            Diagnostic(
                "W-CTX",
                f"theorem {t.name!r}: variable {var!r} is used under several "
                f"contexts; its wf antecedent uses {scope[0]!r}",
                t.loc,
                "warning",
            )
        )
    return scope[0]


def _atomic_family(t: Theorem, var: str, tp) -> str:
    if not isinstance(tp, AtomApp) or tp.args:
        raise UnsupportedShapeError(
            f"theorem {t.name!r}: explicit variable {var!r} must have an atomic "
            "level-0 type",
            t.loc,
        )
    return tp.family


_F_IMP, _F_OR, _F_AND, _F_ATOM = 1, 2, 3, 4


def _formula(t: Theorem, p: Prp, scope, rename, warnings, expl, prec=_F_IMP, avoid=frozenset()) -> str:
    if isinstance(p, (ForallCtx, ForallTm, ExistsTm)):
        s = _forall_block(t, p, scope, rename, warnings, expl, avoid)
        return f"({s})"
    if isinstance(p, Imp):
        s = (
            f"{_formula(t, p.lhs, scope, rename, warnings, expl, _F_OR, avoid)} -> "
            f"{_formula(t, p.rhs, scope, rename, warnings, expl, _F_IMP, avoid)}"
        )
        return f"({s})" if prec > _F_IMP else s
    if isinstance(p, Or):
        s = (
            f"{_formula(t, p.lhs, scope, rename, warnings, expl, _F_OR, avoid)} \\/ "
            f"{_formula(t, p.rhs, scope, rename, warnings, expl, _F_AND, avoid)}"
        )
        return f"({s})" if prec > _F_OR else s
    if isinstance(p, And):
        s = (
            f"{_formula(t, p.lhs, scope, rename, warnings, expl, _F_AND, avoid)} /\\ "
            f"{_formula(t, p.rhs, scope, rename, warnings, expl, _F_ATOM, avoid)}"
        )
        return f"({s})" if prec > _F_AND else s
    if isinstance(p, TrueP):
        return "true"
    if isinstance(p, FalseP):
        return "false"
    if isinstance(p, TermEq):
        lhs = render_term(eta_contract(normalize(p.lhs)), [], False, rename)
        rhs = render_term(eta_contract(normalize(p.rhs)), [], False, rename)
        return f"{lhs} = {rhs}"
    if isinstance(p, RelApp):
        args = []
        for c in p.ctxs:
            v = ctx_head_var(c)
            if v is None or ctx_blocks(c):
                raise UnsupportedShapeError(
                    f"theorem {t.name!r}: relation arguments must be bare context "
                    "variables in formula targets",
                    t.loc,
                )
            args.append(rename.get(v, v))
        return f"{p.name} {' '.join(args)}" if args else p.name
    if isinstance(p, Judgment):
        v = ctx_head_var(p.ctx)
        if isinstance(p.ctx, EmptyCtx):
            ctx_s = "nil"
        elif v is None or ctx_blocks(p.ctx):
            raise UnsupportedShapeError(
                f"theorem {t.name!r}: judgment contexts must be bare context "
                "variables in formula targets",
                t.loc,
            )
        else:
            ctx_s = rename.get(v, v)
        head = p.family
        if p.args:
            head += " " + " ".join(
                render_term(eta_contract(normalize(a)), [], True, rename)
                for a in p.args
            )
        return f"{{{ctx_s} |- {head}}}"
    raise UnsupportedShapeError(f"theorem {t.name!r}: cannot translate {p!r}", t.loc)


def _forall_block(t: Theorem, p: Prp, scope, rename, warnings, expl, avoid=frozenset()) -> str:
    scope = list(scope)
    rename = dict(rename)
    names: list[str] = []
    antecedents: list[str] = []
    body = p
    while isinstance(body, (ForallCtx, ForallTm)):
        upper = body.var[0].upper() + body.var[1:]
        upper = _numbered(upper, _Names(avoid, [*rename.values(), *names]))
        rename[body.var] = upper
        names.append(upper)
        if isinstance(body, ForallCtx):
            scope.append(body.var)
            antecedents.append(f"{body.schema} {upper}")
        else:
            if body.var in expl:
                ctx = _pick_ctx(t, body.var, scope, warnings)
                fam = _atomic_family(t, body.var, body.tp)
                antecedents.append(f"{{{rename.get(ctx, ctx)} |- is_{fam} {upper}}}")
        body = body.body
    if isinstance(body, ExistsTm):
        inner = _exists_block(t, body, scope, rename, warnings, expl, avoid)
    else:
        inner = _formula(t, body, scope, rename, warnings, expl, avoid=avoid)
    if not names:
        return inner
    chain = "".join(a + " -> " for a in antecedents) + inner
    return f"forall {' '.join(names)}, {chain}"


def _exists_block(t, p: ExistsTm, scope, rename, warnings, expl, avoid=frozenset()) -> str:
    rename = dict(rename)
    upper = _numbered(p.var[0].upper() + p.var[1:], _Names(avoid, rename.values()))
    rename[p.var] = upper
    inner = _formula(t, p.body, scope, rename, warnings, expl, avoid=avoid)
    return f"exists {upper}, {inner}"


def translate_theorem(checked, t: Theorem, target: str, ann: AnnotationTable):
    """Render one theorem for a target; returns (text, warnings)."""
    warnings: list[Diagnostic] = []
    expl = ann.explicit_theorem_vars.get(t.name, frozenset())
    if target in ("ab", "hy"):
        avoid = checked.sig.entries
        text = _forall_block(t, t.statement, [], {}, warnings, expl, avoid)
        return text + ".", warnings
    if target == "bel":
        groups = []
        scope: list[str] = []
        body = t.statement
        while isinstance(body, (ForallCtx, ForallTm, ExistsTm)):
            if isinstance(body, ForallCtx):
                groups.append(f"{{{body.var}:{body.schema}}}")
                scope.append(body.var)
            elif isinstance(body, ForallTm):
                if body.var in expl:
                    ctx = _pick_ctx(t, body.var, scope, warnings)
                    groups.append(f"{{{body.var}:[{ctx} |- {tp_str(body.tp, [])}]}}")
                else:
                    groups.append(f"{{{body.var}:{tp_str(body.tp, [])}}}")
            else:
                groups.append(f"<{body.var}:{tp_str(body.tp, [])}>")
            body = body.body
        prefix = " ".join(groups)
        text = (prefix + " " if prefix else "") + prp_str(body)
        return text + ".", warnings
    return "% " + theorem_str(t), warnings


# -------------------------------------------------------------- documents


@dataclass(frozen=True)
class DocBlock:
    tag: str
    text: str


@dataclass(frozen=True)
class TargetDoc:
    target: str
    blocks: tuple[DocBlock, ...]
    warnings: tuple[Diagnostic, ...] = ()

    def render(self) -> str:
        return "\n\n".join(b.text for b in self.blocks) + "\n"

    def block(self, tag: str) -> str:
        for b in self.blocks:
            if b.tag == tag:
                return b.text
        raise KeyError(tag)


def _comment_out(text: str) -> str:
    return "\n".join(f"% {line}" if line.strip() else "%" for line in text.split("\n"))


def translate_spec(checked, target: str) -> TargetDoc:
    ann = resolve(checked, target)
    spec = checked.spec
    sig = checked.sig
    blocks: list[DocBlock] = []
    warnings: list[Diagnostic] = []
    if target in ("ab", "hy"):
        for fam in sig.families():
            if fam in ann.wf_families:
                clauses = gen_wf_predicates(sig, [fam])
                blocks.append(DocBlock(fam, "\n".join(c.render() for c in clauses)))
        for entry in sig.rules():
            cl = translate_rule(sig, entry.decl, ann)
            blocks.append(DocBlock(entry.decl.name, cl.render()))
        for s in spec.schemas:
            blocks.append(DocBlock(s.name, translate_schema(sig, s, target, ann)))
        for d in spec.definitions:
            blocks.append(DocBlock(d.name, translate_relation(sig, d, target, ann)))
        for t in checked.theorems:
            text, warns = translate_theorem(checked, t, target, ann)
            warnings += warns
            blocks.append(DocBlock(t.name, text))
    elif target == "bel":
        for sec in ("Syntax", "Judgments", "Rules", "Schemas", "Definitions"):
            text = spec.section_text(sec)
            if text:
                blocks.append(DocBlock(sec, text))
        for t in checked.theorems:
            text, warns = translate_theorem(checked, t, target, ann)
            warnings += warns
            blocks.append(DocBlock(t.name, text))
    else:  # tw
        for sec in ("Syntax", "Judgments", "Rules"):
            text = spec.section_text(sec)
            if text:
                blocks.append(DocBlock(sec, text))
        for sec in ("Schemas", "Definitions"):
            text = spec.section_text(sec)
            if text:
                blocks.append(DocBlock(sec, _comment_out(text)))
        for t in checked.theorems:
            text, warns = translate_theorem(checked, t, target, ann)
            warnings += warns
            blocks.append(DocBlock(t.name, text))
    return TargetDoc(target, tuple(blocks), tuple(warnings))
