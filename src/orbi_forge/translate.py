"""Target-dialect emission for the four supported systems.

Proof-theoretic targets (ab, hy) get full pipelines: generated
well-formedness predicates, rules as hereditary-Harrop clauses, schemas and
context relations as inductive list predicates, theorem statements as
formulas.  A schema is printed as the one-parameter relation it denotes:
both lower to the same clause list, and ``_inductive_text`` is the one
place that writes the ab ``Define`` and the hy ``Inductive`` layout.  bel
passes the signature through unchanged and lifts theorems; tw passes the
signature through and comments out everything it cannot say.
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
    OrbiError,
    UnsupportedShapeError,
)
from orbi_forge.lf import Signature, families_in_tp, is_level0, normalize
from orbi_forge.pretty import prp_str, theorem_str, tp_str
from orbi_forge.syntax import (
    And,
    App,
    Arrow,
    AtomApp,
    Const,
    ConstDecl,
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

    def pick(self, pool):
        """The first free name of ``pool``, else ``pool[0]`` numbered."""
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
        return self.pick(self._UPPER)

    def fresh_lower(self) -> str:
        return self.pick(self._LOWER)


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


# --------------------------------------------------- schemas and relations
#
# A schema S is the one-parameter relation with a nil clause and one cons
# clause per block, each with premise S L: schemas and relations lower to the
# same clauses, and ``_inductive_text`` prints both in either dialect.


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


def _inductive_text(name: str, arity: int, clauses, target: str) -> str:
    """The ``Define`` (ab) or ``Inductive`` (hy) definition of a relation over
    ``arity`` context lists from its (clause name, nabla variables, list
    variables, premises, head) clauses.  ab leaves clause names and list
    variables implicit; hy binds them and guards each nabla variable with
    ``proper``."""
    if target == "ab":
        parts = []
        for _, nabla, _, premises, head in clauses:
            s = f"nabla {' '.join(nabla)}, {head}" if nabla else head
            parts.append(s + " := " + " /\\ ".join(premises) if premises else s)
        tp = " -> ".join(["olist"] * arity)
        return f"Define {name} : {tp} -> prop by\n  " + ";\n  ".join(parts) + "."
    lines = [f"Inductive {name} : {' -> '.join(['list atm'] * arity)} -> Prop :="]
    for k, (cname, nabla, lists, premises, head) in enumerate(clauses, 1):
        end = "." if k == len(clauses) else ""
        if not lists and not nabla:
            lines.append(f"| {cname} : {head}{end}")
            continue
        binders = [f"({v}:list atm)" for v in lists] + [f"({v}:uexp)" for v in nabla]
        chain = [f"proper {v}" for v in nabla] + premises + [head]
        lines.append(f"| {cname} : forall {' '.join(binders)},")
        lines.append(f"    {' -> '.join(chain)}{end}")
    return "\n".join(lines)


_AB_LISTS = tuple(f"{c}s" for c in "ABCDEFGHIJKLMNOPQRSTUVWXYZ")


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
    names = _Names(sig.entries, [s.name, *(v for variables, _ in rendered for v in variables)])
    lv = names.pick(_AB_LISTS if target == "ab" else ("Gamma",))
    sfx = s.name.removesuffix("G") or s.name  # hy clause names: xG has nil_x, cns_x
    clauses = [(f"nil_{sfx}", (), (), (), f"{s.name} nil")]
    for i, (variables, atoms) in enumerate(rendered, 1):
        cname = f"cns_{sfx}" if len(rendered) == 1 else f"cns_{sfx}{i}"
        head = f"{s.name} ({' :: '.join(atoms)} :: {lv})"
        clauses.append((cname, variables, (lv,), [f"{s.name} {lv}"], head))
    return _inductive_text(s.name, 1, clauses, target)


def translate_relation(sig: Signature, d: InductiveDef, target: str, ann: AnnotationTable) -> str:
    """Each clause writes its context variable ``g`` as the list variable
    ``G`` (numbered on a clash), naming the relation's parameters first, then
    the premises' other context variables, from one supply that also holds
    the signature, the relation and the clause's nabla variables."""
    explicit_vars = ann.explicit_relation_params.get(d.name, frozenset())
    params = [v for v, _ in d.params]
    clauses = []
    for cname, prp in d.clauses:
        premises, head = _clause_parts(prp)
        nabla: list[str] = []
        args = []  # (context variable or None, atoms) of each head argument
        for var, arg in zip(params, head.ctxs):
            atoms: list[str] = []
            blocks = ctx_blocks(arg)
            for _, block in blocks:
                variables, batoms = _block_parts(
                    sig, f"relation {d.name!r}", block, var in explicit_vars, ann
                )
                nabla += [v for v in variables if v not in nabla]
                atoms += batoms
            if blocks and not atoms:
                raise EmptyRenderingError(
                    f"relation {d.name!r}: context parameter {var!r} erases to "
                    f"nothing; mark it explicit (%% explicit [{target}] in [{var}])"
                )
            args.append((ctx_head_var(arg), atoms))
        names = _Names(sig.entries, [d.name, *nabla])
        lists: dict[str, str] = {}
        for v in params + [a.name for p in premises for a in p.ctxs]:
            if v not in lists:
                lists[v] = names.pick((v[0].upper() + v[1:],))
        heads = []
        for v, atoms in args:
            tail = "nil" if v is None else lists[v]
            heads.append(f"({' :: '.join(atoms)} :: {tail})" if atoms else tail)
        bound = list(dict.fromkeys(lists[v] for v, _ in args if v is not None))
        body = [f"{p.name} {' '.join(lists[a.name] for a in p.ctxs)}" for p in premises]
        clauses.append((cname, nabla, bound, body, f"{d.name} {' '.join(heads)}"))
    return _inductive_text(d.name, len(params), clauses, target)


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
# connective: (symbol, own precedence, precedence of its lhs, of its rhs)
_CONNECTIVES = {
    Imp: ("->", _F_IMP, _F_OR, _F_IMP),
    Or: ("\\/", _F_OR, _F_OR, _F_AND),
    And: ("/\\", _F_AND, _F_AND, _F_ATOM),
}


def _formula(t: Theorem, p: Prp, scope, rename, warnings, expl, prec=_F_IMP, avoid=frozenset()) -> str:
    if isinstance(p, (ForallCtx, ForallTm, ExistsTm)):
        s = _forall_block(t, p, scope, rename, warnings, expl, avoid)
        return f"({s})"
    if type(p) in _CONNECTIVES:
        sym, own, left, right = _CONNECTIVES[type(p)]
        s = (
            f"{_formula(t, p.lhs, scope, rename, warnings, expl, left, avoid)} {sym} "
            f"{_formula(t, p.rhs, scope, rename, warnings, expl, right, avoid)}"
        )
        return f"({s})" if prec > own else s
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
        upper = _Names(avoid, [*rename.values(), *names]).pick((upper,))
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
    upper = _Names(avoid, rename.values()).pick((p.var[0].upper() + p.var[1:],))
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


# bel and tw copy these sections from the source; tw comments out the ones it
# cannot say
_COPIED = ("Syntax", "Judgments", "Rules", "Schemas", "Definitions")
_COMMENTED = {"bel": (), "tw": ("Schemas", "Definitions")}


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
        item = None  # the rule, schema or relation being translated
        try:
            for entry in sig.rules():
                item = entry.decl
                blocks.append(DocBlock(item.name, translate_rule(sig, item, ann).render()))
            for item in spec.schemas:
                blocks.append(DocBlock(item.name, translate_schema(sig, item, target, ann)))
            for item in spec.definitions:
                blocks.append(DocBlock(item.name, translate_relation(sig, item, target, ann)))
        except OrbiError as e:
            if e.loc.line == 0:
                e.loc = item.loc
            raise
    else:
        for sec in _COPIED:
            text = spec.section_text(sec)
            if text:
                blocks.append(DocBlock(sec, _comment_out(text) if sec in _COMMENTED[target] else text))
    for t in checked.theorems:
        text, warns = translate_theorem(checked, t, target, ann)
        warnings += warns
        blocks.append(DocBlock(t.name, text))
    return TargetDoc(target, tuple(blocks), tuple(warnings))
