"""Target-dialect emission for the four supported systems.

Proof-theoretic targets (ab, hy) get full pipelines: generated
well-formedness predicates, rules as hereditary-Harrop clauses, schemas and
context relations as inductive list predicates, theorem statements as
formulas.  The first four lower to one clause IR of goal nodes in which the
wf guard is a node of its own, so ``erase_clause`` turns an explicit clause
into the implicit one structurally.  A schema is the one-parameter relation
it denotes: both lower to an ``Inductive``, whose ``render`` is the one place
that writes the ab ``Define`` and the hy ``Inductive`` layout.  bel passes
the signature through unchanged and lifts theorems; tw passes the signature
through and comments out everything it cannot say.

No term or formula is printed here: ``pretty`` prints them, and names every
lambda's binder, in the ab/hy dialect ``AB``, whose quantifier and atom
layouts are defined here, or in ``BEL``, ORBI's dialect with spaced
quantifier groups.  Every variable ab/hy generate, rule and nabla variables
among them, comes from one supply, ``_Names``, which avoids the signature.

Rule arguments, block entries and theorem terms print in the one canonical
form, βη-normal, which ``lf.normalize`` computes; ``translate`` has no walk
of its own for it.  Emission relies on the leaves the parser shares: within
one parse every occurrence of a name is one ``Const`` or ``Var`` object, and
a leaf holds no lambda and no redex.  So ``normalize`` returns a leaf as it
is, a rule atom hands it only its other arguments, a block entry only one
that has another, and a leaf is printed, and tested for a name, in place.
"""

from __future__ import annotations

from orbi_forge.directives import AnnotationTable, resolve, wf_name
from orbi_forge.errors import Diagnostic, OrbiError
from orbi_forge.lf import SigEntry, Signature, families_in_tp, is_level0, normalize
from orbi_forge.pretty import _P_IMP, _P_QUANT, ORBI, Dialect, arg_strs, prp_str, term_str, theorem_str
from orbi_forge.syntax import (
    Arrow,
    AtomApp,
    Const,
    CtxPattern,
    ExistsTm,
    ForallCtx,
    ForallTm,
    InductiveDef,
    Judgment,
    Pi,
    Prp,
    Record,
    RelApp,
    Schema,
    Term,
    Theorem,
    Var,
    free,
    rebuild,
)

# -------------------------------------------------------------- clause IR


class AtomG(Record):
    __slots__ = ("pred", "args")  # args: rendered terms, or a ``Cons`` for a context list
    _defaults = ((),)
    atomic = True

    def render(self) -> str:
        return self.pred + ("" if not self.args else " " + " ".join(map(str, self.args)))


class Guard(Record):
    """The wf guard ``is_<family> arg``: every wf predicate atom is one."""

    __slots__ = ("family", "arg")
    atomic = True

    def render(self) -> str:
        return f"{wf_name(self.family)} {self.arg}"


class PiG(Record):
    __slots__ = ("var", "body")
    atomic = False

    def render(self) -> str:
        return f"pi {self.var}\\ {self.body.render()}"


class ImpG(Record):
    __slots__ = ("hyp", "body")
    atomic = False

    def render(self) -> str:
        h = self.hyp.render()
        return f"{h if self.hyp.atomic else f'({h})'} => {self.body.render()}"


class Cons(Record):
    """The context list ``(g1 :: ... :: tail)`` of a schema or relation head."""

    __slots__ = ("items", "tail")

    def __str__(self) -> str:
        return "(" + "".join([g.render() + " :: " for g in self.items]) + self.tail + ")"


class Clause(Record):
    __slots__ = ("head", "body")  # head: AtomG, or the Guard a wf clause defines
    _defaults = ((),)

    def render(self) -> str:
        if not self.body:
            return f"{self.head.render()}."
        many = len(self.body) > 1
        parts = [g.render() if g.atomic or not many else f"({g.render()})" for g in self.body]
        return f"{self.head.render()} :- {', '.join(parts)}."


class RelClause(Record):
    """One clause of a schema or relation: its nabla variables stand for the
    level-0 block entries, its list variables for the context variables."""

    __slots__ = ("name", "nabla", "lists", "premises", "head")


def _erase(g):
    t = type(g)
    if t is Guard:
        return None
    if t is PiG:
        body = _erase(g.body)
        return None if body is None else PiG(g.var, body)
    if t is ImpG:
        body, hyp = _erase(g.body), _erase(g.hyp)
        return body if body is None or hyp is None else ImpG(hyp, body)
    if t is AtomG:
        return AtomG(g.pred, tuple(map(_erase, g.args)))
    if t is Cons:
        items = _erase_all(g.items)
        return Cons(items, g.tail) if items else g.tail
    return g  # a rendered term


def _erase_all(goals) -> tuple:
    return tuple([e for e in map(_erase, goals) if e is not None])


def erase_clause(cl):
    """The implicit form of an explicit clause: guards are dropped,
    ``ImpG(guard, b)`` becomes ``b`` and every ``PiG`` stays.  A wf clause,
    which defines a guard, erases to None."""
    if type(cl) is RelClause:
        return cl._replace(premises=_erase_all(cl.premises), head=_erase(cl.head))
    return None if type(cl.head) is Guard else Clause(cl.head, _erase_all(cl.body))


# ------------------------------------------------------------------- names


class _Names:
    """The one supply of ab/hy variables, which never collides with user
    identifiers: ``reserved`` (typically ``sig.entries``) is consulted, never
    copied, and names handed out go into the supply's own ``taken`` dict.
    Taken names stay taken, so numbering a stem, or priming a name, resumes
    where it last stopped; a prime makes no call."""

    def __init__(self, reserved, taken=()):
        self.reserved = reserved
        # taken name -> the last name ``grab`` handed out for it, or None
        self.taken: dict = dict.fromkeys(taken) if taken else {}
        self.numbered: dict[str, int] = {}  # stem -> its highest number handed out

    def grab(self, name: str) -> str:
        """``name``, primed until it is free."""
        taken, reserved, hint = self.taken, self.reserved, name
        if name in taken:
            name = taken[name] or name
        while name in taken or name in reserved:
            name += "'"
        taken[hint] = taken[name] = name
        return name

    def pick(self, pool):
        """The first free name of ``pool``, else ``pool[0]`` numbered."""
        taken, reserved = self.taken, self.reserved
        for ch in pool:
            if ch not in taken and ch not in reserved:
                taken[ch] = None
                return ch
        stem = pool[0]
        i = self.numbered.get(stem, 0) + 1
        while f"{stem}{i}" in taken or f"{stem}{i}" in reserved:
            i += 1
        self.numbered[stem] = i
        name = f"{stem}{i}"
        taken[name] = None
        return name


_UPPER, _LOWER = "MNOPQRSTUVWXYZABCDEFGHIJKL", "xyzuvw"


# ------------------------------------------------- well-formedness clauses


def _atomize(s: str) -> str:
    return f"({s})" if " " in s else s


def _wf_goal(expr: str, tp, names: _Names):
    """Goal asserting that ``expr`` is a well-formed inhabitant of the
    level-0 type ``tp``.

    Function types recurse into an embedded implication under a fresh pi,
    so higher-order constructor arguments nest one pi/=> per order.  A
    level-0 family has kind ``type``, so no level-0 type mentions a term: a
    product is an arrow, and its codomain needs no shift.
    """
    if type(tp) is AtomApp:
        return Guard(tp.family, _atomize(expr))
    x = names.pick(_LOWER)
    hyp = _wf_goal(x, tp.dom, names)
    return PiG(x, ImpG(hyp, _wf_goal(f"{expr} {x}", tp.cod, names)))


def gen_wf_predicates(sig: Signature, fam: str) -> list[Clause]:
    """The wf clauses of the level-0 family ``fam``, one per constructor
    (``directives`` admits a wf directive on such a family only)."""
    out: list[Clause] = []
    for c in sig.constructors_of(fam):
        doms = []
        tp = c.tp
        while type(tp) is Arrow or type(tp) is Pi:
            doms.append(tp.dom)
            tp = tp.cod
        names = _Names(sig.entries)
        arg_names = [names.pick(_UPPER) for _ in doms]
        head = Guard(fam, _atomize(" ".join([c.name, *arg_names])))
        out.append(Clause(head, tuple([_wf_goal(n, d, names) for n, d in zip(arg_names, doms)])))
    return out


# ------------------------------------------------------------------- rules


def _atom_goal(a: AtomApp, env_names) -> AtomG:
    args = [x if type(x) is Const or type(x) is Var else normalize(x) for x in a.args]
    return AtomG(a.family, tuple(arg_strs(args, env_names, AB)))


def _goal_of(p, env_names, names: _Names, wf):
    """The goal of a rule's premise ``p``: its Pi binders are clause variables
    from ``names``, guarded when their families are all in ``wf``."""
    t = type(p)
    if t is Pi:
        var = names.grab(p.hint or "x")
        goal = _goal_of(p.cod, env_names + [var], names, wf)
        if wf and families_in_tp(p.dom).keys() <= wf:
            goal = ImpG(_wf_goal(var, p.dom, names), goal)
        return PiG(var, goal)
    if t is Arrow:
        return ImpG(_goal_of(p.dom, env_names, names, wf), _goal_of(p.cod, env_names, names, wf))
    # a judgment: lf rejects a premise that ends in a level-0 family
    return _atom_goal(p, env_names)


def translate_rule(sig: Signature, entry: SigEntry, ann: AnnotationTable) -> Clause:
    """Render one checked rule as a hereditary-Harrop clause, in one loop
    along its beta-normal body after its schematic prefix (a schematic
    occurrence is a constant printed as its name).  lf stores each premise,
    a Pi over a judgment among them, as an arrow and each binder as a Pi, so
    the node type decides: a Pi, wherever it stands, is a clause variable
    from the rule's supply (``G -> {x:A} B``, x not free in G, is the clause
    ``{x:A} G -> B``), and an arrow's domain is a premise."""
    rule = entry.decl
    wf = ann.wf_families if rule.name in ann.explicit_rules else ()
    env = list(entry.implicit)
    names = _Names(sig.entries, env)

    body: list = []  # the wf guards of the clause variables, when explicit, and the premises
    for name, simple in zip(env, entry.implicit_tps):
        if simple.family in wf:  # None for an arrow
            body.append(Guard(simple.family, name))
    tp = rule.tp
    while type(tp) is not AtomApp:
        dom = tp.dom
        if type(tp) is Arrow:
            body.append(_goal_of(dom, env, names, wf))
        else:
            name = names.grab(tp.hint)
            if type(dom) is AtomApp and dom.family in wf:
                body.append(Guard(dom.family, name))
            env.append(name)
        tp = tp.cod
    return Clause(_atom_goal(tp, env), tuple(body))


# --------------------------------------------------- schemas and relations
#
# A schema S is the one-parameter relation with a nil clause and one cons
# clause per block, each with premise S L: schemas and relations lower to the
# same ``Inductive``, which prints both in either dialect.


class Inductive(Record):
    """A schema or relation over ``arity`` context lists, printed as an ab
    ``Define`` or a hy ``Inductive``.  ab leaves clause names and list
    variables implicit; hy binds them and guards each nabla variable with
    ``proper``."""

    __slots__ = ("name", "arity", "target", "clauses")

    def render(self) -> str:
        if self.target == "ab":
            parts = []
            for c in self.clauses:
                s = c.head.render()
                if c.nabla:
                    s = f"nabla {' '.join(c.nabla)}, {s}"
                if c.premises:
                    s += " := " + " /\\ ".join([p.render() for p in c.premises])
                parts.append(s)
            tp = " -> ".join(["olist"] * self.arity + ["prop"])
            return f"Define {self.name} : {tp} by\n  " + ";\n  ".join(parts) + "."
        lines = [f"Inductive {self.name} : {' -> '.join(['list atm'] * self.arity + ['Prop'])} :="]
        for c in self.clauses:
            binders = [f"({v}:list atm)" for v in c.lists] + [f"({v}:uexp)" for v in c.nabla]
            chain = [f"proper {v}" for v in c.nabla] + [p.render() for p in (*c.premises, c.head)]
            chain = " -> ".join(chain)
            if binders:
                lines.append(f"| {c.name} : forall {' '.join(binders)},\n    {chain}")
            else:
                lines.append(f"| {c.name} : {chain}")
        return "\n".join(lines) + "."


def _block_parts(sig: Signature, owner: str, blocks, wf, names, nabla) -> tuple:
    """Guard and atom goals of the (label, block) pairs of one context, with
    the guards of the families in ``wf`` (None: implicit).  A level-0 entry
    is a nabla variable: ``nabla`` maps (block label, entry label) to it,
    named from ``names`` when first seen."""
    goals: list = []
    for key, block in blocks:
        env: list[str] = []
        for label, tp in block.entries:
            if is_level0(sig, tp):
                var = nabla.get((key, label))
                if var is None:
                    var = nabla[key, label] = names.grab(label)
                if wf is not None:
                    if type(tp) is not AtomApp:
                        raise OrbiError(
                            "E-SHAPE",
                            f"{owner}: cannot reify well-formedness of the higher-order "
                            f"block entry {label!r}",
                        )
                    if tp.family in wf:
                        goals.append(Guard(tp.family, var))
            else:
                if type(tp) is not AtomApp:
                    raise OrbiError(
                        "E-SHAPE", f"{owner}: block entry {label!r} must be an atomic judgment"
                    )
                var = label
                for a in tp.args:  # βη-normal, as a rule's and a theorem's
                    if type(a) is not Const and type(a) is not Var:
                        tp = normalize(tp)
                        break
                goals.append(AtomG(tp.family, tuple(arg_strs(tp.args, env, AB))))
            env.append(var)
    return tuple(goals)


_AB_LISTS = tuple(f"{c}s" for c in "ABCDEFGHIJKLMNOPQRSTUVWXYZ")


def translate_schema(sig: Signature, s: Schema, target: str, ann: AnnotationTable) -> Inductive:
    wf = ann.wf_families if s.name in ann.explicit_schemas else None
    lowered = []  # (nabla variables, goals) of each block
    for block in s.alternatives:
        nabla: dict = {}
        names = _Names(sig.entries, [s.name])
        goals = _block_parts(sig, f"schema {s.name!r}", [(None, block)], wf, names, nabla)
        if not goals:
            raise OrbiError(
                "E-EMPTY",
                f"schema {s.name!r}: implicit translation erases the whole block; "
                f"mark the schema explicit (%% explicit [{target}] in {s.name})",
            )
        lowered.append((tuple(nabla.values()), goals))
    names = _Names(sig.entries, [s.name, *(v for variables, _ in lowered for v in variables)])
    lv = names.pick(_AB_LISTS if target == "ab" else ("Gamma",))
    sfx = s.name.removesuffix("G") or s.name  # hy clause names: xG has nil_x, cns_x
    clauses = [RelClause(f"nil_{sfx}", (), (), (), AtomG(s.name, ("nil",)))]
    for i, (variables, goals) in enumerate(lowered, 1):
        cname = f"cns_{sfx}" if len(lowered) == 1 else f"cns_{sfx}{i}"
        head = AtomG(s.name, (Cons(goals, lv),))
        clauses.append(RelClause(cname, variables, (lv,), (AtomG(s.name, (lv,)),), head))
    return Inductive(s.name, 1, target, tuple(clauses))


def translate_relation(
    sig: Signature, d: InductiveDef, target: str, ann: AnnotationTable
) -> Inductive:
    """Each clause has one nabla variable per level-0 entry of each block
    label, and writes its context variable ``g`` as the list variable ``G``
    (numbered on a clash), naming the relation's parameters first, then the
    premises' other context variables.  All come from one supply per clause
    that also holds the signature and the relation's name; every list
    variable the clause uses is bound."""
    params = [v for v, _ in d.params]
    owner = f"relation {d.name!r}"
    clauses = []
    for cname, premises, head in d.clauses:
        names = _Names(sig.entries, [d.name])
        nabla: dict = {}
        args = []  # (context variable or None, goals) of each head argument
        for var, arg in zip(params, head.ctxs):
            wf = ann.wf_families if (d.name, var) in ann.explicit_relation_params else None
            goals = _block_parts(sig, owner, arg.blocks, wf, names, nabla)
            if arg.blocks and not goals:
                raise OrbiError(
                    "E-EMPTY",
                    f"relation {d.name!r}: context parameter {var!r} erases to "
                    f"nothing; mark it explicit (%% explicit [{target}] in [{var}])",
                )
            args.append((arg.var, goals))
        lists: dict[str, str] = {}
        for v in params + [a.var for p in premises for a in p.ctxs]:
            if v not in lists:
                lists[v] = names.pick((v[0].upper() + v[1:],))
        heads = []
        for v, goals in args:
            tail = "nil" if v is None else lists[v]
            heads.append(Cons(goals, tail) if goals else tail)
        body = tuple([AtomG(p.name, tuple([lists[a.var] for a in p.ctxs])) for p in premises])
        used = {v for v, _ in args} | {a.var for p in premises for a in p.ctxs}
        bound = tuple([name for v, name in lists.items() if v in used])
        head_atom = AtomG(d.name, tuple(heads))
        clauses.append(RelClause(cname, tuple(nabla.values()), bound, body, head_atom))
    return Inductive(d.name, len(params), target, tuple(clauses))


# ---------------------------------------------------------------- theorems


class _Scope:
    """A theorem's printing state, one per theorem, in either formula layout.

    Context and term variables have tables of their own, as in
    ``contexts.scope_check_theorem``: ``ctxs`` maps a context variable in
    scope to its binder (variable, ab/hy name, serial), outermost first, a
    context bound again under its name being a binder of its own, and
    ``terms`` maps a term variable to its ab/hy name.  ab/hy names come
    from the theorem's one supply, ``names`` (None for bel).  A quantifier
    chain is printed in one walk: ``open`` copies the tables, ``bind`` binds
    each variable and ``close`` restores the tables once the body is
    printed, so no name in scope is handed out again.  The walk calls
    ``use`` at each judgment, which appends its context binder to the usage
    list of every explicit variable in scope that it mentions, so ``close``
    names each explicit variable's context without a second look at the
    body."""

    __slots__ = ("thm", "expl", "names", "warnings", "ctxs", "uses", "terms", "serial")

    def __init__(self, thm: Theorem, expl, names):
        self.thm, self.expl, self.names = thm, expl, names
        self.warnings: list[Diagnostic] = []
        self.ctxs: dict = {}  # context variable in scope -> its binder, outermost first
        self.uses: dict = {}  # explicit variable in scope -> the binders its judgments lie under
        self.terms: dict = {}  # term variable in scope -> its ab/hy name
        self.serial = 0

    def open(self) -> tuple:
        """Start a quantifier chain; returns what ``close`` restores.  Only
        ab/hy copy the term names and the supply, which bel does not read."""
        saved = self.ctxs, self.uses, self.terms, len(self.warnings)
        self.ctxs, self.uses = dict(self.ctxs), dict(self.uses)
        names = self.names
        if names is not None:
            saved += (names.taken, names.numbered)
            self.terms = dict(self.terms)
            names.taken, names.numbered = dict(names.taken), dict(names.numbered)
        return saved

    def bind(self, p: Prp, name: str):
        """Bind the variable of the quantifier ``p``, printed ``name``.
        Returns the entry (variable, usage list, scope) of an explicit term
        variable, ``scope`` being the first context binder visible at ``p``
        and the serial of the next binder, else None; an explicit variable
        with no context in scope is ``E-NOCTX``."""
        var = p.var
        if type(p) is ForallCtx:
            if var in self.ctxs:  # shadowed: its binder leaves the binding order
                del self.ctxs[var]
            self.ctxs[var] = (var, name, self.serial)
            self.serial += 1
            return None
        self.terms[var] = name
        if type(p) is ForallTm and (self.thm.name, var) in self.expl:
            for first in self.ctxs:  # the first context visible
                usage = self.uses[var] = []
                return var, usage, (self.ctxs[first], self.serial)
            raise OrbiError(
                "E-NOCTX",
                f"theorem {self.thm.name!r}: variable {var!r} is explicit but no context "
                "quantifier is in scope",
                self.thm.loc,
            )
        if var in self.uses:  # shadowed from here on
            del self.uses[var]
        return None

    def use(self, c: CtxPattern, args) -> None:
        """Note a judgment under ``c`` with arguments ``args``: its context
        binder joins the usage list of each explicit variable that they
        mention."""
        uses = self.uses
        if c.var is None or not uses:
            return
        b = self.ctxs[c.var]
        for a in args:
            if type(a) is Const:
                if a.name not in uses:
                    continue
                mentioned = (a.name,)
            else:
                mentioned = free(a) & uses.keys()
            for var in mentioned:
                usage = uses[var]
                if b not in usage:
                    usage.append(b)

    def close(self, saved: tuple, pending) -> list:
        """End the chain that ``open`` started.  ``pending`` holds an
        (entry, slot) pair for each explicit variable of the chain, the
        entry as ``bind`` returned it and the slot the caller's; returns
        (slot, binder) pairs, the binder naming the context of the
        variable's wf antecedent: the one binder its judgments lie under if
        that is visible at its quantifier, else the first one visible there,
        with a ``W-CTX`` warning when they lie under several."""
        self.ctxs, self.uses, self.terms, at, *supply = saved
        if supply:
            self.names.taken, self.names.numbered = supply
        out, notes = [], []
        for (var, usage, (first, serial)), slot in pending:
            if len(usage) == 1 and usage[0][2] < serial:
                out.append((slot, usage[0]))
                continue
            if len(usage) > 1:
                notes.append(
                    Diagnostic(
                        "W-CTX",
                        f"theorem {self.thm.name!r}: variable {var!r} is used under several "
                        f"contexts; its wf antecedent uses {first[0]!r}",
                        self.thm.loc,
                        "warning",
                    )
                )
            out.append((slot, first))
        self.warnings[at:at] = notes  # before those of the chains in its body
        return out


def _ab_quant(p: Prp, d, cx: _Scope) -> str:
    """``forall H M, xaG H -> {H |- is_tm M} -> body`` or ``exists N, body``:
    the ab/hy layout of a quantifier chain.  Each variable gets an upper-case
    name from the theorem's supply, away from the signature and every name
    handed out around it; a context variable has its schema as an antecedent,
    an explicit variable its wf guard, whose context is known once the body
    is printed."""
    saved = cx.open()
    supply = cx.names
    if type(p) is ExistsTm:
        upper = supply.pick((p.var[0].upper() + p.var[1:],))
        cx.bind(p, upper)
        body = prp_str(p.body, _P_IMP, d, cx)
        cx.close(saved, ())
        return f"exists {upper}, {body}"
    names: list[str] = []
    antecedents: list[str] = []
    pending: list = []  # explicit variables, each (entry, (index in antecedents, wf guard))
    while type(p) is ForallCtx or type(p) is ForallTm:
        upper = supply.pick((p.var[0].upper() + p.var[1:],))
        names.append(upper)
        entry = cx.bind(p, upper)
        if type(p) is ForallCtx:
            antecedents.append(f"{p.schema} {upper} -> ")
        elif entry is not None:
            guard = _wf_goal(upper, p.tp, supply).render()
            pending.append((entry, (len(antecedents), guard)))
            antecedents.append("")
        p = p.body
    body = prp_str(p, _P_QUANT, d, cx)
    for (i, guard), ctx in cx.close(saved, pending):
        antecedents[i] = f"{{{ctx[1]} |- {guard}}} -> "
    return f"forall {' '.join(names)}, {''.join(antecedents)}{body}"


def _target_term(t: Term, terms: dict) -> Term:
    """A theorem's term as ab/hy print it: βη-normal, and with its
    quantified term variables, which are constants here, renamed."""

    def f(n, k):
        return Const(terms[n.name]) if type(n) is Const and n.name in terms else n

    return rebuild(normalize(t), f)


def _bare_var(c, cx: _Scope, what: str) -> str:
    """The list a context pattern of no blocks names: ``nil``, or the ab/hy
    name of its context variable."""
    if c.blocks:
        raise OrbiError(
            "E-SHAPE",
            f"theorem {cx.thm.name!r}: {what} must be bare context variables in formula targets",
            cx.thm.loc,
        )
    return "nil" if c.var is None else cx.ctxs[c.var][1]


def _ab_atom(p: Prp, d, cx: _Scope) -> str:
    t = type(p)
    if t is Judgment:
        c = p.ctx
        ctx = _bare_var(c, cx, "judgment contexts")
        head = p.family
        if p.args:
            cx.use(c, p.args)
            terms = cx.terms
            for a in p.args:
                if type(a) is Const:  # a leaf: renamed in place
                    head += " " + (terms[a.name] if a.name in terms else a.name)
                else:
                    head += " " + term_str(_target_term(a, terms), [], True, d)
        return f"{{{ctx} |- {head}}}"
    if t is RelApp:
        args = [_bare_var(c, cx, "relation arguments") for c in p.ctxs]
        return f"{p.name} {' '.join(args)}" if args else p.name
    # prp_str hands this only atoms, so ``p`` is a TermEq
    lhs = term_str(_target_term(p.lhs, cx.terms), [], False, d)
    return f"{lhs} = {term_str(_target_term(p.rhs, cx.terms), [], False, d)}"


AB = Dialect("", "\\ ", "\\/", "/\\", "", _ab_quant, _ab_atom)
BEL = ORBI._replace(sep=" ")


def translate_theorem(checked, t: Theorem, target: str, ann: AnnotationTable):
    """Render one theorem for a target; returns (text, warnings)."""
    if target == "tw":
        return "% " + theorem_str(t), []
    names = None if target == "bel" else _Names(checked.sig.entries)
    cx = _Scope(t, ann.explicit_theorem_vars, names)
    return prp_str(t.statement, _P_QUANT, BEL if names is None else AB, cx) + ".", cx.warnings


# -------------------------------------------------------------- documents


class DocBlock(Record):
    __slots__ = ("tag", "text")


class TargetDoc(Record):
    __slots__ = ("target", "blocks", "warnings")
    _defaults = ((),)

    def render(self) -> str:
        return "\n\n".join(b.text for b in self.blocks) + "\n"

    def block(self, tag: str) -> str:
        return next(b.text for b in self.blocks if b.tag == tag)


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
        for fam in sig.entries:  # every wf family is a declared one
            if fam in ann.wf_families:
                clauses = gen_wf_predicates(sig, fam)
                if clauses:  # a family with no constructor has no wf block
                    blocks.append(DocBlock(fam, "\n".join(c.render() for c in clauses)))
        item = None  # the rule, schema or relation being translated
        try:
            for entry in sig.rules():
                item = entry.decl
                blocks.append(DocBlock(item.name, translate_rule(sig, entry, ann).render()))
            for item in checked.schemas.values():
                blocks.append(DocBlock(item.name, translate_schema(sig, item, target, ann).render()))
            for item in checked.relations.values():
                blocks.append(DocBlock(item.name, translate_relation(sig, item, target, ann).render()))
        except OrbiError as e:
            raise e.at(item.loc)
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
