"""Seeded generators backing the property-based acceptance criteria."""

import random

from orbi_forge.syntax import (
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
    Or,
    OrbiSpec,
    Pi,
    RelApp,
    Schema,
    TermEq,
    Theorem,
    TrueP,
    TYPE,
    Var,
)

# ------------------------------------------------ random well-typed rules

_RULES_HEADER = (
    "%% Syntax",
    "t: type.",
    "c0: t.",
    "c1: t -> t.",
    "c2: t -> t -> t.",
    "cb: (t -> t) -> t.",
    "",
    "%% Judgments",
    "j: t -> t -> type.",
    "",
    "%% Rules",
)


def gen_rules_source(rng: random.Random, n_rules: int):
    """A parseable spec over one level-0 family with ``n_rules`` random
    well-typed rules of premise/conclusion depth <= 3."""
    lines = list(_RULES_HEADER)
    names = []
    for i in range(n_rules):
        cvars = [f"M{k}" for k in range(rng.randint(1, 3))]
        fvars = [f"F{k}" for k in range(rng.randint(0, 2))]

        def ct(d):
            opts = [lambda: rng.choice(cvars), lambda: "c0"]
            if d > 0:
                opts.append(lambda: f"(c1 {ct(d - 1)})")
                opts.append(lambda: f"(c2 {ct(d - 1)} {ct(d - 1)})")
                if fvars:
                    opts.append(lambda: f"(cb (\\x. {ot(d - 1, 'x')}))")
            return rng.choice(opts)()

        def ot(d, x):
            opts = [lambda: x, lambda: "c0", lambda: rng.choice(cvars)]
            if fvars:
                opts.append(lambda: f"({rng.choice(fvars)} {x})")
            if d > 0:
                opts.append(lambda: f"(c1 {ot(d - 1, x)})")
                opts.append(lambda: f"(c2 {ot(d - 1, x)} {ot(d - 1, x)})")
            return rng.choice(opts)()

        def ot_using(d, x):
            # guaranteed to mention the bound variable, so no pi is vacuous
            if fvars and rng.random() < 0.5:
                return f"({rng.choice(fvars)} {x})"
            if d > 0 and rng.random() < 0.5:
                return f"(c1 {ot_using(d - 1, x)})"
            return x

        premises = []
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.5:
                premises.append(f"j {ct(2)} {ct(2)}")
            else:
                hyp = "j x x -> " if rng.random() < 0.5 else ""
                premises.append(f"({{x:t}} {hyp}j {ot_using(2, 'x')} {ot(2, 'x')})")
        conclusion = f"j {ct(3)} {ct(3)}"
        name = f"rul{i}"
        names.append(name)
        lines.append(f"{name}: " + " -> ".join(premises + [conclusion]) + ".")
    return "\n".join(lines) + "\n", names


def gen_noisy_rules_source(rng: random.Random, n_rules: int, p_fault: float = 0.03):
    """Like ``gen_rules_source``, but the rules also use beta-redexes
    applied to one or two arguments and schematics applied to bound
    variables, and each subterm is replaced by a fault (bare lambda, wrong
    arity, family as term, non-pattern schematic, schematic at two types,
    ill-typed redex argument, ...) with probability ``p_fault``. About half
    of the single-rule specs are well typed."""
    lines = list(_RULES_HEADER)

    def fault(d, bound):
        return rng.choice((
            lambda: "(\\y. c0)",
            lambda: "c1",
            lambda: "(cb c0)",
            lambda: f"(c1 {tm(d - 1, bound)} {tm(d - 1, bound)})",
            lambda: "t",
            lambda: "(F c0)",
            lambda: "(F x x)" if "x" in bound else "(G c0)",
            lambda: "(M c0)",
            lambda: "(c2 (cb (\\y. H y)) H)",
            lambda: f"({rng.choice(bound)} c0)" if bound else "(c0 c0)",
            lambda: "((\\y. c0) (c1 c0 c0))",
            lambda: "((\\y. c0) t)",
            lambda: "((\\f. cb f) (\\y. y))",
        ))()

    def redex(d, bound):
        # applied to one argument, or less often to two
        z, w = "xyzwuv"[len(bound) : len(bound) + 2]
        if rng.random() < 0.3:
            body = tm(d - 1, bound + (z, w))
            return f"((\\{z}. \\{w}. {body}) {tm(d - 1, bound)} {tm(d - 1, bound)})"
        return f"((\\{z}. {tm(d - 1, bound + (z,))}) {tm(d - 1, bound)})"

    def tm(d, bound):
        if rng.random() < p_fault:
            return fault(d, bound)
        if d <= 0 or rng.random() < 0.25:
            return rng.choice(["c0", "M", "N"] + list(bound) * 2)
        z = "xyzwuv"[len(bound)]
        opts = [
            lambda: f"(c1 {tm(d - 1, bound)})",
            lambda: f"(c2 {tm(d - 1, bound)} {tm(d - 1, bound)})",
            lambda: f"(cb (\\{z}. {tm(d - 1, bound + (z,))}))",
            lambda: redex(d, bound),
        ]
        if bound:
            opts.append(lambda: f"(F {rng.choice(bound)})")
        if len(bound) >= 2:
            a, b = rng.sample(bound, 2)
            opts.append(lambda: f"(G {a} {b})")
        return rng.choice(opts)()

    for i in range(n_rules):
        premises = []
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.5:
                premises.append(f"j {tm(2, ())} {tm(2, ())}")
            else:
                premises.append(f"({{x:t}} j {tm(2, ('x',))} {tm(2, ('x',))})")
        conclusion = f"j {tm(3, ())} {tm(3, ())}"
        lines.append(f"rul{i}: " + " -> ".join(premises + [conclusion]) + ".")
    return "\n".join(lines) + "\n"


# --------------------------------------------- random well-scoped documents

_HINTS = ("x", "y", "z", "f", "app", "w'")
_FREE = ("M", "N", "P", "q0", "x", "zz'")


def _gen_term(rng, d, envd):
    r = rng.random()
    if d == 0 or r < 0.35:
        if envd and rng.random() < 0.6:
            return Var(rng.randrange(envd))
        return Const(rng.choice(_FREE))
    if r < 0.6:
        return Lam(rng.choice(_HINTS), _gen_term(rng, d - 1, envd + 1))
    return App(_gen_term(rng, d - 1, envd), _gen_term(rng, d - 1, envd))


def _gen_tp(rng, d, envd, fams):
    r = rng.random()
    if d == 0 or r < 0.4:
        nargs = rng.randint(0, 2)
        return AtomApp(rng.choice(fams), tuple(_gen_term(rng, 1, envd) for _ in range(nargs)))
    if r < 0.7:
        return Arrow(_gen_tp(rng, d - 1, envd, fams), _gen_tp(rng, d - 1, envd, fams))
    return Pi(
        rng.choice(_HINTS),
        _gen_tp(rng, d - 1, envd, fams),
        _gen_tp(rng, d - 1, envd + 1, fams),
    )


def _gen_kind(rng, fams):
    k = TYPE
    for _ in range(rng.randint(0, 2)):
        k = Arrow(_gen_tp(rng, 1, 0, fams), k)
    return k


def _gen_block(rng, fams, n=None):
    n = n or rng.randint(1, 3)
    entries = []
    for i in range(n):
        args = tuple(
            Var(rng.randrange(i)) if i and rng.random() < 0.7 else Const(rng.choice(_FREE))
            for _ in range(rng.randint(0, 2))
        )
        entries.append((f"b{i}", AtomApp(rng.choice(fams), args)))
    return Block(tuple(entries))


def _gen_ctx(rng, fams, cvars):
    r = rng.random()
    var = None if r < 0.4 or not cvars else rng.choice(cvars)
    n = rng.randint(0, 2)
    return CtxPattern(var, tuple((f"blk{k}", _gen_block(rng, fams)) for k in range(n)))


def _gen_prp(rng, d, fams, schemas, rels, cvars):
    r = rng.random()
    if d > 0 and r < 0.35:
        kind = rng.randrange(3)
        if kind == 0:
            v = f"g{rng.randrange(4)}"
            sname = rng.choice(schemas + ["zzG"]) if schemas else "zzG"
            return ForallCtx(v, sname, _gen_prp(rng, d - 1, fams, schemas, rels, cvars + [v]))
        v = f"Q{rng.randrange(4)}"
        tp = _gen_tp(rng, 1, 0, fams)
        cls = ForallTm if kind == 1 else ExistsTm
        return cls(v, tp, _gen_prp(rng, d - 1, fams, schemas, rels, cvars))
    if d > 0 and r < 0.6:
        cls = rng.choice((And, Or, Imp))
        return cls(
            _gen_prp(rng, d - 1, fams, schemas, rels, cvars),
            _gen_prp(rng, d - 1, fams, schemas, rels, cvars),
        )
    kind = rng.randrange(5)
    if kind == 0:
        return TrueP()
    if kind == 1:
        return FalseP()
    if kind == 2:
        return TermEq(_gen_term(rng, 2, 0), _gen_term(rng, 2, 0))
    if kind == 3 and rels:
        name = rng.choice(rels)
        return RelApp(name, tuple(_gen_ctx(rng, fams, cvars) for _ in range(rng.randint(0, 2))))
    args = tuple(_gen_term(rng, 1, 0) for _ in range(rng.randint(0, 2)))
    return Judgment(_gen_ctx(rng, fams, cvars), rng.choice(fams), args)


def gen_spec(rng: random.Random) -> OrbiSpec:
    """A random syntactically valid document exercising every section."""
    fams = [f"fam{i}" for i in range(rng.randint(1, 2))]
    schemas = [f"s{i}G" for i in range(rng.randint(0, 2))]
    rels = [f"Rel{i}" for i in range(rng.randint(0, 2))]
    items = []
    for f in fams:
        items.append(("Syntax", FamDecl(f, TYPE)))
    for i in range(rng.randint(0, 3)):
        items.append(("Syntax", ConstDecl(f"con{i}", _gen_tp(rng, 2, 0, fams))))
    for i in range(rng.randint(0, 2)):
        items.append(("Judgments", FamDecl(f"jdg{i}", _gen_kind(rng, fams))))
    for i in range(rng.randint(0, 2)):
        items.append(("Rules", ConstDecl(f"rul{i}", _gen_tp(rng, 3, 0, fams))))
    for s in schemas:
        alts = tuple(_gen_block(rng, fams) for _ in range(rng.randint(1, 2)))
        items.append(("Schemas", Schema(s, alts)))
    for name in rels:
        params = tuple(
            (f"g{k}", rng.choice(schemas) if schemas else "zzG")
            for k in range(rng.randint(1, 2))
        )
        cvars = [v for v, _ in params]
        clauses = []
        for k in range(rng.randint(1, 2)):
            head = RelApp(name, tuple(_gen_ctx(rng, fams, cvars) for _ in params))
            premise = RelApp(name, tuple(CtxPattern(v) for v in cvars))
            clauses.append((f"{name}_c{k}", (premise,) * rng.randint(0, 1), head))
        items.append(("Definitions", InductiveDef(name, params, tuple(clauses))))
    for i in range(rng.randint(0, 3)):
        what = rng.choice(("wf", "explicit", "implicit"))
        systems = tuple(
            s for s in ("hy", "ab", "bel", "tw") if rng.random() < 0.5
        ) or ("ab",)
        if rng.random() < 0.3:
            items.append(("Directives", Directive(what, systems, f"g{rng.randrange(3)}", True)))
        else:
            items.append(("Directives", Directive(what, systems, rng.choice(fams))))
    for i in range(rng.randint(0, 3)):
        stmt = _gen_prp(rng, 3, fams, schemas, rels, [])
        items.append(("Theorems", Theorem(f"thm{i}", stmt)))
    return OrbiSpec(tuple(items))


# ------------------------------------------ random well-typed corpus terms


def gen_tm_term(rng: random.Random, d: int, envd: int = 0):
    """Closed inferable term of type tm over the bundled corpus signature,
    with beta-redexes mixed in."""
    app_c, lam_c = Const("app"), Const("lam")
    if d == 0:
        if envd and rng.random() < 0.7:
            return Var(rng.randrange(envd))
        return App(lam_c, Lam("x", Var(0)))
    r = rng.random()
    if r < 0.35:
        return App(App(app_c, gen_tm_term(rng, d - 1, envd)), gen_tm_term(rng, d - 1, envd))
    if r < 0.6:
        return App(lam_c, Lam("x", gen_tm_term(rng, d - 1, envd + 1)))
    if r < 0.85:
        return App(Lam("y", gen_tm_term(rng, d - 1, envd + 1)), gen_tm_term(rng, d - 1, envd))
    if envd:
        return Var(rng.randrange(envd))
    return App(lam_c, Lam("x", Var(0)))


# ------------------------- random schemas and relations under directives

_CTX_HEADER = """%% Syntax
tm: type.
tp: type.
c: tm.
app: tm -> tm -> tm.
lam: (tm -> tm) -> tm.
o: tp.

%% Judgments
aeq: tm -> tm -> type.
oft: tm -> tp -> type.
is_val: tm -> type.
"""

# rules with premise binders (one vacuous), a higher-order premise variable
# and a user judgment whose name starts like a guard's
_CTX_RULES = (
    "ae_l: ({x:tm} aeq x x -> aeq (M x) (N x)) -> aeq (lam (\\x. M x)) (lam (\\x. N x)).",
    "ae_v: ({x:tm} aeq c c) -> aeq c c.",
    "ae_i: is_val M -> aeq M M.",
    "ae_f: ({f:tm -> tm} aeq (f c) (f c)) -> aeq c c.",
    "of_a: oft M A -> oft N A -> oft (app M N) A.",
)

# block bodies over entry labels x (tm) and a (tp)
_CTX_BLOCKS = (
    "{x}:tm",
    "{x}:tm, u:aeq {x} {x}",
    "{x}:tm, u:is_val {x}",
    "{x}:tm, {a}:tp, u:oft {x} {a}",
    "{a}:tp, {x}:tm, u:oft {x} {a}, v:aeq {x} {x}",
)


def gen_ctx_source(rng: random.Random) -> str:
    """A spec with 1-3 schemas and 1-3 context relations over them, a few
    rules, and random ``wf``/``explicit``/``implicit`` directives for ab and
    hy.  Relation clauses mix nil clauses, clauses whose heads have no
    blocks, premise-only context variables, and blocks whose labels are
    shared between the two contexts or distinct within one; it always
    checks."""

    def block(body):
        x, a = rng.choice("xyz"), rng.choice("ab")
        return f"block ({body.format(x=x, a=a)})"

    schemas = {}
    for i in range(rng.randint(1, 3)):
        # the bare block erases to nothing unless explicit: keep it rare
        alts = rng.sample(_CTX_BLOCKS[1:], rng.randint(1, 2))
        schemas[f"s{i}G"] = alts + [_CTX_BLOCKS[0]] * (rng.random() < 0.15)
    rules = [r for r in _CTX_RULES if rng.random() < 0.6]
    lines = [_CTX_HEADER, "%% Rules", *rules, "", "%% Schemas"]
    lines += [f"schema {s} = " + " + ".join(map(block, alts)) + ";" for s, alts in schemas.items()]
    lines += ["", "%% Definitions"]
    dests = ["tm", "tp", *schemas, "[g]", *(r.split(":")[0] for r in rules)]
    for i in range(rng.randint(1, 3)):
        name = f"R{i}"
        ps = [(v, rng.choice(list(schemas))) for v in ("g", "h")[: rng.randint(1, 2)]]
        if len(ps) == 2 and "[h]" not in dests:
            dests.append("[h]")
        lines.append(f"inductive {name} : {' '.join(f'{{{v}:{s}}}' for v, s in ps)} prop =")
        clauses = [f"{name}_nl: {name}{' []' * len(ps)}"]
        for k in range(rng.randint(1, 3)):
            heads = []
            for v, s in ps:
                r = rng.random()
                if r < 0.2:
                    heads.append("[]")
                elif r < 0.35:
                    heads.append(f"[{v}]")
                else:
                    labels = rng.sample(("b", "b1", "b2"), rng.randint(1, 2))
                    blocks = [f"{b}:{block(rng.choice(schemas[s]))}" for b in labels]
                    heads.append(f"[{', '.join([v, *blocks])}]")
            premise = f"{name} {' '.join(f'[{v}]' for v, _ in ps)}"
            clauses.append(f"{name}_c{k}: {premise} -> {name} {' '.join(heads)}")
        lines += [f"| {c}" for c in clauses]
        lines[-1] += ";"
    lines += ["", "%% Directives"]
    for dest in rng.sample(dests, rng.randint(0, len(dests))):
        what = "wf" if dest in ("tm", "tp") else rng.choice(("explicit", "explicit", "implicit"))
        systems = rng.choice(("ab", "hy", "hy,ab"))
        lines.append(f"%% {what} [{systems}] in {dest}")
    return "\n".join(lines) + "\n"
