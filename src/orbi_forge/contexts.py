"""Checking of schemas, context patterns, context relations, and theorems.

Theorem statements get scope and arity checking only; no meaning is assigned
to a judgment-in-context, so its terms are never typed against the context.
"""

from __future__ import annotations

from orbi_forge import directives
from orbi_forge.errors import Diagnostic, OrbiError
from orbi_forge.lf import (
    Signature,
    check_signature,
    check_tp,
    families_in_tp,
    kind_domains,
    normalize,
)
from orbi_forge.syntax import (
    And,
    Block,
    Const,
    CtxPattern,
    CtxVar,
    EmptyCtx,
    ExistsTm,
    ForallCtx,
    ForallTm,
    Imp,
    InductiveDef,
    Judgment,
    Lam,
    App,
    Or,
    OrbiSpec,
    Prp,
    Record,
    RelApp,
    SYSTEMS,
    Schema,
    TermEq,
    Theorem,
    Var,
    ctx_blocks,
    ctx_head_var,
)

SchemaTable = dict
RelationTable = dict


# ----------------------------------------------------------------- schemas


def check_schema(sig: Signature, s: Schema) -> Schema:
    """Check each block of ``s`` as a telescope; the returned schema holds
    the beta-normal entry types."""
    alternatives = []
    for block in s.alternatives:
        labels: dict[str, None] = {}  # in order, with a constant-time lookup
        telescope = []
        for label, tp in block.entries:
            if label in labels:
                raise OrbiError(
                    "E-DUP", f"duplicate label {label!r} in a block of schema {s.name!r}"
                )
            labels[label] = None
            check_tp(sig, telescope, tp)
            telescope.append(normalize(tp))
        alternatives.append(Block(tuple(zip(labels, telescope))))
    return Schema(s.name, tuple(alternatives), s.loc)


def check_ctx_pattern(
    sig: Signature,
    schemas: SchemaTable,
    expected_schema: str,
    c: CtxPattern,
    ctx_vars: dict[str, str] | None = None,
) -> CtxPattern:
    ctx_vars = ctx_vars or {}
    schema = schemas.get(expected_schema)
    if schema is None:
        raise OrbiError("E-NO-SCHEMA", f"unknown schema {expected_schema!r}")
    if isinstance(c, EmptyCtx):
        return c
    if isinstance(c, CtxVar):
        declared = ctx_vars.get(c.name)
        if declared is None:
            raise OrbiError("E-CTXVAR", f"context variable {c.name!r} is not declared")
        if declared != expected_schema:
            raise OrbiError(
                "E-SCHEMA",
                f"context variable {c.name!r} has schema {declared!r} "
                f"but {expected_schema!r} is expected",
            )
        return c
    check_ctx_pattern(sig, schemas, expected_schema, c.prefix, ctx_vars)
    telescope = []
    for _, tp in c.block.entries:
        check_tp(sig, telescope, tp)
        telescope.append(normalize(tp))
    labels = [label for label, _ in c.block.entries]
    # Block == compares entry types only, so labels rename freely
    if Block(tuple(zip(labels, telescope))) not in schema.alternatives:
        raise OrbiError(
            "E-SCHEMA", f"block {c.label!r} matches no alternative of schema {expected_schema!r}"
        )
    return c


# --------------------------------------------------------------- relations


def _clause_parts(prp: Prp):
    premises = []
    while isinstance(prp, Imp):
        premises.append(prp.lhs)
        prp = prp.rhs
    return premises, prp


def check_inductive_def(
    sig: Signature,
    schemas: SchemaTable,
    relations: RelationTable,
    d: InductiveDef,
) -> InductiveDef:
    seen = set()
    for var, schema in d.params:
        if var in seen:
            raise OrbiError("E-DUP", f"duplicate context parameter {var!r}")
        seen.add(var)
        if schema not in schemas:
            raise OrbiError("E-NO-SCHEMA", f"unknown schema {schema!r}")

    def arity_of(name: str) -> int:
        if name == d.name:
            return len(d.params)
        rel = relations.get(name)
        if rel is None:
            raise OrbiError("E-NO-RELATION", f"unknown relation {name!r}")
        return len(rel.params)

    def param_schema(name: str, i: int) -> str:
        if name == d.name:
            return d.params[i][1]
        return relations[name].params[i][1]

    for cname, prp in d.clauses:
        premises, head = _clause_parts(prp)
        if not isinstance(head, RelApp) or head.name != d.name:
            raise OrbiError(
                "E-SHAPE", f"clause {cname!r} must conclude with the relation being defined"
            )
        ctx_vars: dict[str, str] = {}
        for prem in premises:
            if not isinstance(prem, RelApp):
                raise OrbiError(
                    "E-SHAPE", f"premise of clause {cname!r} must be a relation application"
                )
            if len(prem.ctxs) != arity_of(prem.name):
                raise OrbiError(
                    "E-ARITY",
                    f"relation {prem.name!r} expects {arity_of(prem.name)} context "
                    f"arguments, got {len(prem.ctxs)}",
                )
            for i, arg in enumerate(prem.ctxs):
                if not isinstance(arg, CtxVar):
                    raise OrbiError(
                        "E-SHAPE",
                        f"premise context arguments of clause {cname!r} must be bare "
                        "context variables",
                    )
                expected = param_schema(prem.name, i)
                declared = ctx_vars.setdefault(arg.name, expected)
                if declared != expected:
                    raise OrbiError(
                        "E-SCHEMA",
                        f"context variable {arg.name!r} used at schemas "
                        f"{declared!r} and {expected!r}",
                    )
        if len(head.ctxs) != len(d.params):
            raise OrbiError(
                "E-ARITY",
                f"relation {d.name!r} expects {len(d.params)} context arguments, "
                f"got {len(head.ctxs)}",
            )
        for (_, schema_name), arg in zip(d.params, head.ctxs):
            labels = set()
            for label, _ in ctx_blocks(arg):
                if label in labels:
                    raise OrbiError(
                        "E-DUP",
                        f"block label {label!r} used twice in one context of clause {cname!r}",
                    )
                labels.add(label)
            check_ctx_pattern(sig, schemas, schema_name, arg, ctx_vars)
    return d


# ---------------------------------------------------------------- theorems


def scope_check_theorem(
    sig: Signature,
    schemas: SchemaTable,
    relations: RelationTable,
    t: Theorem,
) -> list[str]:
    """Scope- and arity-check ``t``; returns the names its term quantifiers bind."""
    diags: list[Diagnostic] = []
    bound: list[str] = []
    seen: set[tuple[str, str]] = set()

    def report(code: str, message: str) -> None:
        key = (code, message)
        if key not in seen:
            seen.add(key)
            diags.append(Diagnostic(code, message, t.loc))

    def scope_term(term, depth: int, term_env: dict) -> None:
        if isinstance(term, Var):
            if term.index >= depth:
                report("E-UNBOUND", f"unbound variable index {term.index}")
        elif isinstance(term, Const):
            if term.name not in term_env and term.name not in sig:
                report("E-UNBOUND", f"unbound term variable {term.name!r}")
        elif isinstance(term, Lam):
            scope_term(term.body, depth + 1, term_env)
        elif isinstance(term, App):
            scope_term(term.fn, depth, term_env)
            scope_term(term.arg, depth, term_env)

    def scope_ctx(c: CtxPattern, ctx_env: dict) -> None:
        head = ctx_head_var(c)
        if head is not None and head not in ctx_env:
            report("E-UNBOUND", f"context variable {head!r} is not bound by a quantifier")
        for _, block in ctx_blocks(c):
            telescope = []
            for _, tp in block.entries:
                try:
                    check_tp(sig, telescope, tp)
                    tp = normalize(tp)
                except OrbiError as e:
                    # an ill-typed entry may have no normal form
                    report(e.code, e.message)
                telescope.append(tp)

    # (formula, context variables, term variables) still to visit, in
    # left-to-right pre-order: the last one pushed is visited first
    stack: list = [(t.statement, {}, {})]
    while stack:
        p, ctx_env, term_env = stack.pop()
        k = type(p)
        if k is ForallCtx:
            if p.schema not in schemas:
                report("E-NO-SCHEMA", f"unknown schema {p.schema!r}")
            stack.append((p.body, {**ctx_env, p.var: p.schema}, term_env))
        elif k is ForallTm or k is ExistsTm:
            bad_level = False
            for fam in families_in_tp(p.tp):
                lvl = sig.level(fam)
                if lvl is None:
                    report("E-UNBOUND", f"unknown type family {fam!r}")
                    bad_level = True
                elif lvl != 0:
                    report(
                        "E-LEVEL",
                        f"theorem quantifier {p.var!r} must range over a level-0 "
                        f"type, not {fam!r}",
                    )
                    bad_level = True
            if not bad_level:
                try:
                    check_tp(sig, [], p.tp)
                except OrbiError as e:
                    report(e.code, e.message)
            bound.append(p.var)
            stack.append((p.body, ctx_env, {**term_env, p.var: p.tp}))
        elif k is Judgment:
            scope_ctx(p.ctx, ctx_env)
            if p.family not in sig or not sig.is_family(p.family):
                report("E-UNBOUND", f"unknown judgment {p.family!r}")
            else:
                if sig.level(p.family) != 1:
                    report("E-LEVEL", f"judgment head {p.family!r} is not a level-1 family")
                want = len(kind_domains(sig.family_kind(p.family)))
                if len(p.args) != want:
                    report(
                        "E-ARITY",
                        f"judgment {p.family!r} expects {want} arguments, got {len(p.args)}",
                    )
            for a in p.args:
                scope_term(a, 0, term_env)
        elif k is RelApp:
            rel = relations.get(p.name)
            if rel is None:
                report("E-NO-RELATION", f"unknown relation {p.name!r}")
            elif len(p.ctxs) != len(rel.params):
                report(
                    "E-ARITY",
                    f"relation {p.name!r} expects {len(rel.params)} context "
                    f"arguments, got {len(p.ctxs)}",
                )
            for c in p.ctxs:
                scope_ctx(c, ctx_env)
        elif k is TermEq:
            scope_term(p.lhs, 0, term_env)
            scope_term(p.rhs, 0, term_env)
        elif k is And or k is Or or k is Imp:
            stack.append((p.rhs, ctx_env, term_env))
            stack.append((p.lhs, ctx_env, term_env))

    if diags:
        raise OrbiError.of(diags)
    return bound


# ------------------------------------------------------------ the pipeline


class CheckedSpec(Record):
    # directive_index: each distinct directive's verdict (directives.index_directives)
    __slots__ = ("spec", "sig", "schemas", "relations", "theorems", "directive_index")
    _hidden = ("directive_index",)


def check_spec(spec: OrbiSpec) -> CheckedSpec:
    """Run the full checking pipeline over a parsed document, including the
    directive tables of every target system.  An error raised without a
    location is placed at the declaration being checked."""
    sig = check_signature(spec)
    schemas: SchemaTable = {}
    for s in spec.schemas:
        try:
            if s.name in schemas or s.name in sig:
                raise OrbiError("E-DUP", f"duplicate declaration of {s.name!r}")
            schemas[s.name] = check_schema(sig, s)
        except OrbiError as e:
            raise e.at(s.loc)
    relations: RelationTable = {}
    for d in spec.definitions:
        try:
            if d.name in relations or d.name in sig or d.name in schemas:
                raise OrbiError("E-DUP", f"duplicate declaration of {d.name!r}")
            relations[d.name] = check_inductive_def(sig, schemas, relations, d)
        except OrbiError as e:
            raise e.at(d.loc)
    thm_vars: dict[str, list] = {}  # theorem -> the names its term quantifiers bind
    for t in spec.theorems:
        if t.name in thm_vars:
            raise OrbiError("E-DUP", f"duplicate theorem {t.name!r}", t.loc)
        thm_vars[t.name] = scope_check_theorem(sig, schemas, relations, t)
    index = {}
    if spec.directives:
        index = directives.index_directives(spec, sig, schemas, relations, thm_vars)
    checked = CheckedSpec(spec, sig, schemas, relations, spec.theorems, index)
    for target in SYSTEMS:
        directives.resolve(checked, target)
    return checked
