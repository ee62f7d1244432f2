"""Checking of schemas, context patterns, context relations, and theorems.

Every context is checked against its schema by ``check_ctx_pattern``, each
block by ``check_block``.  Theorem statements get scope and arity checking
only; no meaning is assigned to a judgment-in-context, so its terms are
never typed against the context.
"""

from __future__ import annotations

from orbi_forge import directives
from orbi_forge.errors import Diagnostic, OrbiError
from orbi_forge.lf import (
    Signature,
    check_signature,
    check_tp,
    families_in_tp,
    normalize,
)
from orbi_forge.syntax import (
    And,
    Block,
    Const,
    CtxPattern,
    ExistsTm,
    FamDecl,
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
)

# ----------------------------------------------------------------- schemas


def check_block(sig: Signature, block: Block, owner: str) -> Block:
    """Check that ``block``'s labels are distinct and its entries a telescope
    of erasures; returns it with βη-normal entry types, so blocks match
    modulo βη.  ``owner`` names the block in a message."""
    labels: dict[str, None] = {}  # a set, with no call per label
    telescope = []
    for label, tp in block.entries:
        if label in labels:
            raise OrbiError("E-DUP", f"duplicate label {label!r} in {owner}")
        labels[label] = None
        telescope.append(check_tp(sig, telescope, tp))
    return Block(tuple([(label, normalize(tp)) for label, tp in block.entries]))


def check_schema(sig: Signature, s: Schema) -> Schema:
    owner = f"a block of schema {s.name!r}"
    return Schema(s.name, tuple([check_block(sig, b, owner) for b in s.alternatives]), s.loc)


def check_ctx_pattern(
    sig: Signature, schemas: dict, schema: str | None, c: CtxPattern, ctx_vars: dict, owner: str
) -> None:
    """Check ``c`` at the schema named ``schema``: its variable is declared in
    ``ctx_vars`` (variable -> schema, None where unknown) at it, its block
    labels are distinct, and each block passes ``check_block`` and is one of
    its alternatives modulo βη, unless ``schema`` is None (a theorem context
    with no variable).  ``owner`` names the clause or theorem."""
    if c.var is not None:
        if c.var not in ctx_vars:
            raise OrbiError("E-CTXVAR", f"context variable {c.var!r} is not declared")
        declared = ctx_vars[c.var]
        if declared != schema and declared is not None:
            raise OrbiError(
                "E-SCHEMA",
                f"context variable {c.var!r} has schema {declared!r} but {schema!r} is expected",
            )
    labels: dict[str, None] = {}
    for label, block in c.blocks:
        if label in labels:
            raise OrbiError("E-DUP", f"block label {label!r} used twice in one context of {owner}")
        labels[label] = None
        # Block == compares entry types only, so labels rename freely
        normal = check_block(sig, block, f"block {label!r} of {owner}")
        if schema is not None and normal not in schemas[schema].alternatives:
            raise OrbiError("E-SCHEMA", f"block {label!r} matches no alternative of schema {schema!r}")


# --------------------------------------------------------------- relations


def check_inductive_def(
    sig: Signature, schemas: dict, relations: dict, d: InductiveDef
) -> InductiveDef:
    seen = set()
    for var, schema in d.params:
        if var in seen:
            raise OrbiError("E-DUP", f"duplicate context parameter {var!r}")
        seen.add(var)
        if schema not in schemas:
            raise OrbiError("E-NO-SCHEMA", f"unknown schema {schema!r}")

    for cname, premises, head in d.clauses:
        if head.name != d.name:
            raise OrbiError(
                "E-SHAPE", f"clause {cname!r} must conclude with the relation being defined"
            )
        ctx_vars: dict[str, str] = {}
        for prem in premises:
            rel = d if prem.name == d.name else relations.get(prem.name)
            if rel is None:
                raise OrbiError("E-NO-RELATION", f"unknown relation {prem.name!r}")
            if len(prem.ctxs) != len(rel.params):
                raise OrbiError(
                    "E-ARITY",
                    f"relation {prem.name!r} expects {len(rel.params)} context "
                    f"arguments, got {len(prem.ctxs)}",
                )
            for (_, expected), arg in zip(rel.params, prem.ctxs):
                if arg.var is None or arg.blocks:
                    raise OrbiError(
                        "E-SHAPE",
                        f"premise context arguments of clause {cname!r} must be bare "
                        "context variables",
                    )
                declared = ctx_vars.setdefault(arg.var, expected)
                if declared != expected:
                    raise OrbiError(
                        "E-SCHEMA",
                        f"context variable {arg.var!r} used at schemas "
                        f"{declared!r} and {expected!r}",
                    )
        if len(head.ctxs) != len(d.params):
            raise OrbiError(
                "E-ARITY",
                f"relation {d.name!r} expects {len(d.params)} context arguments, "
                f"got {len(head.ctxs)}",
            )
        for (_, schema), arg in zip(d.params, head.ctxs):
            check_ctx_pattern(sig, schemas, schema, arg, ctx_vars, f"clause {cname!r}")
    return d


# ---------------------------------------------------------------- theorems


def scope_check_theorem(sig: Signature, schemas: dict, relations: dict, t: Theorem) -> list[str]:
    """Scope- and arity-check ``t``; returns the names its term quantifiers bind."""
    diags: list[Diagnostic] = []
    bound: list[str] = []
    seen: set[tuple[str, str]] = set()
    owner = f"theorem {t.name!r}"
    # the context variables bound around the formula being visited, each to
    # its schema (None where unknown), and the term variables, each to True
    ctx_scope: dict = {}
    term_scope: dict = {}

    def report(code: str, message: str) -> None:
        key = (code, message)
        if key not in seen:
            seen.add(key)
            diags.append(Diagnostic(code, message, t.loc))

    def scope_ctx(c: CtxPattern, schema: str | None = None) -> None:
        # at ``schema``, or else at its variable's own: only a block or
        # another schema leaves more to check than the binding
        if c.var is not None and c.var not in ctx_scope:
            report("E-UNBOUND", f"context variable {c.var!r} is not bound by a quantifier")
            c = CtxPattern(None, c.blocks)  # its blocks are checked all the same
        var = c.var
        if c.blocks or schema is not None and var is not None and ctx_scope[var] != schema:
            try:
                check_ctx_pattern(sig, schemas, schema or ctx_scope.get(var), c, ctx_scope, owner)
            except OrbiError as e:
                report(e.code, e.message)

    def enter(scope: dict, name: str, value, body: Prp) -> None:
        # the body is visited next, then (scope, name, the value it shadows or ...)
        stack.append((scope, name, scope.get(name, ...)))
        scope[name] = value
        stack.append(body)

    # formulas and terms still to visit, in left-to-right pre-order: the last
    # one pushed is visited first
    stack: list = [t.statement]
    while stack:
        p = stack.pop()
        k = type(p)
        if k is tuple:  # leaving the body of a quantifier
            scope, name, shadowed = p
            if shadowed is ...:
                del scope[name]
            else:
                scope[name] = shadowed
        elif k is ForallCtx:
            if p.schema not in schemas:
                report("E-NO-SCHEMA", f"unknown schema {p.schema!r}")
            enter(ctx_scope, p.var, p.schema if p.schema in schemas else None, p.body)
        elif k is ForallTm or k is ExistsTm:
            bad_level = False
            for fam in families_in_tp(p.tp):
                entry = sig.entries.get(fam)
                if entry is None:
                    report("E-UNBOUND", f"unknown type family {fam!r}")
                    bad_level = True
                elif entry.level != 0:
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
            enter(term_scope, p.var, True, p.body)
        elif k is Judgment:
            scope_ctx(p.ctx)
            entry = sig.entries.get(p.family)
            if entry is None or type(entry.decl) is not FamDecl:
                report("E-UNBOUND", f"unknown judgment {p.family!r}")
            else:
                if entry.level != 1:
                    report("E-LEVEL", f"judgment head {p.family!r} is not a level-1 family")
                want, k = 0, entry.simple  # the erasure of its kind
                while k.dom is not None:
                    want, k = want + 1, k.cod
                if len(p.args) != want:
                    report(
                        "E-ARITY",
                        f"judgment {p.family!r} expects {want} arguments, got {len(p.args)}",
                    )
            stack += p.args[::-1]
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
                rel = None
            for i, c in enumerate(p.ctxs):  # at its parameter's schema, if known
                scope_ctx(c, rel.params[i][1] if rel is not None else None)
        elif k is And or k is Or or k is Imp or k is TermEq:
            stack.append(p.rhs)
            stack.append(p.lhs)
        elif k is Const:  # the parser binds every Var, so only a constant can be unbound
            if p.name not in term_scope and p.name not in sig.entries:
                report("E-UNBOUND", f"unbound term variable {p.name!r}")
        elif k is Lam:
            stack.append(p.body)
        elif k is App:
            stack.append(p.arg)
            stack.append(p.fn)

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
    schemas: dict = {}
    for s in spec.schemas:
        try:
            if s.name in schemas or s.name in sig.entries:
                raise OrbiError("E-DUP", f"duplicate declaration of {s.name!r}")
            schemas[s.name] = check_schema(sig, s)
        except OrbiError as e:
            raise e.at(s.loc)
    relations: dict = {}
    for d in spec.definitions:
        try:
            if d.name in relations or d.name in sig.entries or d.name in schemas:
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
