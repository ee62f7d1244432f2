"""Style guideline checks (L1-L4), all warning-severity.

Translation never depends on these; they exist to keep specifications
portable across the target systems.
"""

from __future__ import annotations

from orbi_forge.contexts import CheckedSpec
from orbi_forge.errors import Diagnostic
from orbi_forge.lf import is_level0
from orbi_forge.pretty import telescope_names, tp_str
from orbi_forge.syntax import (
    And,
    App,
    AtomApp,
    ConstDecl,
    CtxPattern,
    ExistsTm,
    ForallCtx,
    ForallTm,
    Imp,
    Judgment,
    Lam,
    Or,
    Pi,
    RelApp,
    TermEq,
    chain,
    last_uses,
)


def _scope_names(scope) -> list[str]:
    """The names fmt gives the binders over a domain: ``scope`` is None, or the
    scope of the domain's chain, its first product or None, and how many of
    its products are over the domain."""
    if scope is None:
        return []
    outer, first, n = scope
    env = _scope_names(outer)
    return env if first is None else env + telescope_names(*chain(first), env)[:n]


def lint(checked: CheckedSpec) -> list[Diagnostic]:
    spec = checked.spec
    sig = checked.sig
    diags: list[Diagnostic] = []

    def warn(code, message, loc, hint=""):
        diags.append(Diagnostic(code, message, loc, "warning", hint))

    def walk_terms(t, loc):
        # visits the lambdas of ``t`` left to right; a Var or Const leaf,
        # which holds none, is never entered
        while True:
            k = type(t)
            if k is Lam:
                if t.hint[0].isupper():
                    warn(
                        "L1",
                        f"eigenvariable {t.hint!r} should be lowercase",
                        loc,
                        f"rename {t.hint!r} to {t.hint[0].lower() + t.hint[1:]!r}",
                    )
                t = t.body
            elif k is App:
                k = type(t.fn)
                if k is Lam or k is App:
                    walk_terms(t.fn, loc)
                t = t.arg
            else:
                return

    def walk_tp(tp, loc, in_rule: bool, scope=None, kind: bool = False):
        # a type, or with ``kind`` a family's kind: a product's warnings,
        # then its domain, then its codomain, in a loop along the codomains.
        # A binder is vacuous (L3) when nothing under it mentions it: one
        # last_uses pass over the chain from its first product.  ``scope``
        # places ``tp`` in the chains around it, for _scope_names
        first, i = None, 0  # the chain's first product, and its products so far
        while True:
            k = type(tp)
            if k is AtomApp:
                for a in tp.args:
                    k = type(a)
                    if k is Lam or k is App:
                        walk_terms(a, loc)
                return
            over = (scope, first, i)  # the binders over ``tp.dom``
            if k is Pi:
                if in_rule and tp.hint and tp.hint[0].isupper():
                    warn(
                        "L1",
                        f"eigenvariable {tp.hint!r} should be lowercase",
                        loc,
                        f"rename {tp.hint!r} to {tp.hint[0].lower() + tp.hint[1:]!r}",
                    )
                if in_rule and not is_level0(sig, tp.dom):
                    dom = tp_str(tp.dom, _scope_names(over))
                    warn(
                        "L2",
                        f"quantification over the non-level-0 type '{dom}'",
                        loc,
                        "quantify only over syntax-level (level-0) types",
                    )
                if first is None:
                    first, last = tp, last_uses(chain(tp)[1])
                if i not in last:
                    body, form = ("kind body", "A -> K") if kind else ("body", "A -> B")
                    warn(
                        "L3",
                        f"Pi-bound variable {tp.hint!r} does not occur in the {body}",
                        loc,
                        f"write the non-dependent product as '{form}'",
                    )
                i += 1
            walk_tp(tp.dom, loc, in_rule, over)
            tp = tp.cod

    def check_ctx_labels(c: CtxPattern, loc):
        seen: dict[str, str] = {}
        for blabel, block in c.blocks:
            for label, _ in block.entries:
                if label in seen:
                    warn(
                        "L4",
                        f"variable name {label!r} reused across blocks of one context",
                        loc,
                        "use distinct names across the blocks of one context",
                    )
                else:
                    seen[label] = blabel

    def check_ctx_var(name, loc):
        if name[0].isupper():
            warn(
                "L1",
                f"context variable {name!r} should be lowercase",
                loc,
                f"rename {name!r} to {name[0].lower() + name[1:]!r}",
            )

    # declarations
    for section, decl in spec.decls_in_order():
        if type(decl) is ConstDecl:
            walk_tp(decl.tp, decl.loc, in_rule=(section == "Rules"))
        else:
            walk_tp(decl.kind, decl.loc, False, kind=True)
    for entry in sig.rules():
        for name in entry.implicit:
            if name[0].islower():
                warn(
                    "L1",
                    f"schematic variable {name!r} should be uppercase",
                    entry.decl.loc,
                    f"rename {name!r} to {name[0].upper() + name[1:]!r}",
                )

    # schemas
    for s in spec.schemas:
        for block in s.alternatives:
            for _, tp in block.entries:
                walk_tp(tp, s.loc, False)

    # definitions
    for d in spec.definitions:
        for v, _ in d.params:
            check_ctx_var(v, d.loc)
        for _, premises, head in d.clauses:
            # the head first, then the premises from last to first
            for rel in (head, *premises[::-1]):
                for c in rel.ctxs:
                    if c.var is not None:
                        check_ctx_var(c.var, d.loc)
                    check_ctx_labels(c, d.loc)

    # theorems
    for t in checked.theorems:
        stack = [t.statement]
        while stack:
            node = stack.pop()
            k = type(node)
            if k is ForallCtx:
                check_ctx_var(node.var, t.loc)
                stack.append(node.body)
            elif k is ForallTm or k is ExistsTm:
                walk_tp(node.tp, t.loc, False)
                stack.append(node.body)
            elif k is And or k is Or or k is Imp:
                stack += [node.lhs, node.rhs]
            elif k is Judgment:
                check_ctx_labels(node.ctx, t.loc)
                for a in node.args:
                    walk_terms(a, t.loc)
            elif k is RelApp:
                for c in node.ctxs:
                    check_ctx_labels(c, t.loc)
            elif k is TermEq:
                walk_terms(node.lhs, t.loc)
                walk_terms(node.rhs, t.loc)

    diags.sort(key=lambda d: (d.loc.line, d.loc.col, d.code))
    return diags
