"""Resolution of annotation directives into per-target tables.

A directive's destination is looked up across the document's namespaces
(family, rule, schema, relation parameter, theorem variable); a bare name
that resolves in more than one of them is an error rather than a silent
priority pick.  A wf directive whose predicate name (``wf_name``) is
already declared is rejected, so a generated predicate never merges with a
user one.  The defaults with no directives at all: no well-formedness
predicates, everything implicit.
"""

from __future__ import annotations

from types import MappingProxyType

from orbi_forge.errors import OrbiError
from orbi_forge.syntax import ExistsTm, ForallCtx, ForallTm, Record


class AnnotationTable(Record):
    __slots__ = (
        "target",
        "wf_families",
        "explicit_rules",
        "explicit_schemas",
        "explicit_relation_params",  # relation -> explicit parameters
        "explicit_theorem_vars",  # theorem -> explicit variables
    )
    _defaults = (frozenset(),) * 3 + (MappingProxyType({}),) * 2


def wf_name(family: str) -> str:
    """Name of the generated well-formedness predicate of ``family``."""
    return f"is_{family}"


# namespace of a directive destination -> its name in a conflict message
_KINDS = {"rule": "rule", "schema": "schema", "rel": "relation parameter", "thm": "theorem variable"}


def _theorem_term_vars(thm):
    out = []
    stack = [thm.statement]
    while stack:
        node = stack.pop()
        if isinstance(node, (ForallTm, ExistsTm)):
            out.append(node.var)
            stack.append(node.body)
        elif isinstance(node, ForallCtx):
            stack.append(node.body)
        elif hasattr(node, "lhs"):
            stack.append(node.lhs)
            stack.append(node.rhs)
    return out


def resolve(checked, target: str) -> AnnotationTable:
    """Annotation table for one target system; order-independent."""
    sig = checked.sig
    # variable name -> {(owner, name)} for relation parameters and theorem
    # variables, so each directive is one lookup per namespace
    rel_owners: dict[str, set] = {}
    for name, rel in checked.relations.items():
        for v, _ in rel.params:
            rel_owners.setdefault(v, set()).add((name, v))
    thm_owners: dict[str, set] = {}
    for t in checked.theorems:
        for v in _theorem_term_vars(t):
            thm_owners.setdefault(v, set()).add((t.name, v))

    wf: set[str] = set()
    marks = {what: {kind: set() for kind in _KINDS} for what in ("explicit", "implicit")}
    # (kind, item) -> location of the directive that first marks it both ways
    clash_at: dict = {}
    # a repeated directive marks the same items again, and those marks are
    # sets: each distinct one is applied once
    applied: set = set()
    for d in checked.spec.directives:
        key = (d.what, d.dest, d.dest_is_ctx)
        if target not in d.systems or key in applied:
            continue
        applied.add(key)
        if d.what == "wf":
            if d.dest_is_ctx or not sig.is_family(d.dest):
                raise OrbiError(
                    "E-DEST", f"wf destination {d.dest!r} is not a declared type family", d.loc
                )
            if sig.level(d.dest) != 0:
                raise OrbiError(
                    "E-LEVEL", f"wf predicate requested for non-level-0 family {d.dest!r}", d.loc
                )
            pred = wf_name(d.dest)
            if pred in sig or pred in checked.schemas or pred in checked.relations:
                raise OrbiError(
                    "E-DUP",
                    f"wf predicate {pred!r} of family {d.dest!r} clashes with a declared name",
                    d.loc,
                )
            wf.add(d.dest)
            continue
        if d.dest_is_ctx:
            kind, items = "rel", rel_owners.get(d.dest)
            if not items:
                raise OrbiError(
                    "E-DEST", f"no relation has a context parameter named {d.dest!r}", d.loc
                )
        else:
            found = []  # (namespace, items) of each namespace the name resolves in
            entry = sig.get(d.dest)
            if entry is not None and entry.section == "Rules":
                found.append(("rule", (d.dest,)))
            if d.dest in checked.schemas:
                found.append(("schema", (d.dest,)))
            if d.dest in rel_owners:
                found.append(("rel", rel_owners[d.dest]))
            if d.dest in thm_owners:
                found.append(("thm", thm_owners[d.dest]))
            if not found:
                raise OrbiError("E-DEST", f"unknown directive destination {d.dest!r}", d.loc)
            if len(found) > 1:
                raise OrbiError(
                    "E-AMBIG",
                    f"directive destination {d.dest!r} is ambiguous "
                    f"({' and '.join(ns for ns, _ in found)})",
                    d.loc,
                )
            ((kind, items),) = found
        other = marks["implicit" if d.what == "explicit" else "explicit"][kind]
        for x in items:
            if x in other:
                clash_at.setdefault((kind, x), d.loc)
        marks[d.what][kind].update(items)

    if clash_at:
        kind, shown = min(clash_at, key=lambda k: (tuple(_KINDS).index(k[0]), str(k[1])))
        raise OrbiError(
            "E-CONFLICT",
            f"{_KINDS[kind]} {shown} is marked both explicit and implicit for {target!r}",
            clash_at[kind, shown],
        )
    return AnnotationTable(
        target,
        frozenset(wf),
        frozenset(marks["explicit"]["rule"]),
        frozenset(marks["explicit"]["schema"]),
        _by_owner(marks["explicit"]["rel"]),
        _by_owner(marks["explicit"]["thm"]),
    )


def _by_owner(pairs) -> dict:
    out: dict[str, set] = {}
    for owner, var in pairs:
        out.setdefault(owner, set()).add(var)
    return {k: frozenset(v) for k, v in out.items()}
