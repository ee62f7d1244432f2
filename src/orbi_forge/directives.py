"""Resolution of annotation directives into per-target tables.

A directive's destination is looked up across the document's namespaces
(family, rule, schema, relation parameter, theorem variable); a bare name
that resolves in more than one of them is an error rather than a silent
priority pick.  The defaults with no directives at all: no well-formedness
predicates, everything implicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from orbi_forge.errors import (
    AmbiguousDestError,
    ConflictingDirectivesError,
    LevelError,
    UnknownDestError,
)
from orbi_forge.syntax import ExistsTm, ForallCtx, ForallTm


@dataclass(frozen=True)
class AnnotationTable:
    target: str
    wf_families: frozenset = frozenset()
    explicit_rules: frozenset = frozenset()
    explicit_schemas: frozenset = frozenset()
    explicit_relation_params: dict = field(default_factory=dict)
    explicit_theorem_vars: dict = field(default_factory=dict)


def _theorem_term_vars(thm):
    out = []
    p = thm.statement
    stack = [p]
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
    marks: dict[str, dict] = {
        "explicit": {"rule": set(), "schema": set(), "rel": set(), "thm": set()},
        "implicit": {"rule": set(), "schema": set(), "rel": set(), "thm": set()},
    }

    for d in checked.spec.directives:
        if target not in d.systems:
            continue
        if d.what == "wf":
            if d.dest_is_ctx or not sig.is_family(d.dest):
                raise UnknownDestError(
                    f"wf destination {d.dest!r} is not a declared type family", d.loc
                )
            if sig.level(d.dest) != 0:
                raise LevelError(
                    f"wf predicate requested for non-level-0 family {d.dest!r}", d.loc
                )
            wf.add(d.dest)
            continue
        mark = marks[d.what]
        if d.dest_is_ctx:
            hits = rel_owners.get(d.dest)
            if not hits:
                raise UnknownDestError(
                    f"no relation has a context parameter named {d.dest!r}", d.loc
                )
            mark["rel"].update(hits)
            continue
        namespaces = []
        entry = sig.get(d.dest)
        if entry is not None and entry.section == "Rules":
            namespaces.append("rule")
        if d.dest in checked.schemas:
            namespaces.append("schema")
        rel_hits = rel_owners.get(d.dest)
        if rel_hits:
            namespaces.append("rel")
        thm_hits = thm_owners.get(d.dest)
        if thm_hits:
            namespaces.append("thm")
        if not namespaces:
            raise UnknownDestError(f"unknown directive destination {d.dest!r}", d.loc)
        if len(namespaces) > 1:
            raise AmbiguousDestError(
                f"directive destination {d.dest!r} is ambiguous "
                f"({' and '.join(namespaces)})",
                d.loc,
            )
        ns = namespaces[0]
        if ns == "rule":
            mark["rule"].add(d.dest)
        elif ns == "schema":
            mark["schema"].add(d.dest)
        elif ns == "rel":
            mark["rel"].update(rel_hits)
        else:
            mark["thm"].update(thm_hits)

    for kind, label in (
        ("rule", "rule"),
        ("schema", "schema"),
        ("rel", "relation parameter"),
        ("thm", "theorem variable"),
    ):
        clash = marks["explicit"][kind] & marks["implicit"][kind]
        if clash:
            shown = sorted(str(x) for x in clash)[0]
            raise ConflictingDirectivesError(
                f"{label} {shown} is marked both explicit and implicit for {target!r}"
            )

    rel_table: dict[str, frozenset] = {}
    for rel, var in marks["explicit"]["rel"]:
        rel_table.setdefault(rel, set())
        rel_table[rel].add(var)
    thm_table: dict[str, frozenset] = {}
    for thm, var in marks["explicit"]["thm"]:
        thm_table.setdefault(thm, set())
        thm_table[thm].add(var)
    return AnnotationTable(
        target,
        frozenset(wf),
        frozenset(marks["explicit"]["rule"]),
        frozenset(marks["explicit"]["schema"]),
        {k: frozenset(v) for k, v in rel_table.items()},
        {k: frozenset(v) for k, v in thm_table.items()},
    )
