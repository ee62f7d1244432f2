"""Resolution of annotation directives into per-target tables.

A directive's destination is looked up across the document's namespaces
(family, rule, schema, relation parameter, theorem variable); a bare name
that resolves in more than one of them is an error rather than a silent
priority pick.  A wf directive whose predicate name (``wf_name``) is
already declared is rejected, so a generated predicate never merges with a
user one.  The defaults with no directives at all: no well-formedness
predicates, everything implicit.  What does not depend on the target is
worked out once per checked specification (``index_directives``), so each
``resolve`` is one lookup per directive.
"""

from __future__ import annotations

from types import MappingProxyType

from orbi_forge.errors import OrbiError
from orbi_forge.syntax import FamDecl, Record


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


def index_directives(spec, sig, schemas, relations, thm_vars) -> dict:
    """Verdict of each distinct directive of ``spec``, keyed ``(what, dest,
    dest_is_ctx)``: the namespace and items it marks, or the error, without a
    location, that applying it raises.  ``thm_vars`` maps each theorem to the
    names its term quantifiers bind."""
    # (namespace, name) -> {(owner, name)} of the relation parameters and
    # theorem variables, so a destination is one lookup per namespace
    owners: dict[tuple, set] = {}
    for name, rel in relations.items():
        for v, _ in rel.params:
            owners.setdefault(("rel", v), set()).add((name, v))
    for name, bound in thm_vars.items():
        for v in bound:
            owners.setdefault(("thm", v), set()).add((name, v))
    verdicts: dict = {}
    for d in spec.directives:
        key = (d.what, d.dest, d.dest_is_ctx)
        if key not in verdicts:
            verdicts[key] = _verdict(d, sig, schemas, relations, owners)
    return verdicts


def _verdict(d, sig, schemas, relations, owners):
    entry = sig.entries.get(d.dest)
    if d.what == "wf":
        if d.dest_is_ctx or entry is None or type(entry.decl) is not FamDecl:
            return OrbiError("E-DEST", f"wf destination {d.dest!r} is not a declared type family")
        if entry.level != 0:
            return OrbiError("E-LEVEL", f"wf predicate requested for non-level-0 family {d.dest!r}")
        pred = wf_name(d.dest)
        if pred in sig.entries or pred in schemas or pred in relations:
            return OrbiError(
                "E-DUP", f"wf predicate {pred!r} of family {d.dest!r} clashes with a declared name"
            )
        return "fam", (d.dest,)
    if d.dest_is_ctx:
        if ("rel", d.dest) not in owners:
            return OrbiError("E-DEST", f"no relation has a context parameter named {d.dest!r}")
        return "rel", owners["rel", d.dest]
    found = []  # (namespace, items) of each namespace the name resolves in
    if entry is not None and entry.section == "Rules":
        found.append(("rule", (d.dest,)))
    if d.dest in schemas:
        found.append(("schema", (d.dest,)))
    found += [(ns, owners[ns, d.dest]) for ns in ("rel", "thm") if (ns, d.dest) in owners]
    if not found:
        return OrbiError("E-DEST", f"unknown directive destination {d.dest!r}")
    if len(found) > 1:
        return OrbiError(
            "E-AMBIG",
            f"directive destination {d.dest!r} is ambiguous "
            f"({' and '.join(ns for ns, _ in found)})",
        )
    return found[0]


def resolve(checked, target: str) -> AnnotationTable:
    """Annotation table for one target system, the same in any order of the
    directives.  Those for ``target`` are applied in file order, each with its
    verdict from ``checked.directive_index``, and an error is raised at the
    directive being applied."""
    marks = {what: {k: set() for k in ("fam", *_KINDS)} for what in ("wf", "explicit", "implicit")}
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
        verdict = checked.directive_index[key]
        if type(verdict) is OrbiError:
            raise OrbiError(verdict.code, verdict.message, d.loc)
        kind, items = verdict
        # a family is marked by wf directives only, so a wf mark opposes none
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
        frozenset(marks["wf"]["fam"]),
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
