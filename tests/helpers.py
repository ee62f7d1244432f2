"""Small shared helpers for building inline specifications in tests."""

import contextlib

import pytest

from orbi_forge import check_spec, parse_spec
from orbi_forge.errors import OrbiError
from orbi_forge.syntax import Arrow, AtomApp, Const, ConstDecl, Pi, Var, free, rebuild

_SECTION_ORDER = (
    ("syntax", "Syntax"),
    ("judgments", "Judgments"),
    ("rules", "Rules"),
    ("schemas", "Schemas"),
    ("definitions", "Definitions"),
    ("directives", "Directives"),
    ("theorems", "Theorems"),
)


def make_spec(**sections) -> str:
    parts = []
    for key, name in _SECTION_ORDER:
        body = sections.get(key)
        if body:
            parts.append(f"%% {name}\n{body.strip()}")
    return "\n\n".join(parts) + "\n"


def check_all(source: str):
    return check_spec(parse_spec(source))


def closed(node) -> bool:
    """No de Bruijn index of ``node`` points outside it."""
    return not any(type(x) is int for x in free(node))


def first_error_code(source: str):
    """Code of the first diagnostic the pipeline rejects ``source`` with."""
    try:
        check_all(source)
    except OrbiError as e:
        return e.code
    return None


@contextlib.contextmanager
def raises_code(code: str):
    """``pytest.raises(OrbiError)`` whose first diagnostic has ``code``."""
    with pytest.raises(OrbiError) as exc:
        yield exc
    assert exc.value.code == code, exc.value.diagnostics


def lf_type(simple):
    """The LF type that a simple type names, an ``Arrow`` for each arrow."""
    if simple.dom is None:
        return AtomApp(simple.family)
    return Arrow(lf_type(simple.dom), lf_type(simple.cod))


def closed_decl(entry) -> ConstDecl:
    """The declaration of a checked rule with its schematic variables bound
    by an outermost Pi-prefix, in first-occurrence order."""
    decl, names = entry.decl, entry.implicit
    if not names:
        return decl
    # index of each name's binder, counted from inside the prefix
    outer = {n: len(names) - 1 - j for j, n in enumerate(names)}

    def bind(n, k):
        return Var(k + outer[n.name]) if type(n) is Const and n.name in outer else n

    body = rebuild(decl.tp, bind)
    for name, dom in zip(reversed(names), reversed(entry.implicit_tps)):
        body = Pi(name, lf_type(dom), body)
    return ConstDecl(decl.name, body, decl.loc)

