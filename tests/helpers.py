"""Small shared helpers for building inline specifications in tests."""

import contextlib

import pytest

from orbi_forge import check_spec, parse_spec
from orbi_forge.errors import OrbiError
from orbi_forge.syntax import free

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
