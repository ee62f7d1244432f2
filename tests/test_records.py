"""The ``Record`` base: construction, equality, hashing, repr and ``_replace``."""

import pytest

import orbi_forge.cli  # noqa: F401  (defines every record class)
from orbi_forge.errors import Diagnostic
from orbi_forge.syntax import (
    NO_LOC,
    And,
    Arrow,
    AtomApp,
    Block,
    ConstDecl,
    Directive,
    FalseP,
    Lam,
    Loc,
    Or,
    OrbiSpec,
    Record,
    TrueP,
    Var,
)


def _records(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _records(sub)


# the fields ``==`` and ``hash`` ignore: binder hints, locations of
# declarations, the raw text a parsed document keeps for passthrough, and
# the directive verdicts a checked specification derives
_HIDDEN = {
    "Lam": ("hint",),
    "Pi": ("hint",),
    "ConstDecl": ("loc",),
    "FamDecl": ("loc",),
    "Schema": ("loc",),
    "InductiveDef": ("loc",),
    "Theorem": ("loc",),
    "Directive": ("loc",),
    "Separator": ("loc",),
    "OrbiSpec": ("source", "section_spans"),
    "CheckedSpec": ("directive_index",),
}

# records with fields and the generated equality (``Block`` has its own)
_COMPARED = sorted(
    (c for c in set(_records()) if c.__slots__ and c is not Block), key=lambda c: c.__qualname__
)


def test_hidden_fields_are_exactly_the_listed_ones():
    hidden = {c.__qualname__: c._hidden for c in _records() if c._hidden}
    assert hidden == _HIDDEN


@pytest.mark.parametrize("cls", _COMPARED, ids=lambda c: c.__qualname__)
def test_equality_and_hash_ignore_exactly_the_hidden_fields(cls):
    values = {f: object() for f in cls._fields}
    a = cls(**values)
    assert a == cls(**values) and hash(a) == hash(cls(**values))
    for f in cls._fields:
        b = a._replace(**{f: object()})
        assert (a == b) is (f in cls._hidden), f
        assert (a != b) is (f not in cls._hidden), f
        if a == b:
            assert hash(a) == hash(b), f


@pytest.mark.parametrize(
    "a,b",
    [
        (And(TrueP(), TrueP()), Or(TrueP(), TrueP())),
        (TrueP(), FalseP()),
        (AtomApp("tm"), AtomApp("tm", (Var(0),))),
        (Diagnostic("E", "m"), Diagnostic("E", "m", Loc(1, 1))),
        (Diagnostic("E", "m"), Diagnostic("E", "m", hint="h")),
        (Var(0), 0),
    ],
)
def test_unequal(a, b):
    assert a != b and b != a
    assert not (a == b)


def test_zero_field_records_equal_their_class():
    assert TrueP() == TrueP() and hash(TrueP()) == hash(TrueP())
    assert len({TrueP(), TrueP(), FalseP()}) == 2


def test_classes_of_one_shape_share_their_code():
    # each distinct generated source is compiled once, at import
    assert And.__eq__.__code__ is Or.__eq__.__code__
    assert And.__init__.__code__ is Or.__init__.__code__
    assert TrueP.__eq__.__code__ is FalseP.__eq__.__code__
    assert And.__eq__ is not Or.__eq__
    assert And(TrueP(), TrueP()) != Or(TrueP(), TrueP())
    assert Arrow.__eq__.__code__ is not Lam.__eq__.__code__


def test_construction_by_position_keyword_and_default():
    tm = AtomApp("tm")
    assert AtomApp("tm").args == ()
    d = ConstDecl(name="c", tp=tm)
    assert (d.name, d.tp, d.loc) == ("c", tm, NO_LOC)
    assert ConstDecl("c", tm, Loc(2, 3)).loc == Loc(2, 3)
    with pytest.raises(TypeError):
        ConstDecl("c")
    with pytest.raises(TypeError):
        ConstDecl("c", tm, NO_LOC, None)
    with pytest.raises(AttributeError):
        d.extra = 1


def test_replace():
    d = ConstDecl("c", AtomApp("tm"))
    moved = d._replace(loc=Loc(4, 1))
    assert (moved.name, moved.tp, moved.loc) == ("c", d.tp, Loc(4, 1))
    assert d.loc == NO_LOC
    with pytest.raises(TypeError):
        d._replace(nope=1)


def test_repr_shows_every_field_and_hint():
    assert repr(Lam("x", Var(0))) == "Lam(hint='x', body=Var(index=0))"
    assert repr(TrueP()) == "TrueP()"
    assert repr(Block((("x", AtomApp("tm")),))) == (
        "Block(entries=(('x', AtomApp(family='tm', args=())),))"
    )


def test_spec_views_are_derived_once_and_left_out_of_equality():
    decl = ConstDecl("c", AtomApp("tm"))
    wf = Directive("wf", ("ab",), "tm")
    a = OrbiSpec((("Syntax", decl), ("Rules", decl), ("Directives", wf)))
    assert (a.syntax_decls, a.judgment_decls, a.directives) == ((decl,), (), (wf,))
    assert a.rules is a.rules
    assert a.decls_in_order() == (("Syntax", decl), ("Rules", decl))
    b = OrbiSpec(a.items)  # its views are still unset
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert OrbiSpec._fields == ("items", "source", "section_spans")
    with pytest.raises(AttributeError):
        a.nope
