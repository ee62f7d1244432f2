"""Generated inputs through the whole command line.

Token soups, mutated copies of eq.orbi and random bytes go through every
command.  Each run must end in exit 0, 1 or 2 with no exception escaping
``cli.run``, and ``fmt`` output must format to itself.  Copies of eq.orbi
with the identifiers of one declaration edited mostly parse, so they reach
the checker and the translator, which must accept them or reject them with
an ``OrbiError``.
"""

import contextlib
import io
import os
import random
import re
import tempfile

from hypothesis import given, settings, strategies as st

from orbi_forge import check_spec, corpus_source, parse_spec, translate_spec
from orbi_forge.cli import run
from orbi_forge.errors import OrbiError
from orbi_forge.lexer import KEYWORDS
from orbi_forge.syntax import SECTIONS, SYSTEMS

_SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)

_FRAGMENTS = (
    *KEYWORDS,
    *("->", "<-", "||", "|-", *":.{}()\\,;=+[]|&<>"),
    "tm", "app", "lam", "aeq", "M", "N", "x", "g", "xG", "h'",
    *(f"%% {s}\n" for s in SECTIONS),
    "%% wf [hy,ab] in tm\n", "%% explicit [ab] in [g]\n", "%% implicit [zz] in M\n",
    "% comment\n", "%", "%%",
    "tm: type.\n", "app: tm -> tm -> tm.\n", "lam: (tm -> tm) -> tm.\n", "aeq: tm -> tm -> type.\n",
    "r: aeq M M.\n", "s: ({x:tm} aeq x x -> aeq (M x) (N x)) -> aeq (lam (\\x. M x)) (lam N).\n",
    "schema xG = block (x:tm);\n", "inductive R : {g:xG} prop = | c: R [g];\n",
    "theorem t: {g:xG}{M:tm} [g |- aeq M M];\n",
    " ", "  ", "\t", "\n", "\r\n", "\r",
    "'", "_", "1", "-", "?", "é", "\u00a0", "\u2028", "\x0b",
)

_SOUPS = st.lists(st.sampled_from(_FRAGMENTS), max_size=60).map("".join)

# eq.orbi as blanks, comments, identifiers and single characters
_EQ_PIECES = re.findall(r"\s+|%[^\n]*|[A-Za-z][A-Za-z0-9_']*|.", corpus_source(), re.S)


def _mutate(edits) -> str:
    pieces = list(_EQ_PIECES)
    for op, at, length, fragment in edits:
        at %= len(pieces) + 1
        if op == "delete":
            del pieces[at : at + length]
        elif op == "insert":
            pieces.insert(at, fragment)
        elif op == "replace":
            pieces[at : at + length] = [fragment]
        else:  # duplicate
            pieces[at:at] = pieces[at : at + length]
    return "".join(pieces)


_EDITS = st.tuples(
    st.sampled_from(("delete", "insert", "replace", "duplicate")),
    st.integers(0, len(_EQ_PIECES)),
    st.integers(1, 30),
    st.sampled_from(_FRAGMENTS),
)
_MUTANTS = st.lists(_EDITS, min_size=1, max_size=4).map(_mutate)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue()


def _every_command(data: bytes, target: str) -> None:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "in.orbi")
        with open(path, "wb") as f:
            f.write(data)
        for cmd in (["check"], ["lint"], ["translate", "--target", target, "--out-dir", d]):
            assert _run([*cmd, path])[0] in (0, 1, 2), cmd
        code, text = _run(["fmt", path])
        assert code in (0, 1, 2)
        if code == 0:
            again = os.path.join(d, "fmt.orbi")
            with open(again, "w", encoding="utf-8", newline="") as f:
                f.write(text)
            assert _run(["fmt", again]) == (0, text)


@_SETTINGS
@given(_SOUPS, st.sampled_from(SYSTEMS))
def test_token_soups(source, target):
    _every_command(source.encode(), target)


@_SETTINGS
@given(_MUTANTS, st.sampled_from(SYSTEMS))
def test_mutated_corpus(source, target):
    _every_command(source.encode(), target)


@_SETTINGS
@given(st.binary(max_size=400), st.sampled_from(SYSTEMS))
def test_random_bytes(data, target):
    _every_command(data, target)


# The body of each declaration of eq.orbi: what follows its name (and its
# keyword, if any) up to the end of the declaration.
_DECL_BODY = re.compile(
    r"^(?:(?:schema|inductive|theorem) )?[A-Za-z][\w']* ?[:=](.*(?:\n\|.*)*)", re.M
)
_BODIES = [m.span(1) for m in _DECL_BODY.finditer(corpus_source())]
_NAMES = sorted(set(re.findall(r"[A-Za-z][\w']*", corpus_source())) - set(KEYWORDS))
_DECL_OPS = ("rename", "rename", "duplicate", "delete", "swap")


def _mutate_decl(which: int, edits) -> str:
    """eq.orbi with the identifiers of one declaration's body edited: one
    renamed, deleted or duplicated, or two swapped."""
    text = corpus_source()
    start, end = _BODIES[which % len(_BODIES)]
    toks = re.findall(r"[A-Za-z][\w']*|->|<-|\|-|\|\||\S", text[start:end])
    for op, at, name in edits:
        idents = [i for i, tok in enumerate(toks) if tok[0].isalpha()]
        if not idents:
            break
        i, j = idents[at % len(idents)], idents[(at * 7 + 3) % len(idents)]
        if op == "rename":
            toks[i] = name
        elif op == "delete":
            del toks[i]
        elif op == "duplicate":
            toks.insert(i, toks[i])
        else:
            toks[i], toks[j] = toks[j], toks[i]
    return f"{text[:start]} {' '.join(toks)}{text[end:]}"


_DECL_EDITS = st.lists(
    st.tuples(
        st.sampled_from(_DECL_OPS),
        st.integers(0, 200),
        st.sampled_from(_NAMES),
    ),
    min_size=1,
    max_size=3,
)


@_SETTINGS
@given(st.integers(0, len(_BODIES) - 1), _DECL_EDITS)
def test_declaration_mutants_check_or_reject(which, edits):
    try:
        checked = check_spec(parse_spec(_mutate_decl(which, edits)))
    except OrbiError:
        return
    for target in SYSTEMS:
        try:
            translate_spec(checked, target)
        except OrbiError:
            pass


def test_declaration_mutants_mostly_parse():
    rng = random.Random(13)
    parsed = 0
    for _ in range(300):
        edits = [
            (rng.choice(_DECL_OPS), rng.randrange(201), rng.choice(_NAMES))
            for _ in range(rng.randint(1, 3))
        ]
        try:
            parse_spec(_mutate_decl(rng.randrange(len(_BODIES)), edits))
            parsed += 1
        except OrbiError:
            pass
    assert parsed > 150
