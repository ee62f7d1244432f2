"""Tokenizer for .orbi sources.

Lines whose first non-blank characters are ``%%`` are directives and are
lexed whole; any other ``%`` starts a comment that runs to the end of the
line and is discarded.

``tokenize`` returns a ``Tokens``: four parallel lists ``lexemes``,
``kinds``, ``starts`` and ``ends`` (character offsets), with an ``eof`` token
of lexeme ``""`` last.  No token carries a line or column: ``Tokens.loc(i)``
computes them on demand by bisecting the offsets of the source's line
starts, which are found once, on the first call.  The parser asks for a
location only where it stores or reports one.

The lists come from one ``findall`` of a group-free regex.  Each match is a
blank prefix (newlines included) followed by one lexeme, so the running sum
of the match lengths gives the lexemes' end offsets.  Each distinct lexeme is
classified once.  The regex's last alternative matches any other single
non-blank character, so an illegal one is reported where it stands.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate, compress, repeat
from operator import sub

from orbi_forge.errors import OrbiError
from orbi_forge.syntax import Loc

KEYWORDS = frozenset({"type", "schema", "block", "inductive", "prop", "theorem", "true", "false"})

_PUNCT = frozenset({"->", "<-", "||", "|-", *":.{}()\\,;=+[]|&<>"})

# Only these count as blanks: str.strip() with no argument would also
# strip "\x0b", "\u00a0" or "\u2028", which are illegal characters.
_BLANKS = " \t\r\n"

_MATCH_RE = re.compile(
    r"[ \t\r\n]*(?:"
    r"%[^\n]*"
    r"|[A-Za-z][A-Za-z0-9_']*"
    # longest match first
    r"|->|<-|\|\||\|-|[:.{}()\\,;=+\[\]|&<>]"
    r"|[^ \t\r\n])"
)


def _kind(lexeme: str) -> str:
    if lexeme in KEYWORDS:
        return "kw"
    if lexeme in _PUNCT:
        return "punct"
    c = lexeme[0]
    if c == "%":
        return "comment"  # a directive or dropped, decided by position
    if "a" <= c <= "z":
        return "id"
    if "A" <= c <= "Z":
        return "uid"
    return "illegal"


class Tokens:
    """The tokens of one source as parallel lists; ``len`` counts eof too."""

    __slots__ = ("source", "lexemes", "kinds", "starts", "ends", "_line_starts")

    def __init__(self, source, lexemes, kinds, starts, ends):
        self.source = source
        self.lexemes = lexemes
        self.kinds = kinds  # id | uid | kw | punct | directive | eof
        self.starts = starts
        self.ends = ends
        self._line_starts = None

    def __len__(self) -> int:
        return len(self.lexemes)

    def loc(self, i: int) -> Loc:
        """Line and column of token ``i``; lines end at ``\\n`` only."""
        line_starts = self._line_starts
        if line_starts is None:
            # a line starts one past the end of the line before it
            line_lengths = map(len, self.source.split("\n"))
            line_starts = self._line_starts = list(
                accumulate(map((1).__add__, line_lengths), initial=0)
            )
        start = self.starts[i]
        line = bisect_right(line_starts, start)
        return Loc(line, start - line_starts[line - 1] + 1)


def tokenize(source: str) -> Tokens:
    # Trailing blanks are left out of the search: the regex would otherwise
    # try them from every position, which is quadratic.
    raw = _MATCH_RE.findall(source, 0, len(source.rstrip(_BLANKS)))
    lexemes = list(map(str.lstrip, raw, repeat(_BLANKS)))
    ends = list(accumulate(map(len, raw)))
    starts = list(map(sub, ends, map(len, lexemes)))
    kind_of = {lexeme: _kind(lexeme) for lexeme in set(lexemes)}
    kinds = list(map(kind_of.__getitem__, lexemes))
    toks = Tokens(source, lexemes, kinds, starts, ends)
    found = kind_of.values()
    if "illegal" in found:
        i = kinds.index("illegal")
        raise OrbiError("E-LEX", f"illegal character {lexemes[i]!r}", toks.loc(i))
    if "comment" in found:
        _sort_comments(toks, raw)
    n = len(source)
    toks.lexemes.append("")
    toks.kinds.append("eof")
    toks.starts.append(n)
    toks.ends.append(n)
    return toks


def _sort_comments(toks: Tokens, raw: list[str]) -> None:
    """Make each ``%%`` comment that is the first token on its line a
    directive, and drop every other comment."""
    lexemes, kinds, ends = toks.lexemes, toks.kinds, toks.ends
    if kinds[-1] == "comment":  # its trailing blanks were not searched
        eol = toks.source.find("\n", ends[-1])
        ends[-1] = len(toks.source) if eol < 0 else eol
    keep = [True] * len(kinds)
    i = -1
    for _ in range(kinds.count("comment")):
        i = kinds.index("comment", i + 1)
        text = lexemes[i]
        # A comment holds no newline, so one in the match is in its prefix.
        if text.startswith("%%") and (i == 0 or "\n" in raw[i]):
            kinds[i] = "directive"
            lexemes[i] = text.rstrip()
        else:
            keep[i] = False
    if not all(keep):
        toks.lexemes, toks.kinds, toks.starts, toks.ends = (
            list(compress(column, keep)) for column in (lexemes, kinds, toks.starts, ends)
        )
