"""Tokenizer for .orbi sources.

Lines whose first non-blank characters are ``%%`` are directives and are
lexed whole; any other ``%`` starts a comment that runs to the end of the
line and is discarded.

``tokenize`` returns a ``Tokens`` that holds only what the parser reads.
Its lexemes come from one ``findall`` of a group-free regex whose every
match is a lexeme followed by its blanks (newlines included), so the match
lengths are the distances from token to token: small cached ints, one list
slot a token.  No token carries a kind, an offset, a line or a column.
Identifiers, comments and illegal characters are picked out of the set of
distinct lexemes; the regex's last alternative matches any other single
non-blank character, so an illegal one is reported where it stands.  The
parser asks for a location only where it stores or reports one.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate, compress, repeat

from orbi_forge.errors import OrbiError
from orbi_forge.syntax import Loc

KEYWORDS = frozenset({"type", "schema", "block", "inductive", "prop", "theorem", "true", "false"})

_PUNCT = frozenset({"->", "<-", "||", "|-", *":.{}()\\,;=+[]|&<>"})

_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")

# Only these count as blanks: str.strip() with no argument would also
# strip "\x0b", "\u00a0" or "\u2028", which are illegal characters.
_BLANKS = " \t\r\n"

_MATCH_RE = re.compile(
    r"(?:%[^\n]*"
    r"|[A-Za-z][A-Za-z0-9_']*"
    # longest match first
    r"|->|<-|\|\||\|-|[:.{}()\\,;=+\[\]|&<>]"
    r"|[^ \t\r\n])[ \t\r\n]*"
)

# A comment as its lexeme reads, without the blanks that end its line.
_COMMENT_RE = re.compile(r"%(?:[^\n]*[^ \t\r\n])?")


class Tokens:
    """The tokens of one source: their ``lexemes``, eof (``""``) last, the set
    ``idents`` of the identifiers among them, and ``lengths``, the distance
    from the start of the token before each one (from offset 0 for the
    first) to its own start.  ``len`` counts eof too."""

    __slots__ = ("source", "lexemes", "idents", "lengths", "_at", "_start", "_line_starts")

    def __init__(self, source, lexemes, idents, lengths):
        self.source = source
        self.lexemes = lexemes
        self.idents = idents
        self.lengths = lengths
        self._at, self._start = -1, 0  # the token asked for last, and its offset
        self._line_starts = None

    def __len__(self) -> int:
        return len(self.lexemes)

    def span(self, i: int) -> tuple[int, int]:
        """The offsets where token ``i`` starts and its line (a directive) ends."""
        self.loc(i)
        end = self.source.find("\n", self._start)
        return self._start, len(self.source) if end < 0 else end

    def loc(self, i: int) -> Loc:
        """Line and column of token ``i``; lines end at ``\\n`` only.  Its
        offset is summed from that of the token asked for last, so a parse
        that asks in source order sums each distance once, and the line
        starts are found on the first call."""
        line_starts = self._line_starts
        if line_starts is None:
            # a line starts one past the end of the line before it
            line_lengths = map(len, self.source.split("\n"))
            line_starts = self._line_starts = list(
                accumulate(map((1).__add__, line_lengths), initial=0)
            )
        at = self._at
        if i >= at:
            start = self._start = self._start + sum(self.lengths[at + 1 : i + 1])
        else:
            start = self._start = self._start - sum(self.lengths[i + 1 : at + 1])
        self._at = i
        line = bisect_right(line_starts, start)
        return Loc(line, start - line_starts[line - 1] + 1)


def tokenize(source: str) -> Tokens:
    raw = _MATCH_RE.findall(source)
    lexemes = list(map(str.rstrip, raw, repeat(_BLANKS)))
    others = set(lexemes) - KEYWORDS - _PUNCT
    idents = {lexeme for lexeme in others if lexeme[0] in _LETTERS}
    lexemes.append("")
    lengths = [len(source) - len(source.lstrip(_BLANKS)), *map(len, raw)]
    toks = Tokens(source, lexemes, idents, lengths)
    illegal = [lexeme for lexeme in others - idents if lexeme[0] != "%"]
    if illegal:
        i = min(map(lexemes.index, illegal))  # the first in the source
        raise OrbiError("E-LEX", f"illegal character {lexemes[i]!r}", toks.loc(i))
    # A %% comment first on its line is a directive; any other is dropped,
    # its distance added to the next token's.  Each is found in the list by
    # one scan from the one before it: no other lexeme starts with "%".
    keep = None
    i = -1
    for text in _COMMENT_RE.findall(source):
        i = lexemes.index(text, i + 1)
        # the blanks before a token end the match of the token before it
        if text[:2] == "%%" and (i == 0 or "\n" in raw[i - 1]):
            lexemes[i] = text.rstrip()
            continue
        if keep is None:
            keep = [True] * len(lexemes)
        keep[i] = False
        lengths[i + 1] += lengths[i]
    del raw  # before the kept tokens are copied, not to raise the peak
    if keep is not None:
        toks.lexemes = list(compress(lexemes, keep))
        toks.lengths = list(compress(lengths, keep))
    return toks
