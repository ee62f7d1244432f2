"""Tokenizer for .orbi sources.

Lines whose first non-blank characters are ``%%`` are directives and are
lexed whole; any other ``%`` starts a comment that runs to the end of the
line and is discarded.

One compiled master regex classifies every lexeme; its last alternative
matches any other single non-blank character, so an illegal one is reported
where it stands.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from orbi_forge.errors import LexError
from orbi_forge.syntax import Loc

KEYWORDS = frozenset({"type", "schema", "block", "inductive", "prop", "theorem", "true", "false"})

# Blanks before a lexeme are skipped inside the same match.  The catch-all
# excludes blanks, so trailing blanks at end of input match nothing rather
# than being taken for an illegal character.
_MASTER_RE = re.compile(
    r"[ \t\r]*(?:"
    r"(?P<nl>\n)"
    r"|(?P<comment>%[^\n]*)"
    r"|(?P<id>[a-z][A-Za-z0-9_']*)"
    r"|(?P<uid>[A-Z][A-Za-z0-9_']*)"
    # longest match first
    r"|(?P<punct>->|<-|\|\||\|-|[:.{}()\\,;=+\[\]|&<>])"
    r"|(?P<illegal>[^ \t\r\n]))"
)


class Token(NamedTuple):
    kind: str  # id | uid | kw | punct | directive | eof
    lexeme: str
    line: int
    col: int
    start: int
    end: int

    @property
    def loc(self) -> Loc:
        return Loc(self.line, self.col)


# Builds a Token from one field tuple without NamedTuple's Python-level __new__.
_new_token = tuple.__new__


def tokenize(source: str) -> list[Token]:
    toks: list[Token] = []
    append = toks.append
    line = 1
    line_start = 0
    last_line = 0  # line of the last token, to tell directives from comments
    for m in _MASTER_RE.finditer(source):
        kind = m.lastgroup
        start, end = m.span(kind)
        if kind == "nl":
            line += 1
            line_start = end
            continue
        text = m[kind]
        if kind == "comment":
            if text.startswith("%%") and last_line != line:
                tok = ("directive", text.rstrip(), line, start - line_start + 1, start, end)
                append(_new_token(Token, tok))
                last_line = line
            continue
        if kind == "id":
            if text in KEYWORDS:
                kind = "kw"
        elif kind == "illegal":
            raise LexError(f"illegal character {text!r}", Loc(line, start - line_start + 1))
        append(_new_token(Token, (kind, text, line, start - line_start + 1, start, end)))
        last_line = line
    n = len(source)
    append(Token("eof", "", line, n - line_start + 1, n, n))
    return toks
