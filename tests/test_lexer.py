import random
import time

import pytest

from helpers import raises_code
from orbi_forge.errors import OrbiError
from orbi_forge.lexer import KEYWORDS, tokenize


def _kind(toks, lexeme):
    """The kind of a token, read off its lexeme and the identifier set."""
    if not lexeme:
        return "eof"
    if lexeme[0] == "%":
        return "directive"
    if lexeme in toks.idents:
        return "uid" if lexeme[0].isupper() else "id"
    return "kw" if lexeme in KEYWORDS else "punct"


def _kinds(toks):
    return [_kind(toks, lexeme) for lexeme in toks.lexemes]


def _kinds_lexemes(source):
    toks = tokenize(source)
    assert toks.lexemes[-1] == "" and "" not in toks.lexemes[:-1]
    return list(zip(_kinds(toks)[:-1], toks.lexemes[:-1]))


def test_tokenize_judgment_decl():
    assert _kinds_lexemes("aeq: tm -> tm -> type.") == [
        ("id", "aeq"),
        ("punct", ":"),
        ("id", "tm"),
        ("punct", "->"),
        ("id", "tm"),
        ("punct", "->"),
        ("kw", "type"),
        ("punct", "."),
    ]


def test_tokenize_empty():
    assert _kinds_lexemes("") == []


def test_tokenize_schema_line():
    toks = _kinds_lexemes("schema xG =  block (x:tm);")
    assert toks[0] == ("kw", "schema")
    assert ("kw", "block") in toks


def test_uppercase_identifiers_get_their_own_kind():
    assert _kinds_lexemes("M1 n") == [("uid", "M1"), ("id", "n")]


def test_primed_identifiers():
    assert _kinds_lexemes("de_l'") == [("id", "de_l'")]


def test_directive_line_lexed_whole():
    toks = tokenize("tm: type.\n%% wf [hy,ab] in tm\napp: tm.\n")
    directives = [lexeme for kind, lexeme in zip(_kinds(toks), toks.lexemes) if kind == "directive"]
    assert directives == ["%% wf [hy,ab] in tm"]


def test_plain_comments_discarded():
    assert _kinds_lexemes("% a comment\ntm: type.") == [
        ("id", "tm"),
        ("punct", ":"),
        ("kw", "type"),
        ("punct", "."),
    ]


def test_mid_line_percent_is_comment():
    assert _kinds_lexemes("tm: type. % trailing %% not a directive") == [
        ("id", "tm"),
        ("punct", ":"),
        ("kw", "type"),
        ("punct", "."),
    ]


def test_bar_family_disambiguation():
    assert _kinds_lexemes("|| |- |") == [
        ("punct", "||"),
        ("punct", "|-"),
        ("punct", "|"),
    ]


def test_arrows_and_angles():
    assert _kinds_lexemes("<- < > ->") == [
        ("punct", "<-"),
        ("punct", "<"),
        ("punct", ">"),
        ("punct", "->"),
    ]


def test_illegal_character_reports_location():
    with raises_code("E-LEX") as exc:
        tokenize("tm: ?")
    assert exc.value.loc.line == 1
    assert exc.value.loc.col == 5


def _full(source):
    """(kind, lexeme, (line, col), start, end) of every token.  The spans are
    asked for last to first and the locations first to last, so that the
    offsets are summed both ways; a directive ends with its line."""
    toks = tokenize(source)
    spans = [toks.span(i) for i in reversed(range(len(toks)))][::-1]
    locs = [(loc.line, loc.col) for loc in map(toks.loc, range(len(toks)))]
    starts = [start for start, _ in spans]
    ends = [
        eol if lexeme[:1] == "%" else start + len(lexeme)
        for (start, eol), lexeme in zip(spans, toks.lexemes)
    ]
    return list(zip(_kinds(toks), toks.lexemes, locs, starts, ends, strict=True))


def test_crlf_line_ends():
    assert _full("tm: type.\r\nx: tm.\r\n") == [
        ("id", "tm", (1, 1), 0, 2),
        ("punct", ":", (1, 3), 2, 3),
        ("kw", "type", (1, 5), 4, 8),
        ("punct", ".", (1, 9), 8, 9),
        ("id", "x", (2, 1), 11, 12),
        ("punct", ":", (2, 2), 12, 13),
        ("id", "tm", (2, 4), 14, 16),
        ("punct", ".", (2, 6), 16, 17),
        ("eof", "", (3, 1), 19, 19),
    ]


def test_crlf_directive_lexeme_drops_the_carriage_return():
    assert _full("%% Syntax\r\n")[0] == ("directive", "%% Syntax", (1, 1), 0, 10)


def test_tab_indented_directive():
    assert _full("tm: type.\n\t %% wf [ab] in tm \n")[4:] == [
        ("directive", "%% wf [ab] in tm", (2, 3), 12, 29),
        ("eof", "", (3, 1), 30, 30),
    ]


def test_double_percent_after_a_token_is_a_comment():
    assert _kinds_lexemes("tm %% Syntax\n%% Rules") == [
        ("id", "tm"),
        ("directive", "%% Rules"),
    ]


def test_percent_at_eof_without_newline():
    assert _full("tm %") == [("id", "tm", (1, 1), 0, 2), ("eof", "", (1, 5), 4, 4)]
    assert _full("%%") == [("directive", "%%", (1, 1), 0, 2), ("eof", "", (1, 3), 2, 2)]


def test_eof_loc_without_trailing_newline():
    assert _full("a\nbc.")[-1] == ("eof", "", (2, 4), 5, 5)
    assert _full("")[-1] == ("eof", "", (1, 1), 0, 0)
    assert _full("tm \t\r ") == [("id", "tm", (1, 1), 0, 2), ("eof", "", (1, 7), 6, 6)]


def test_trailing_blanks_are_not_searched_from_every_position():
    # searched from every position, 20k trailing blanks take about 10 s
    source = "tm" + " \t\r\n" * 5000
    start = time.perf_counter()
    assert _full(source) == [("id", "tm", (1, 1), 0, 2), ("eof", "", (5001, 1), 20002, 20002)]
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("source, char", [("a: ! ?", "!"), ("a: ? !", "?")])
def test_first_illegal_character_in_source_order(source, char):
    # the set of distinct lexemes has no order: the report follows the source
    with raises_code("E-LEX") as exc:
        tokenize(source)
    assert (exc.value.message, exc.value.loc.line, exc.value.loc.col) == (
        f"illegal character {char!r}",
        1,
        4,
    )


def test_illegal_character_column_after_tabs():
    with raises_code("E-LEX") as exc:
        tokenize("tm: type.\n\t\ttm ?")
    assert (exc.value.message, exc.value.loc.line, exc.value.loc.col) == (
        "illegal character '?'",
        2,
        6,
    )


def test_non_ascii_letter_is_illegal():
    with raises_code("E-LEX") as exc:
        tokenize("café: type.")
    assert exc.value.message == "illegal character 'é'"
    assert (exc.value.loc.line, exc.value.loc.col) == (1, 4)


def test_keywords_versus_identifiers():
    assert _kinds_lexemes("type types Type prop theorem' block_ x1") == [
        ("kw", "type"),
        ("id", "types"),
        ("uid", "Type"),
        ("kw", "prop"),
        ("id", "theorem'"),
        ("id", "block_"),
        ("id", "x1"),
    ]


# ------------------------------------------- differential check against a loop

_REF_PUNCT = ("->", "<-", "||", "|-", ":", ".", "{", "}", "(", ")", "\\", ",", ";", "=", "+", "[", "]", "|", "&", "<", ">")


def _reference_tokenize(source):
    """Character-loop tokenizer; returns (kind, lexeme, (line, col), start, end)
    tuples, or ("error", message, (line, col)) for the first illegal character."""
    out = []
    i, line, line_start, n = 0, 1, 0, len(source)
    while i < n:
        c = source[i]
        col = i - line_start + 1
        if c == "\n":
            i += 1
            line += 1
            line_start = i
        elif c in " \t\r":
            i += 1
        elif c == "%":
            eol = source.find("\n", i)
            eol = n if eol == -1 else eol
            if source.startswith("%%", i) and not source[line_start:i].strip():
                out.append(("directive", source[i:eol].rstrip(), (line, col), i, eol))
            i = eol
        elif c.isascii() and c.isalpha():
            j = i + 1
            while j < n and source[j].isascii() and (source[j].isalnum() or source[j] in "_'"):
                j += 1
            word = source[i:j]
            kind = "kw" if word in KEYWORDS else "uid" if c.isupper() else "id"
            out.append((kind, word, (line, col), i, j))
            i = j
        else:
            p = next((p for p in _REF_PUNCT if source.startswith(p, i)), None)
            if p is None:
                return ("error", f"illegal character {c!r}", (line, col))
            out.append(("punct", p, (line, col), i, i + len(p)))
            i += len(p)
    out.append(("eof", "", (line, n - line_start + 1), n, n))
    return out


_FRAGMENTS = (
    *KEYWORDS,
    *_REF_PUNCT,
    "tm", "M1", "x'", "a_b", "Zz", "q", "R",
    "%", "%%", "% c", "%% Syntax",
    " ", "  ", "\t", "\r", "\n", "\r\n",
    "'", "_", "1", "-", "!", "?", "#", "é", "\u00a0", "\x0b", "\u2028",
)


def _lex_or_error(source):
    try:
        return _full(source)
    except OrbiError as e:
        assert e.code == "E-LEX"
        return ("error", e.message, (e.loc.line, e.loc.col))


def test_tokenize_matches_character_loop_reference():
    rng = random.Random(20151012)
    errors = 0
    for _ in range(3000):
        source = "".join(rng.choice(_FRAGMENTS) for _ in range(rng.randrange(0, 30)))
        expected = _reference_tokenize(source)
        assert _lex_or_error(source) == expected, source
        errors += expected[0] == "error"
    assert 300 < errors < 2700  # both outcomes are well represented
