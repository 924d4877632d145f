"""The one-pass lexer against the per-match loop it replaced.

`tokenize` and `_lines` lex with one `finditer` over a master pattern.  The
oracles below are the earlier lexer, kept here as the reference: a `match`
per token with `\\s+` as whitespace, and a file cut at each "\\n", stripped of
its comment and trailing whitespace and lexed line by line.  Both must give
the same tokens, and the same error at the same line and column, after
handing out the same lines first.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffalg.errors import ParseError
from diffalg.parsing import Token, _lines, parse_config, parse_triangular, parse_variety, tokenize

_ORACLE_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<int>\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>->|!=|[-+*/^()\[\],;:=])"
)


def oracle_tokenize(text: str, first_line: int = 1) -> list[Token]:
    tokens = []
    line = first_line
    col = 1
    pos = 0
    while pos < len(text):
        m = _ORACLE_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


def oracle_lines(text: str):
    for lineno, raw in enumerate(text.split("\n"), start=1):
        tokens = oracle_tokenize(raw.split("#", 1)[0].rstrip(), lineno)
        if tokens[0].kind != "eof":
            yield tokens


def outcome(items):
    """What an iterable hands out before it stops, and the error it stops
    with as (message, line, column), or None."""
    out = []
    try:
        for item in items:
            out.append(item)
    except ParseError as err:
        return out, (err.message, err.line, err.column)
    return out, None


# every kind of token (\u0663 is a digit to `\d`), comments, both line ends,
# whitespace that `\s` matches beyond space and tab, and characters that
# start no token
PIECES = [
    "x", "y_1", "d1", "d12", "k", "P", "p", "eta", "none", "base",
    "0", "7", "12", "\u0663",
    "->", "!=", "-", "+", "*", "/", "^", "(", ")", "[", "]", ",", ";", ":", "=",
    " ", "  ", "\t", "\n", "\r\n", "\u00a0", "\u2028", "\x1c", "\x0b",
    "# note", "#", "$", "@", "\u00e9", "!", ">",
]
texts = st.one_of(
    st.lists(st.sampled_from(PIECES), max_size=30).map("".join),
    st.text(alphabet="".join(sorted(set("".join(PIECES)))), max_size=30),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(texts)
def test_tokenize_matches_the_per_match_loop(text):
    got = outcome(lex(text) for lex in [tokenize])
    assert got == outcome(lex(text) for lex in [oracle_tokenize])
    for tokens in got[0]:
        assert all(type(tok) is Token for tok in tokens)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(texts)
def test_lines_match_the_line_by_line_lexer(text):
    assert outcome(cur.tokens for cur in _lines(text)) == outcome(oracle_lines(text))


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_config, "k = 2\nk = 3\nP: d1\np[d1] = x[d1] - $\n", "`k` is declared twice"),
        (parse_variety, "vars: x\nvars: y\nx - $\n", "`vars:` is declared twice"),
        (parse_triangular, "ambient: x\nambient: y\nx : x - $\n", "`ambient:` is declared twice"),
    ],
)
def test_an_error_on_an_earlier_line_wins_over_a_bad_character_later(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.message, err.value.line, err.value.column) == (message, 2, 1)
