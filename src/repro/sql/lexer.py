"""Tokenizer for the prototype's SQL dialect.

One compiled regular expression, :data:`_TOKEN`, is the dialect's lexical
grammar: each named group is a token class, and :func:`tokenize` matches it
at each offset of the input.  It recognizes keywords case-insensitively,
quoted string literals with doubled-quote escaping (``'it''s'``), integer and
decimal numeric literals, identifiers (optionally double-quoted), the usual
punctuation and multi-character comparison operators, and both ``--`` line
comments and ``/* ... */`` block comments.  Whitespace is space, tab, CR and
LF; letters, digits and ``_`` are Unicode's (``str.isalpha``, decimal
digits).
"""

from __future__ import annotations

import enum
import re
from typing import List, NamedTuple, Optional

from repro.errors import SQLSyntaxError


class TokenType(enum.Enum):
    """Lexical category of a token."""

    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    EOF = "eof"


#: Reserved words of the dialect.  Anything not in this set scans as an
#: identifier.  Keywords are stored upper-case; the lexer upper-cases matches.
KEYWORDS = frozenset(
    {
        "SELECT",
        "DISTINCT",
        "ALL",
        "FROM",
        "WHERE",
        "GROUP",
        "BY",
        "HAVING",
        "ORDER",
        "ASC",
        "DESC",
        "LIMIT",
        "OFFSET",
        "UNION",
        "AND",
        "OR",
        "NOT",
        "IN",
        "IS",
        "NULL",
        "LIKE",
        "BETWEEN",
        "EXISTS",
        "AS",
        "JOIN",
        "INNER",
        "LEFT",
        "RIGHT",
        "OUTER",
        "CROSS",
        "ON",
        "CASE",
        "WHEN",
        "THEN",
        "ELSE",
        "END",
        "CREATE",
        "TABLE",
        "INSERT",
        "INTO",
        "VALUES",
        "TRUE",
        "FALSE",
    }
)

#: The lexical grammar, tried in order at each offset.  A group named in
#: :data:`_ERRORS` is a malformed token; ``other`` is any character no token
#: starts with.  A ``word`` whose first character is a number that is not a
#: decimal digit (``²``, ``½``) is not an identifier either (:func:`tokenize`).
_TOKEN = re.compile(
    r"""
      (?P<space>[ \t\r\n]+)
    | (?P<comment>--[^\n]*|/\*.*?\*/)
    | (?P<open_comment>/\*)
    | (?P<string>'[^']*(?:''[^']*)*'(?!'))
    | (?P<open_string>')
    | (?P<quoted>"[^"]*")
    | (?P<open_quoted>")
    | (?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?![\d.])(?:[eE][+-]?\d+)?)
    | (?P<bad_number>(?:\d|\.\d)[\d.]*(?:[eE][+-]?\d+)?)
    | (?P<word>[^\W\d]\w*)
    | (?P<operator><>|<=|>=|!=|\|\||[-+*/%=<>])
    | (?P<punctuation>[(),.;])
    | (?P<other>.)
    """,
    re.VERBOSE | re.DOTALL,
)

#: The message of each malformed-token group.
_ERRORS = {
    "open_comment": "unterminated block comment",
    "open_string": "unterminated string literal",
    "open_quoted": "unterminated quoted identifier",
    "bad_number": "malformed number {!r}",
    "other": "unexpected character {!r}",
}


class Token(NamedTuple):
    """A single lexical token.

    ``value`` holds the normalized text: keywords are upper-cased, string
    literals are unquoted and unescaped, numbers keep their literal spelling
    (conversion to int/float happens in the parser).  ``line`` and ``column``
    (1-based) are those of ``position``.
    """

    type: TokenType
    value: str
    position: int
    line: int
    column: int

    def matches(self, token_type: TokenType, value: Optional[str] = None) -> bool:
        """Return True when the token has the given type (and value, if given)."""
        if self.type is not token_type:
            return False
        return value is None or self.value == value

    def is_keyword(self, *names: str) -> bool:
        """Return True when the token is one of the given keywords."""
        return self.type is TokenType.KEYWORD and self.value in names


#: The token type of each group whose text is the token's value.
_VERBATIM = {
    "operator": TokenType.OPERATOR,
    "punctuation": TokenType.PUNCTUATION,
    "number": TokenType.NUMBER,
}


def tokenize(text: str) -> List[Token]:
    """Scan ``text`` and return its tokens, ending with an EOF token."""
    tokens: List[Token] = []
    append = tokens.append
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        kind, start, value = match.lastgroup, match.start(), match.group()
        column = start - line_start + 1
        if kind in _VERBATIM:
            append(Token(_VERBATIM[kind], value, start, line, column))
            continue
        if kind == "word":
            upper = value.upper()
            if upper in KEYWORDS:
                append(Token(TokenType.KEYWORD, upper, start, line, column))
                continue
            if value[0].isalpha() or value[0] == "_":
                append(Token(TokenType.IDENTIFIER, value, start, line, column))
                continue
            kind, value = "other", value[0]
        if kind in _ERRORS:
            raise SQLSyntaxError(_ERRORS[kind].format(value), start, line, column)
        if kind == "string":
            append(Token(TokenType.STRING, value[1:-1].replace("''", "'"), start, line, column))
        elif kind == "quoted":
            append(Token(TokenType.IDENTIFIER, value[1:-1], start, line, column))
        # Whitespace, a comment or a literal: the one span that may end a line.
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = text.rindex("\n", start, match.end()) + 1
    end = len(text)
    append(Token(TokenType.EOF, "", end, line, end - line_start + 1))
    return tokens
