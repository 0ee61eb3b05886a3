"""Unit tests for the SQL lexer."""

import pytest

from repro.errors import SQLSyntaxError
from repro.sql.lexer import Token, TokenType, tokenize


def kinds(text):
    return [(token.type, token.value) for token in tokenize(text) if token.type is not TokenType.EOF]


class TestBasicTokens:
    def test_keywords_are_upper_cased(self):
        tokens = kinds("select from where")
        assert tokens == [
            (TokenType.KEYWORD, "SELECT"),
            (TokenType.KEYWORD, "FROM"),
            (TokenType.KEYWORD, "WHERE"),
        ]

    def test_identifiers_keep_case(self):
        tokens = kinds("Revenue cName")
        assert tokens == [
            (TokenType.IDENTIFIER, "Revenue"),
            (TokenType.IDENTIFIER, "cName"),
        ]

    def test_integer_and_decimal_numbers(self):
        tokens = kinds("42 3.14 1e6 2.5E-3")
        assert [value for _kind, value in tokens] == ["42", "3.14", "1e6", "2.5E-3"]
        assert all(kind is TokenType.NUMBER for kind, _value in tokens)

    def test_string_literal_unquoting(self):
        tokens = kinds("'USD'")
        assert tokens == [(TokenType.STRING, "USD")]

    def test_string_literal_with_escaped_quote(self):
        tokens = kinds("'it''s'")
        assert tokens == [(TokenType.STRING, "it's")]

    def test_double_quoted_identifier(self):
        tokens = kinds('"weird name"')
        assert tokens == [(TokenType.IDENTIFIER, "weird name")]

    def test_operators_multi_char_before_single(self):
        tokens = kinds("a <= b <> c >= d != e")
        operators = [value for kind, value in tokens if kind is TokenType.OPERATOR]
        assert operators == ["<=", "<>", ">=", "!="]

    def test_punctuation(self):
        tokens = kinds("(a, b.c);")
        punctuation = [value for kind, value in tokens if kind is TokenType.PUNCTUATION]
        assert punctuation == ["(", ",", ".", ")", ";"]

    def test_eof_token_always_present(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].type is TokenType.EOF


class TestCommentsAndWhitespace:
    def test_line_comment_skipped(self):
        assert kinds("a -- comment here\n b") == [
            (TokenType.IDENTIFIER, "a"),
            (TokenType.IDENTIFIER, "b"),
        ]

    def test_block_comment_skipped(self):
        assert kinds("a /* multi\nline */ b") == [
            (TokenType.IDENTIFIER, "a"),
            (TokenType.IDENTIFIER, "b"),
        ]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("a /* never closed")

    def test_line_numbers_tracked(self):
        tokens = tokenize("a\nb\n  c")
        identifiers = [token for token in tokens if token.type is TokenType.IDENTIFIER]
        assert [token.line for token in identifiers] == [1, 2, 3]
        assert identifiers[2].column == 3


class TestLexerErrors:
    def test_unterminated_string_raises(self):
        with pytest.raises(SQLSyntaxError) as excinfo:
            tokenize("SELECT 'oops")
        assert "unterminated" in str(excinfo.value)

    def test_unexpected_character_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT @foo")

    def test_malformed_number_raises(self):
        with pytest.raises(SQLSyntaxError):
            tokenize("SELECT 1.2.3")


class TestTokenHelpers:
    def test_matches(self):
        token = tokenize("SELECT")[0]
        assert token.matches(TokenType.KEYWORD, "SELECT")
        assert not token.matches(TokenType.KEYWORD, "FROM")
        assert token.matches(TokenType.KEYWORD)

    def test_is_keyword(self):
        token = tokenize("UNION")[0]
        assert token.is_keyword("UNION", "SELECT")
        assert not token.is_keyword("SELECT")


class TestPositions:
    def test_a_token_after_a_multi_line_literal_is_on_the_literals_last_line(self):
        tokens = tokenize("SELECT 'a\nb' ,\n x")
        comma = next(token for token in tokens if token.value == ",")
        assert (comma.line, comma.column) == (2, 4)
        assert (tokens[-2].line, tokens[-2].column) == (3, 2)

    def test_every_token_is_where_its_offset_is(self):
        text = "SELECT \"a\nb\", 'c\n\nd' /* e\n */ FROM -- f\n t"
        for token in tokenize(text):
            before = text[:token.position]
            assert token.line == before.count("\n") + 1
            assert token.column == len(before) - (before.rfind("\n") + 1) + 1

    def test_a_digit_that_is_not_decimal_is_an_unexpected_character(self):
        with pytest.raises(SQLSyntaxError, match="unexpected character '²'") as excinfo:
            tokenize("SELECT 1² FROM t")
        assert excinfo.value.position == 8

    def test_unicode_letters_and_decimal_digits_scan(self):
        assert kinds("été_٣ ١٢") == [(TokenType.IDENTIFIER, "été_٣"), (TokenType.NUMBER, "١٢")]
