"""Unit tests for the JSLite lexer."""

import pytest

from repro.errors import JSLiteSyntaxError
from repro.frontend.lexer import tokenize
from repro.frontend.tokens import EOF, IDENT, KEYWORD, NUMBER, PUNCT


def kinds(source):
    return [token.kind for token in tokenize(source)]


def values(source):
    return [token.value for token in tokenize(source)[:-1]]


class TestNumbers:
    def test_integer(self):
        tokens = tokenize("42")
        assert tokens[0].kind == NUMBER
        assert tokens[0].value == 42.0

    def test_float(self):
        assert tokenize("3.25")[0].value == 3.25

    def test_leading_dot(self):
        assert tokenize(".5")[0].value == 0.5

    def test_exponent(self):
        assert tokenize("1e3")[0].value == 1000.0
        assert tokenize("2.5e-2")[0].value == 0.025
        assert tokenize("1E+2")[0].value == 100.0

    def test_hex(self):
        assert tokenize("0xFF")[0].value == 255.0
        assert tokenize("0X10")[0].value == 16.0

    def test_malformed_hex(self):
        with pytest.raises(JSLiteSyntaxError):
            tokenize("0x")

    def test_malformed_exponent(self):
        with pytest.raises(JSLiteSyntaxError):
            tokenize("1e")


class TestStrings:
    def test_single_quotes(self):
        assert tokenize("'abc'")[0].value == "abc"

    def test_double_quotes(self):
        assert tokenize('"abc"')[0].value == "abc"

    def test_escapes(self):
        assert tokenize(r"'a\nb\tc'")[0].value == "a\nb\tc"
        assert tokenize(r"'\\'")[0].value == "\\"
        assert tokenize(r"'\''")[0].value == "'"

    def test_hex_escape(self):
        assert tokenize(r"'\x41'")[0].value == "A"

    def test_unicode_escape(self):
        assert tokenize(r"'B'")[0].value == "B"

    def test_unterminated(self):
        with pytest.raises(JSLiteSyntaxError):
            tokenize("'abc")

    def test_newline_in_string(self):
        with pytest.raises(JSLiteSyntaxError):
            tokenize("'a\nb'")

    def test_bad_hex_escape(self):
        with pytest.raises(JSLiteSyntaxError):
            tokenize(r"'\xZZ'")


class TestIdentifiersAndKeywords:
    def test_identifier(self):
        token = tokenize("fooBar_3$")[0]
        assert token.kind == IDENT
        assert token.value == "fooBar_3$"

    def test_keywords(self):
        for word in ("var", "function", "if", "while", "return", "new", "typeof"):
            assert tokenize(word)[0].kind == KEYWORD

    def test_keyword_prefix_is_identifier(self):
        assert tokenize("variable")[0].kind == IDENT


class TestPunctuation:
    def test_longest_match(self):
        assert values("a >>>= b") == ["a", ">>>=", "b"]
        assert values("a === b") == ["a", "===", "b"]
        assert values("a == b") == ["a", "==", "b"]
        assert values("a <<= 1") == ["a", "<<=", 1.0]

    def test_increment(self):
        assert values("i++") == ["i", "++"]

    def test_all_single_chars(self):
        for ch in "{}()[];,<>+-*/%&|^~!?:=.":
            token = tokenize(f"a {ch} b" if ch != "." else "a . b")[1]
            assert token.kind == PUNCT
            assert token.value == ch


class TestComments:
    def test_line_comment(self):
        assert values("a // comment\nb") == ["a", "b"]

    def test_block_comment(self):
        assert values("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block(self):
        with pytest.raises(JSLiteSyntaxError):
            tokenize("/* never ends")


class TestPositions:
    def test_line_tracking(self):
        tokens = tokenize("a\nb\n  c")
        assert tokens[0].line == 1
        assert tokens[1].line == 2
        assert tokens[2].line == 3
        assert tokens[2].column == 3

    def test_eof_token(self):
        assert tokenize("")[-1].kind == EOF
        assert tokenize("x")[-1].kind == EOF

    def test_error_carries_position(self):
        try:
            tokenize("a\n  @")
        except JSLiteSyntaxError as error:
            assert error.line == 2
        else:
            raise AssertionError("expected a syntax error")
