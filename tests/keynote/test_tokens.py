"""Tests for the expression tokenizer."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KeyNoteSyntaxError
from repro.keynote.tokens import TokenType, tokenize

from tests.keynote.scanner_reference import reference_tokenize


def kinds(text):
    return [(t.type, t.value) for t in tokenize(text)[:-1]]  # drop EOF


class TestTokenize:
    def test_empty_input_gives_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].type is TokenType.EOF

    def test_string_literal(self):
        assert kinds('"hello"') == [(TokenType.STRING, "hello")]

    def test_string_with_escapes(self):
        assert kinds(r'"a\"b\\c"') == [(TokenType.STRING, 'a"b\\c')]

    def test_unterminated_string(self):
        with pytest.raises(KeyNoteSyntaxError):
            tokenize('"oops')

    def test_numbers(self):
        assert kinds("42 3.14") == [(TokenType.NUMBER, "42"),
                                    (TokenType.NUMBER, "3.14")]

    def test_number_then_concat_dot(self):
        # `1 . x`: the dot after a complete number is an operator.
        assert kinds("1.x") == [(TokenType.NUMBER, "1"), (TokenType.OP, "."),
                                (TokenType.IDENT, "x")]

    def test_identifiers(self):
        assert kinds("app_domain _x y2") == [
            (TokenType.IDENT, "app_domain"),
            (TokenType.IDENT, "_x"),
            (TokenType.IDENT, "y2"),
        ]

    def test_multi_char_operators_greedy(self):
        assert kinds("a==b") == [(TokenType.IDENT, "a"), (TokenType.OP, "=="),
                                 (TokenType.IDENT, "b")]
        assert kinds("a<=b>=c") == [
            (TokenType.IDENT, "a"), (TokenType.OP, "<="),
            (TokenType.IDENT, "b"), (TokenType.OP, ">="),
            (TokenType.IDENT, "c"),
        ]

    def test_arrow_vs_minus(self):
        assert kinds("a->b") == [(TokenType.IDENT, "a"), (TokenType.OP, "->"),
                                 (TokenType.IDENT, "b")]
        assert kinds("a-b") == [(TokenType.IDENT, "a"), (TokenType.OP, "-"),
                                (TokenType.IDENT, "b")]

    def test_logical_operators(self):
        assert kinds("&& || !") == [(TokenType.OP, "&&"), (TokenType.OP, "||"),
                                    (TokenType.OP, "!")]

    def test_comment_skipped(self):
        assert kinds("a # comment\nb") == [(TokenType.IDENT, "a"),
                                           (TokenType.IDENT, "b")]

    def test_position_tracking(self):
        toks = tokenize("a\n  b")
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (2, 3)

    def test_unknown_character(self):
        with pytest.raises(KeyNoteSyntaxError) as err:
            tokenize("a @ b")
        assert "@" in str(err.value)

    def test_is_op_helper(self):
        tok = tokenize("&&")[0]
        assert tok.is_op("&&")
        assert tok.is_op("||", "&&")
        assert not tok.is_op("||")


def outcome(scan, text):
    """Tokens, or the syntax error's (message, line, column)."""
    try:
        return scan(text)
    except KeyNoteSyntaxError as err:
        return (err.args, err.line, err.column)


#: every character class the scanner distinguishes, plus ASCII it rejects
KEYNOTE_ASCII = (string.ascii_letters[:6] + "XYZ_" + string.digits[:4]
                 + '.-<>=!~&|(){}+*/%^;,$"\\#' + " \t\r\n" + "@`?\f")

#: whole lexemes, so strings, comments and numbers appear intact often
LEXEMES = ["app_domain", "x2", "_", "42", "3.14", ".5", "1.2.3", "1.",
           '"a b"', '"esc\\"q\\\\"', '"line\nbreak"', '"nl\\\nesc"', '"',
           "# note\n",
           "->", "==", "!=", "<=", ">=", "~=", "&&", "||", "-", "=", "&",
           "\\", "\r\n", "\t", " ", "\n", "@"]


class TestAgainstTheReferenceScanner:
    """The regex scanner agrees with the original loop on ASCII input:
    token types, values, lines, columns and error messages."""

    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet=KEYNOTE_ASCII, max_size=40))
    def test_random_ascii_text(self, text):
        assert outcome(tokenize, text) == outcome(reference_tokenize, text)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(LEXEMES), max_size=16).map("".join))
    def test_lexeme_soup(self, text):
        assert outcome(tokenize, text) == outcome(reference_tokenize, text)

    @pytest.mark.parametrize("text", [
        '"ends in backslash\\', 'a\n  "open', '"x" "y', "a\n\tb\r\nc",
        '"escaped\\\nnewline" x',
        "1.2.3 .4.5", "x . 1.", "# only a comment", "\n\n  @"])
    def test_edge_cases(self, text):
        assert outcome(tokenize, text) == outcome(reference_tokenize, text)


class TestNonAsciiDigits:
    """Numbers are ASCII ``[0-9]``: digits ``float`` cannot read are not
    NUMBER tokens, so a credential using them fails to parse."""

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])  # ², ٣
    def test_rejected_as_unexpected_character(self, digit):
        with pytest.raises(KeyNoteSyntaxError) as err:
            tokenize(f"n < {digit}")
        assert err.value.args == (f"unexpected character {digit!r}",)
        assert (err.value.line, err.value.column) == (1, 5)

    @pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])
    def test_after_a_dot_or_ascii_digit(self, digit):
        for text in (f"1{digit}", f".{digit}"):
            with pytest.raises(KeyNoteSyntaxError):
                tokenize(text)
