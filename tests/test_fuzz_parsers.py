"""Parser robustness: arbitrary input must fail *cleanly*.

The KeyNote credential parser, the expression parser and the S-expression
parser all face untrusted network input in the paper's architecture.  These
properties assert they either parse or raise their documented exception —
never an unrelated crash (IndexError, RecursionError within reason, ...).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KeyNoteSyntaxError, SExpressionError
from repro.keynote.ast import bind
from repro.keynote.credential import Credential
from repro.keynote.licensees import parse_licensees
from repro.keynote.parser import parse_conditions, parse_expression, parse_shape
from repro.keynote.tokens import TokenType, normalise, template, tokenize
from repro.spki.sexp import parse_sexp

# Characters that exercise every token class plus pure noise.
EXPR_ALPHABET = 'abcxyz_0129. "\\=<>!&|()+-*/%^;,#\n\t$~{}'
SEXP_ALPHABET = 'abc012 ()"\\\n\t'
CRED_ALPHABET = ('abcxyzABC_0129. ":=<>!&|()\n\t-')
#: every character ``str.splitlines`` ends a line at
SEPARATORS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


class TestTokenizerFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet=EXPR_ALPHABET, max_size=60))
    def test_tokenize_total(self, text):
        try:
            tokens = tokenize(text)
            assert tokens  # at least EOF
        except KeyNoteSyntaxError:
            # The normal form a credential stores is no valid text either.
            with pytest.raises(KeyNoteSyntaxError):
                tokenize(normalise(text))
            return
        # ... and a valid text's normal form tokenizes to the same values.
        assert [(token.type, token.value)
                for token in tokenize(normalise(text))] == [
            (token.type, token.value) for token in tokens]
        assert normalise(normalise(text)) == normalise(text)

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet=EXPR_ALPHABET, max_size=60))
    def test_the_earlier_stored_form_is_its_own_normal_form(self, text):
        """Earlier versions stored and signed ``" ".join(text.split())``;
        reading it back must not change those bytes."""
        stored = " ".join(text.split())
        try:
            tokenize(stored)
        except KeyNoteSyntaxError:
            return
        assert normalise(stored) == stored


class TestTemplateFuzz:
    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet=EXPR_ALPHABET, max_size=60))
    def test_the_shape_and_its_literals_are_the_text(self, text):
        """A text's shape with its literals put back is the program the
        text parses to, and a text fails to template exactly when it
        fails to tokenize."""
        try:
            tokenize(text)
        except KeyNoteSyntaxError:
            with pytest.raises(KeyNoteSyntaxError):
                template(text)
            return
        key, literals = template(text)
        assert key == template(normalise(text))[0]
        assert key.count(None) == len(literals)
        tokens = tokenize(text)[:-1]  # the key has no EOF
        assert len(key) == len(tokens)
        for spelled, token in zip(key, tokens):
            if token.type is TokenType.STRING:
                assert spelled is None or spelled[0] == '"'
            else:
                assert spelled == token.value
        try:
            program = parse_conditions(text)
        except KeyNoteSyntaxError:
            with pytest.raises(KeyNoteSyntaxError):
                parse_shape(text, key)
            return
        assert bind(parse_shape(text, key), literals) == program


class TestLineSeparators:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(alphabet="ab " + SEPARATORS, max_size=6),
                    min_size=1, max_size=3))
    def test_literals_survive_the_text_form(self, literals):
        """A Conditions literal holding any line separator reads back
        from the credential's text with the text and the signed bytes it
        was written with."""
        conditions = " && ".join(
            f'a{index} == "{literal}"'
            for index, literal in enumerate(literals))
        written = Credential.build("POLICY", '"Ka"', conditions,
                                   comment="c")
        read = Credential.from_text(written.to_text())
        assert read.conditions_text == written.conditions_text
        assert read.canonical_bytes() == written.canonical_bytes()
        assert read.conditions == written.conditions
        assert read.binding == tuple(literals)

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_a_crlf_terminator_is_one_line_end(self, end):
        text = end.join(['KeyNote-Version: 2', 'Authorizer: POLICY',
                         'Licensees: "Ka"', 'Conditions: a == "x" &&',
                         '  b == "y";', ''])
        read = Credential.from_text(text)
        assert read.conditions_text == 'a == "x" && b == "y"'
        assert read.to_text() == Credential.from_text(
            text.replace("\r\n", "\n")).to_text()


class TestExpressionParserFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet=EXPR_ALPHABET, max_size=60))
    def test_parse_expression_clean_failure(self, text):
        try:
            parse_expression(text)
        except KeyNoteSyntaxError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet=EXPR_ALPHABET, max_size=60))
    def test_parse_conditions_clean_failure(self, text):
        try:
            parse_conditions(text)
        except KeyNoteSyntaxError:
            pass


class TestLicenseeParserFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet='abcK019 "&|()-,of', max_size=40))
    def test_parse_licensees_clean_failure(self, text):
        try:
            parse_licensees(text)
        except KeyNoteSyntaxError:
            pass


class TestCredentialParserFuzz:
    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet=CRED_ALPHABET, max_size=120))
    def test_from_text_clean_failure(self, text):
        try:
            Credential.from_text(text)
        except KeyNoteSyntaxError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(st.text(alphabet=CRED_ALPHABET, max_size=60))
    def test_field_injection_resistant(self, payload):
        """A hostile Comment body must not smuggle in other fields."""
        flattened = payload.replace("\n", " ")
        text = (f"Comment: {flattened}\n"
                "Authorizer: POLICY\n"
                'Licensees: "K"\n'
                'Conditions: x=="1";\n')
        try:
            credential = Credential.from_text(text)
        except KeyNoteSyntaxError:
            return
        assert credential.is_policy
        assert credential.principals() == {"K"}


class TestSExpressionFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet=SEXP_ALPHABET, max_size=60))
    def test_parse_sexp_clean_failure(self, text):
        try:
            parse_sexp(text)
        except SExpressionError:
            pass
