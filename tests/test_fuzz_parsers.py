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
from repro.keynote.credential import Credential
from repro.keynote.licensees import parse_licensees
from repro.keynote.parser import parse_conditions, parse_expression
from repro.keynote.tokens import normalise, tokenize
from repro.spki.sexp import parse_sexp

# Characters that exercise every token class plus pure noise.
EXPR_ALPHABET = 'abcxyz_0129. "\\=<>!&|()+-*/%^;,#\n\t$~{}'
SEXP_ALPHABET = 'abc012 ()"\\\n\t'
CRED_ALPHABET = ('abcxyzABC_0129. ":=<>!&|()\n\t-')


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
