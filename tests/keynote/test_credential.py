"""Tests for credential parsing, serialisation, signing and verification."""

import pytest

from repro.crypto import Keystore
from repro.errors import CredentialError, KeyNoteSyntaxError
from repro.keynote.credential import Credential
from repro.keynote.parser import parse_credentials, split_fields

FIG2_TEXT = '''
Authorizer: POLICY
licensees: "Kbob"
Conditions: app_domain=="SalariesDB" &&
            (oper=="read" || oper=="write");
'''

FIG4_TEXT = '''
Authorizer: "Kbob"
licensees: "Kalice"
Conditions: app_domain=="SalariesDB"
  && oper=="write";
'''


@pytest.fixture
def keystore() -> Keystore:
    ks = Keystore()
    for name in ("Kbob", "Kalice", "KWebCom"):
        ks.create(name)
    return ks


class TestSplitFields:
    def test_multiline_values(self):
        fields = split_fields(FIG2_TEXT)
        assert fields["authorizer"] == "POLICY"
        assert "oper" in fields["conditions"]
        assert "\n" in fields["conditions"]

    def test_case_insensitive_field_names(self):
        fields = split_fields('AUTHORIZER: POLICY\nLicensees: "K"')
        assert fields["authorizer"] == "POLICY"

    def test_duplicate_field_rejected(self):
        with pytest.raises(KeyNoteSyntaxError):
            split_fields("Authorizer: POLICY\nAuthorizer: POLICY")

    def test_leading_garbage_rejected(self):
        with pytest.raises(KeyNoteSyntaxError):
            split_fields("garbage\nAuthorizer: POLICY")


class TestParsing:
    def test_figure2_policy(self):
        cred = Credential.from_text(FIG2_TEXT)
        assert cred.is_policy
        assert cred.principals() == {"Kbob"}
        assert not cred.signature

    def test_figure4_credential(self):
        cred = Credential.from_text(FIG4_TEXT)
        assert not cred.is_policy
        assert cred.authorizer == "Kbob"
        assert cred.principals() == {"Kalice"}

    def test_missing_authorizer_rejected(self):
        with pytest.raises(KeyNoteSyntaxError):
            Credential.from_text('Licensees: "K"\nConditions: x=="1";')

    def test_missing_licensees_rejected(self):
        with pytest.raises(KeyNoteSyntaxError):
            Credential.from_text("Authorizer: POLICY\nConditions: x==\"1\";")

    def test_missing_conditions_defaults_to_true(self):
        cred = Credential.from_text('Authorizer: POLICY\nLicensees: "K"')
        assert cred.conditions_text == "true"

    def test_unsupported_version_rejected(self):
        with pytest.raises(KeyNoteSyntaxError):
            Credential.from_text(
                'KeyNote-Version: 9\nAuthorizer: POLICY\nLicensees: "K"')

    def test_placeholder_signature_ignored(self):
        # The paper writes `Signature: ...` in its figures.
        cred = Credential.from_text(FIG4_TEXT + "Signature: ...\n")
        assert cred.signature == ""

    def test_local_constants_substitution(self):
        text = '''
        Local-Constants: ALICE = "kn-the-key"
        Authorizer: POLICY
        Licensees: ALICE
        Conditions: app_domain == "x";
        '''
        cred = Credential.from_text(text)
        assert cred.principals() == {"kn-the-key"}

    def test_comment_preserved(self):
        cred = Credential.from_text(
            'Comment: for the salaries app\n' + FIG2_TEXT.strip())
        assert cred.comment == "for the salaries app"


class TestRoundTrip:
    def test_text_round_trip_parses_equal(self):
        cred = Credential.from_text(FIG2_TEXT)
        again = Credential.from_text(cred.to_text())
        assert again.authorizer == cred.authorizer
        assert again.licensees == cred.licensees
        assert again.conditions == cred.conditions

    @pytest.mark.parametrize("licensees", ['"Kb" || "Kc"',
                                           '2-of("Kb","Kc","Kd")',
                                           '"Kb"&&("Kc"||"Kd")'])
    def test_a_credential_equals_its_rendered_text(self, licensees):
        """``to_text`` renders Licensees in its own spelling; the value
        (and so the store key) must not depend on the spelling."""
        cred = Credential.from_text(
            f'Authorizer: "Ka"\nLicensees: {licensees}\nConditions: x=="1";')
        again = Credential.from_text(cred.to_text())
        assert again == cred
        assert hash(again) == hash(cred)

    def test_round_trip_preserves_signature(self, keystore):
        cred = Credential.from_text(FIG4_TEXT).sign(keystore.pair("Kbob").private)
        again = Credential.from_text(cred.to_text())
        assert again.signature == cred.signature
        assert again.verify(keystore)


class TestSigning:
    def test_sign_and_verify(self, keystore):
        cred = Credential.from_text(FIG4_TEXT)
        signed = cred.sign(keystore.pair("Kbob").private)
        assert signed.verify(keystore)

    def test_signed_by_keystore_lookup(self, keystore):
        signed = Credential.from_text(FIG4_TEXT).signed_by(keystore)
        assert signed.verify(keystore)

    def test_wrong_signer_rejected(self, keystore):
        cred = Credential.from_text(FIG4_TEXT)
        forged = cred.sign(keystore.pair("Kalice").private)  # not Kbob!
        assert not forged.verify(keystore)

    def test_unsigned_fails_verification(self, keystore):
        assert not Credential.from_text(FIG4_TEXT).verify(keystore)

    def test_policy_assertions_never_signed(self, keystore):
        cred = Credential.from_text(FIG2_TEXT)
        with pytest.raises(CredentialError):
            cred.sign(keystore.pair("Kbob").private)
        assert cred.verify(keystore)  # vacuously valid

    def test_tampered_conditions_detected(self, keystore):
        signed = Credential.from_text(FIG4_TEXT).sign(keystore.pair("Kbob").private)
        tampered_text = signed.to_text().replace('oper=="write"', 'oper=="read"')
        tampered = Credential.from_text(tampered_text)
        assert not tampered.verify(keystore)

    def test_verify_or_raise(self, keystore):
        cred = Credential.from_text(FIG4_TEXT)
        with pytest.raises(CredentialError):
            cred.verify_or_raise(keystore)
        cred.sign(keystore.pair("Kbob").private).verify_or_raise(keystore)

    def test_encoded_key_authorizer_verifies_without_keystore(self, keystore):
        encoded = keystore.public("Kbob").encode()
        text = FIG4_TEXT.replace('"Kbob"', f'"{encoded}"')
        signed = Credential.from_text(text).sign(keystore.pair("Kbob").private)
        assert signed.verify()  # no keystore needed

    def test_symbolic_authorizer_needs_keystore(self, keystore):
        signed = Credential.from_text(FIG4_TEXT).sign(keystore.pair("Kbob").private)
        assert not signed.verify()  # cannot resolve "Kbob" without keystore


class TestBuild:
    def test_build_normalises_whitespace(self):
        cred = Credential.build("POLICY", '"K"', 'x ==\n   "1"')
        assert cred.conditions_text == 'x == "1"'

    def test_build_rejects_bad_conditions(self):
        with pytest.raises(KeyNoteSyntaxError):
            Credential.build("POLICY", '"K"', 'x === "1"')


class TestParseCredentials:
    def test_multiple_credentials_split(self, keystore):
        blob = FIG2_TEXT + "\n" + FIG4_TEXT
        creds = parse_credentials(blob)
        assert len(creds) == 2
        assert creds[0].is_policy
        assert creds[1].authorizer == "Kbob"

    def test_keynote_version_starts_new_credential(self):
        blob = ('KeyNote-Version: 2\nAuthorizer: POLICY\nLicensees: "Ka"\n'
                'KeyNote-Version: 2\nAuthorizer: POLICY\nLicensees: "Kb"\n')
        creds = parse_credentials(blob)
        assert len(creds) == 2

    def test_empty_blob(self):
        assert parse_credentials("\n  \n") == []
