"""Tests for the session-style KeyNote API."""

from collections import Counter

import pytest

from repro.crypto import Keystore
from repro.errors import CredentialError
from repro.keynote.api import KeyNoteSession
from repro.keynote.credential import Credential
from repro.util.clock import SimulatedClock
from repro.util.events import AuditLog

POLICY_TEXT = '''
Authorizer: POLICY
Licensees: "Kbob"
Conditions: app_domain=="SalariesDB" && (oper=="read" || oper=="write");
'''


@pytest.fixture
def keystore() -> Keystore:
    ks = Keystore()
    for name in ("Kbob", "Kalice"):
        ks.create(name)
    return ks


@pytest.fixture
def session(keystore) -> KeyNoteSession:
    s = KeyNoteSession(keystore=keystore)
    s.add_policy(POLICY_TEXT)
    return s


class TestSession:
    def test_query_result_fields(self, session):
        result = session.query({"app_domain": "SalariesDB", "oper": "read"},
                               ["Kbob"])
        assert result.authorized
        assert result.compliance_value == "true"
        assert result.authorizers == ("Kbob",)
        assert bool(result)

    def test_deny(self, session):
        assert not session.query({"app_domain": "Other"}, ["Kbob"])

    def test_add_policy_rejects_signed_credential(self, session, keystore):
        cred = Credential.build("Kbob", '"Kalice"', "true")
        with pytest.raises(CredentialError):
            session.add_policy(cred)

    def test_add_credential_rejects_policy(self, session):
        with pytest.raises(CredentialError):
            session.add_credential(POLICY_TEXT)

    def test_credential_accumulation(self, session, keystore):
        cred = Credential.build(
            "Kbob", '"Kalice"',
            'app_domain=="SalariesDB" && oper=="write"').signed_by(keystore)
        session.add_credential(cred)
        assert session.query({"app_domain": "SalariesDB", "oper": "write"},
                             ["Kalice"])
        assert len(session.credentials) == 1
        assert len(session.policies) == 1

    def test_extra_credentials_not_retained(self, session, keystore):
        cred = Credential.build(
            "Kbob", '"Kalice"',
            'app_domain=="SalariesDB" && oper=="write"').signed_by(keystore)
        attrs = {"app_domain": "SalariesDB", "oper": "write"}
        assert session.query(attrs, ["Kalice"], extra_credentials=[cred])
        # Without the extra credential the request is denied again.
        assert not session.query(attrs, ["Kalice"])

    def test_clear_credentials_keeps_policies(self, session, keystore):
        cred = Credential.build(
            "Kbob", '"Kalice"', "true").signed_by(keystore)
        session.add_credential(cred)
        session.clear_credentials()
        assert session.credentials == []
        assert len(session.policies) == 1

    def test_add_credentials_blob(self, session, keystore):
        a = Credential.build("Kbob", '"Kalice"', 'x=="1"').signed_by(keystore)
        b = Credential.build("Kbob", '"Kalice"', 'x=="2"').signed_by(keystore)
        blob = a.to_text() + "\n" + b.to_text()
        added = session.add_credentials(blob)
        assert len(added) == 2

    def test_audit_records_decisions(self, keystore):
        audit = AuditLog()
        s = KeyNoteSession(keystore=keystore, audit=audit)
        s.add_policy(POLICY_TEXT)
        s.query({"app_domain": "SalariesDB", "oper": "read"}, ["Kbob"])
        s.query({"app_domain": "Nope"}, ["Kbob"])
        assert len(audit.find(category="keynote.query")) == 2
        assert len(audit.find(outcome="allow")) == 1
        assert len(audit.find(outcome="deny")) == 1

    def test_checker_cache_invalidation(self, session, keystore):
        attrs = {"app_domain": "SalariesDB", "oper": "write"}
        assert not session.query(attrs, ["Kalice"])
        cred = Credential.build(
            "Kbob", '"Kalice"',
            'app_domain=="SalariesDB" && oper=="write"').signed_by(keystore)
        session.add_credential(cred)  # must invalidate the cached checker
        assert session.query(attrs, ["Kalice"])

    def test_doctest_example(self, keystore):
        s = KeyNoteSession(keystore=keystore)
        s.add_policy('Authorizer: POLICY\nLicensees: "Kbob"\n'
                     'Conditions: app_domain=="db";')
        assert bool(s.query({"app_domain": "db"}, authorizers=["Kbob"]))


class TestStateFingerprint:
    """The fingerprint's credential count is a running total kept at every
    change to the credential multiset; it must equal a recount."""

    def test_running_count_equals_a_recount(self, keystore):
        session = KeyNoteSession(keystore=keystore, clock=SimulatedClock())
        session.add_policy(POLICY_TEXT)
        read = Credential.build("Kbob", '"Kalice"',
                                'oper=="read"').signed_by(keystore)
        write = Credential.build("Kbob", '"Kalice"',
                                 'oper=="write"').signed_by(keystore)

        def agrees() -> None:
            policies, count, _generation = session.state_fingerprint()
            assert policies == len(session.policies)
            assert count == len(session.credentials)

        agrees()
        session.add_credential(read)
        agrees()
        session.add_credential(read)  # a duplicate is a second copy
        agrees()
        session.add_credential(write, expires_at=5.0)
        assert session.state_fingerprint()[1] == 3
        agrees()
        assert session.revoke_credential(read)
        agrees()
        assert session.revoke_credential(read)
        assert not session.revoke_credential(read)
        agrees()
        session.clock.advance(10.0)
        assert session.sweep_expired() == [write]
        assert session.state_fingerprint()[1] == 0
        agrees()
        session.add_credential(read)
        session.add_credential(write)
        agrees()
        session.clear_credentials()
        assert session.state_fingerprint()[1] == 0
        agrees()


class TestOneStore:
    """The checker is the session's only copy of its assertions."""

    def test_revoked_forgeries_leave_the_checker(self, session, keystore):
        honest = Credential.build("Kbob", '"Kalice"',
                                  'oper=="read"').signed_by(keystore)
        session.add_credential(honest)
        forged = Credential.build("Kbob", '"Kalice"', 'oper=="write"').sign(
            keystore.pair("Kalice").private)
        checker = session.checker
        for _ in range(1000):
            session.add_credential(forged)
            assert checker.verify_pending() == 0  # the forgery is discarded
            assert checker.cache_info()["discarded"] == 1
            assert session.revoke_credential(forged)
        assert checker.cache_info()["discarded"] == 0
        assert Counter(checker.assertions) == Counter(
            session.policies + session.credentials)
        assert session.credentials == [honest]
        assert session.state_fingerprint()[:2] == (1, 1)
