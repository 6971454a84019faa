"""Tests for the KeyCOM decentralised administration service (Figure 8)."""

import pytest

from repro.crypto import Keystore
from repro.errors import KeyComError
from repro.keynote.api import KeyNoteSession
from repro.keynote.credential import Credential
from repro.middleware.complus import ComPlusCatalogue
from repro.os_sec.windows import WindowsSecurity
from repro.translate.to_keynote import membership_conditions
from repro.util.events import AuditLog
from repro.webcom.keycom import (
    PROCESSED_WINDOW,
    KeyComService,
    PolicyUpdateRequest,
)


@pytest.fixture
def setup():
    """Domain A's COM+ catalogue + KeyCOM, per Figure 8."""
    keystore = Keystore()
    for name in ("KWebCom", "Kuser", "Kmallory", "Kmanager"):
        keystore.create(name)
    windows = WindowsSecurity()
    windows.add_domain("DomainA")
    catalogue = ComPlusCatalogue("server-a", windows)
    catalogue.create_application("Payroll", nt_domain="DomainA")
    catalogue.register_component("Payroll", "SalariesDB")
    catalogue.declare_role("Payroll", "Clerk")
    catalogue.grant_permission("Payroll", "Clerk", "SalariesDB", "Access")

    audit = AuditLog()
    session = KeyNoteSession(keystore=keystore, audit=audit)
    # The local trust root: KWebCom administers role memberships.
    session.add_policy(
        'Authorizer: POLICY\nLicensees: "KWebCom"\n'
        'Conditions: app_domain=="WebCom";')
    service = KeyComService(catalogue, session, audit=audit)
    return keystore, catalogue, service, audit


def membership_credential(keystore, authorizer, user_key, domain, role):
    return Credential.build(
        authorizer=authorizer,
        licensees=f'"{user_key}"',
        conditions=membership_conditions(domain, role),
    ).sign(keystore.pair(authorizer).private)


class TestKeyCom:
    def test_valid_update_applies(self, setup):
        keystore, catalogue, service, _audit = setup
        cred = membership_credential(keystore, "KWebCom", "Kuser",
                                     "DomainA", "Clerk")
        request = PolicyUpdateRequest(
            user="userB", user_key="Kuser", domain="DomainA", role="Clerk",
            credentials=(cred,))
        assert service.submit(request)
        # The Domain-B user is now integrated into Domain A's COM+ policy.
        assert catalogue.invoke("DomainA\\userB", "SalariesDB", "Access")

    def test_no_credentials_rejected(self, setup):
        keystore, catalogue, service, _audit = setup
        request = PolicyUpdateRequest(
            user="userB", user_key="Kuser", domain="DomainA", role="Clerk",
            credentials=())
        with pytest.raises(KeyComError):
            service.submit(request)
        assert not catalogue.invoke("DomainA\\userB", "SalariesDB", "Access")

    def test_self_signed_credential_rejected(self, setup):
        keystore, catalogue, service, _audit = setup
        # Mallory signs her own membership: the chain doesn't reach POLICY.
        forged = membership_credential(keystore, "Kmallory", "Kmallory",
                                       "DomainA", "Clerk")
        request = PolicyUpdateRequest(
            user="mallory", user_key="Kmallory", domain="DomainA",
            role="Clerk", credentials=(forged,))
        with pytest.raises(KeyComError):
            service.submit(request)

    def test_credential_for_other_role_rejected(self, setup):
        keystore, _catalogue, service, _audit = setup
        cred = membership_credential(keystore, "KWebCom", "Kuser",
                                     "DomainA", "Manager")
        request = PolicyUpdateRequest(
            user="userB", user_key="Kuser", domain="DomainA", role="Clerk",
            credentials=(cred,))
        with pytest.raises(KeyComError):
            service.submit(request)

    def test_delegated_chain_accepted(self, setup):
        keystore, catalogue, service, _audit = setup
        # KWebCom -> Kmanager -> Kuser delegation chain.
        to_manager = membership_credential(keystore, "KWebCom", "Kmanager",
                                           "DomainA", "Clerk")
        to_user = membership_credential(keystore, "Kmanager", "Kuser",
                                        "DomainA", "Clerk")
        request = PolicyUpdateRequest(
            user="userB", user_key="Kuser", domain="DomainA", role="Clerk",
            credentials=(to_manager, to_user))
        assert service.submit(request)
        assert catalogue.invoke("DomainA\\userB", "SalariesDB", "Access")

    def test_tampered_credential_rejected(self, setup):
        keystore, _catalogue, service, _audit = setup
        good = membership_credential(keystore, "KWebCom", "Kuser",
                                     "DomainA", "Clerk")
        tampered = Credential.from_text(
            good.to_text().replace('Role=="Clerk"', 'Role=="Manager"'))
        request = PolicyUpdateRequest(
            user="userB", user_key="Kuser", domain="DomainA", role="Manager",
            credentials=(tampered,))
        with pytest.raises(KeyComError):
            service.submit(request)

    def test_submit_quietly(self, setup):
        keystore, _catalogue, service, _audit = setup
        request = PolicyUpdateRequest(
            user="userB", user_key="Kuser", domain="DomainA", role="Clerk",
            credentials=())
        assert service.submit_quietly(request) is False

    def test_audit_trail(self, setup):
        keystore, _catalogue, service, audit = setup
        cred = membership_credential(keystore, "KWebCom", "Kuser",
                                     "DomainA", "Clerk")
        service.submit(PolicyUpdateRequest(
            user="userB", user_key="Kuser", domain="DomainA", role="Clerk",
            credentials=(cred,)))
        service.submit_quietly(PolicyUpdateRequest(
            user="eve", user_key="Kmallory", domain="DomainA", role="Clerk",
            credentials=()))
        assert len(audit.find(category="keycom.update", outcome="allow")) == 1
        assert len(audit.find(category="keycom.update", outcome="deny")) == 1
        assert len(service.processed) == 2


class TestIdempotency:
    """Re-delivered update requests (duplicates from a flaky network) must
    not double-apply."""

    def test_duplicate_request_id_not_reapplied(self, setup):
        keystore, catalogue, service, audit = setup
        cred = membership_credential(keystore, "KWebCom", "Kuser",
                                     "DomainA", "Clerk")
        request = PolicyUpdateRequest(
            user="userB", user_key="Kuser", domain="DomainA", role="Clerk",
            credentials=(cred,), request_id="req-1")
        assert service.submit(request)
        before = catalogue.extract_rbac()
        assert service.submit(request)  # duplicate: acknowledged
        assert service.duplicates == 1
        assert catalogue.extract_rbac() == before
        assert len(audit.find(category="keycom.update",
                              outcome="duplicate")) == 1
        # Only the first delivery evaluated credentials.
        assert len(service.processed) == 1

    def test_distinct_ids_apply_separately(self, setup):
        keystore, catalogue, service, _audit = setup
        cred = membership_credential(keystore, "KWebCom", "Kuser",
                                     "DomainA", "Clerk")
        for request_id, user in (("r1", "userB"), ("r2", "userC")):
            assert service.submit(PolicyUpdateRequest(
                user=user, user_key="Kuser", domain="DomainA", role="Clerk",
                credentials=(cred,), request_id=request_id))
        assert service.duplicates == 0
        assert catalogue.invoke("DomainA\\userB", "SalariesDB", "Access")
        assert catalogue.invoke("DomainA\\userC", "SalariesDB", "Access")

    def test_failed_request_id_may_be_retried(self, setup):
        keystore, catalogue, service, _audit = setup
        bad = PolicyUpdateRequest(
            user="userB", user_key="Kuser", domain="DomainA", role="Clerk",
            credentials=(), request_id="retry-1")
        with pytest.raises(KeyComError):
            service.submit(bad)
        # The id was not consumed by the failure: a corrected retry under
        # the same id applies normally.
        cred = membership_credential(keystore, "KWebCom", "Kuser",
                                     "DomainA", "Clerk")
        assert service.submit(PolicyUpdateRequest(
            user="userB", user_key="Kuser", domain="DomainA", role="Clerk",
            credentials=(cred,), request_id="retry-1"))
        assert catalogue.invoke("DomainA\\userB", "SalariesDB", "Access")


class TestMalformedRequests:
    """Malformed requests are rejected before any state is touched."""

    @pytest.mark.parametrize("field,value", [
        ("user", ""), ("user", "   "), ("user_key", ""),
        ("domain", ""), ("role", ""),
    ])
    def test_blank_fields_rejected(self, setup, field, value):
        keystore, catalogue, service, _audit = setup
        before = catalogue.extract_rbac()
        kwargs = dict(user="userB", user_key="Kuser", domain="DomainA",
                      role="Clerk", credentials=())
        kwargs[field] = value
        with pytest.raises(KeyComError, match="malformed"):
            service.submit(PolicyUpdateRequest(**kwargs))
        assert catalogue.extract_rbac() == before
        assert list(service.processed) == []  # rejected before evaluation

    def test_non_tuple_credentials_rejected(self, setup):
        keystore, _catalogue, service, _audit = setup
        request = PolicyUpdateRequest(
            user="userB", user_key="Kuser", domain="DomainA", role="Clerk",
            credentials=["not", "credentials"])
        with pytest.raises(KeyComError, match="malformed"):
            service.submit(request)

    def test_presented_policy_assertion_rejected(self, setup):
        # POLICY assertions need no signature: one smuggled in with the
        # request would otherwise prove any membership for any key.
        keystore, catalogue, service, audit = setup
        before = catalogue.extract_rbac()
        smuggled = Credential.from_text(
            'Authorizer: POLICY\nLicensees: "Kmallory"\n'
            'Conditions: app_domain=="WebCom";\n')
        request = PolicyUpdateRequest(
            user="mallory", user_key="Kmallory", domain="DomainA",
            role="Clerk", credentials=(smuggled,))
        with pytest.raises(KeyComError, match="malformed.*POLICY"):
            service.submit(request)
        assert catalogue.extract_rbac() == before
        assert not catalogue.invoke("DomainA\\mallory", "SalariesDB",
                                    "Access")
        assert list(service.processed) == []  # rejected before evaluation
        assert audit.find(category="keycom.update") == []

    def test_negative_version_rejected(self, setup):
        keystore, _catalogue, service, _audit = setup
        request = PolicyUpdateRequest(
            user="userB", user_key="Kuser", domain="DomainA", role="Clerk",
            credentials=(), version=-1)
        with pytest.raises(KeyComError, match="malformed"):
            service.submit(request)


class TestHistoryWindow:
    """A long-lived service keeps only the newest evaluated requests; the
    audit log still records every one."""

    def test_processed_keeps_only_the_newest_requests(self, setup):
        keystore, _catalogue, service, audit = setup
        cred = membership_credential(keystore, "KWebCom", "Kuser",
                                     "DomainA", "Clerk")
        total = PROCESSED_WINDOW + 10
        for index in range(total):
            assert service.submit(PolicyUpdateRequest(
                user=f"user{index}", user_key="Kuser", domain="DomainA",
                role="Clerk", credentials=(cred,)))
        assert len(service.processed) == PROCESSED_WINDOW
        assert service.processed[0][0].user == "user10"
        assert service.processed[-1][0].user == f"user{total - 1}"
        assert len(audit.find(category="keycom.update",
                              outcome="allow")) == total
