"""Direct unit tests for the DelegationService (Section 4.5).

The integration suite (tests/integration/test_figure67_delegation.py) reads
the paper's Figure 6/7 scenario; this file pins each service method on its
own — credential shape, signing, chain evaluation, revocation — plus the
admit_administrator guard that keeps the role authority from answering
action-shaped queries.
"""

import pytest

from repro.core.decentralisation import DelegationService
from repro.crypto import Keystore
from repro.keynote.api import KeyNoteSession
from repro.keynote.credential import Credential
from repro.translate.common import WEBCOM_APP_DOMAIN
from repro.translate.to_keynote import membership_conditions
from repro.util.clock import SimulatedClock


@pytest.fixture
def keystore():
    return Keystore()


@pytest.fixture
def service(keystore):
    session = KeyNoteSession(keystore=keystore)
    service = DelegationService(session, keystore, "KWebCom")
    service.admit_administrator()
    return service


class TestAdminRoot:
    def test_constructor_creates_the_admin_key(self, keystore):
        session = KeyNoteSession(keystore=keystore)
        DelegationService(session, keystore, "Kroot")
        assert "Kroot" in keystore

    def test_admit_administrator_installs_a_policy_assertion(self, keystore):
        session = KeyNoteSession(keystore=keystore)
        service = DelegationService(session, keystore, "KWebCom")
        credential = service.admit_administrator()
        assert credential.is_policy
        assert credential in session.policies

    def test_root_only_answers_membership_shaped_queries(self, service):
        """The guard conditions: holding a role must not leak into *action*
        queries (Permission/ObjectType present) through the admin root."""
        service.grant_role("Kclaire", "Finance", "Manager")
        assert service.holds_role("Kclaire", "Finance", "Manager")
        action = {"app_domain": WEBCOM_APP_DOMAIN, "Domain": "Finance",
                  "Role": "Manager", "Permission": "read",
                  "ObjectType": "SalariesDB"}
        assert not service.session.query(action, ["Kclaire"])


class TestGrantRole:
    def test_grant_is_signed_by_the_admin_key(self, service, keystore):
        credential = service.grant_role("Kclaire", "Finance", "Manager")
        assert credential.authorizer == "KWebCom"
        assert credential.verify(keystore)

    def test_grant_creates_the_user_key(self, service, keystore):
        assert "Knew" not in keystore
        service.grant_role("Knew", "Finance", "Clerk")
        assert "Knew" in keystore

    def test_granted_role_holds_only_for_that_pair(self, service):
        service.grant_role("Kclaire", "Finance", "Manager")
        assert service.holds_role("Kclaire", "Finance", "Manager")
        assert not service.holds_role("Kclaire", "Finance", "Clerk")
        assert not service.holds_role("Kclaire", "Sales", "Manager")
        assert not service.holds_role("Kother", "Finance", "Manager")


class TestDelegateRole:
    def test_effective_delegation_chain(self, service):
        service.grant_role("Kclaire", "Finance", "Manager")
        service.delegate_role("Kclaire", "Kfred", "Finance", "Manager")
        assert service.holds_role("Kfred", "Finance", "Manager")

    def test_delegation_without_holding_is_issuable_but_dead(self, service):
        # Claire holds Finance/Manager but never Sales/Manager: the
        # credential exists but the chain does not authorise Fred.
        service.grant_role("Kclaire", "Finance", "Manager")
        credential = service.delegate_role("Kclaire", "Kfred",
                                           "Sales", "Manager")
        assert credential in service.session.credentials
        assert not service.holds_role("Kfred", "Sales", "Manager")

    def test_two_level_chain(self, service):
        service.grant_role("Ka", "Finance", "Clerk")
        service.delegate_role("Ka", "Kb", "Finance", "Clerk")
        service.delegate_role("Kb", "Kc", "Finance", "Clerk")
        assert service.holds_role("Kc", "Finance", "Clerk")

    def test_delegation_cannot_widen_the_role(self, service):
        service.grant_role("Ka", "Finance", "Clerk")
        service.delegate_role("Ka", "Kb", "Finance", "Manager")
        assert not service.holds_role("Kb", "Finance", "Manager")


class TestRevocation:
    def test_revoking_the_link_kills_the_chain_tail(self, service):
        service.grant_role("Kclaire", "Finance", "Manager")
        link = service.delegate_role("Kclaire", "Kfred", "Finance", "Manager")
        assert service.holds_role("Kfred", "Finance", "Manager")
        assert service.revoke(link)
        assert not service.holds_role("Kfred", "Finance", "Manager")
        assert service.holds_role("Kclaire", "Finance", "Manager")

    def test_revoking_the_root_grant_kills_the_whole_chain(self, service):
        grant = service.grant_role("Kclaire", "Finance", "Manager")
        service.delegate_role("Kclaire", "Kfred", "Finance", "Manager")
        assert service.revoke(grant)
        assert not service.holds_role("Kclaire", "Finance", "Manager")
        assert not service.holds_role("Kfred", "Finance", "Manager")

    def test_revoke_unknown_credential_returns_false(self, service):
        grant = service.grant_role("Kclaire", "Finance", "Manager")
        assert service.revoke(grant)
        assert not service.revoke(grant)

    def test_revoke_leaves_other_credentials_standing(self, service):
        grant_a = service.grant_role("Ka", "Finance", "Clerk")
        service.grant_role("Kb", "Finance", "Auditor")
        assert service.revoke(grant_a)
        assert service.holds_role("Kb", "Finance", "Auditor")

    def test_revoke_keeps_the_other_grants_expiry(self, keystore):
        """Revoking one grant must leave every other credential as it
        was, its structured expiry included."""
        clock = SimulatedClock()
        session = KeyNoteSession(keystore=keystore, clock=clock)
        service = DelegationService(session, keystore, "KWebCom")
        service.admit_administrator()
        keystore.create("Ka")
        expiring = Credential.build(
            "KWebCom", '"Ka"', membership_conditions("Finance", "Clerk"),
        ).sign(keystore.pair("KWebCom").private)
        session.add_credential(expiring, expires_at=5.0)
        other = service.grant_role("Kb", "Finance", "Auditor")
        assert service.revoke(other)
        assert session.expiring() == {expiring: 5.0}
        clock.advance(100.0)
        assert session.sweep_expired() == [expiring]
        assert not service.holds_role("Ka", "Finance", "Clerk")
