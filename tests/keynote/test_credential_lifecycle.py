"""Credential lifecycle robustness: expiry, revocation races, clock skew.

The PR-3 decision caches (compliance checker decision cache, stack
mediation cache) make revocation and expiry *racy* by construction: a
cached ALLOW must never outlive the credential it relied on.  And under
clock skew, naive per-query ``_cur_time`` expiry makes verdicts flap
between two clients whose clocks disagree — the structured
``expires_at`` + grace-window sweep is the deterministic alternative.
"""

import pytest

from repro.crypto import Keystore
from repro.errors import CredentialError
from repro.keynote.api import KeyNoteSession
from repro.keynote.credential import Credential
from repro.obs import Observability
from repro.util.clock import SimulatedClock
from repro.util.events import AuditLog
from repro.webcom.stack import AuthorisationStack, MediationRequest

POLICY_TEXT = '''
Authorizer: POLICY
Licensees: "Kbob"
Conditions: app_domain=="DB";
'''


@pytest.fixture
def keystore() -> Keystore:
    ks = Keystore()
    for name in ("Kbob", "Kalice"):
        ks.create(name)
    return ks


def _delegation(keystore, conditions='app_domain=="DB"'):
    return Credential.build("Kbob", '"Kalice"',
                            conditions).signed_by(keystore)


ATTRS = {"app_domain": "DB"}


class TestCurTimeExpiryBoundary:
    """A ``_cur_time < T`` credential flips exactly at T (exclusive)."""

    def test_passes_before_expiry_instant(self, keystore):
        clock = SimulatedClock()
        session = KeyNoteSession(keystore=keystore, clock=clock)
        session.add_policy(POLICY_TEXT)
        session.add_credential(_delegation(
            keystore, 'app_domain=="DB" && _cur_time < 100.0'))
        clock.advance(99.0)
        assert session.query(ATTRS, ["Kalice"])

    def test_fails_exactly_at_expiry_instant(self, keystore):
        clock = SimulatedClock()
        session = KeyNoteSession(keystore=keystore, clock=clock)
        session.add_policy(POLICY_TEXT)
        session.add_credential(_delegation(
            keystore, 'app_domain=="DB" && _cur_time < 100.0'))
        clock.advance(100.0)  # _cur_time == 100.0: 100.0 < 100.0 is false
        assert not session.query(ATTRS, ["Kalice"])

    def test_inclusive_boundary_passes_at_instant(self, keystore):
        clock = SimulatedClock()
        session = KeyNoteSession(keystore=keystore, clock=clock)
        session.add_policy(POLICY_TEXT)
        session.add_credential(_delegation(
            keystore, 'app_domain=="DB" && _cur_time <= 100.0'))
        clock.advance(100.0)
        assert session.query(ATTRS, ["Kalice"])
        clock.advance(0.001)
        assert not session.query(ATTRS, ["Kalice"])


class TestRevocationRacesDecisionCaches:
    def test_revocation_invalidates_checker_decision_cache(self, keystore):
        session = KeyNoteSession(keystore=keystore)
        session.add_policy(POLICY_TEXT)
        cred = session.add_credential(_delegation(keystore))
        assert session.query(ATTRS, ["Kalice"])   # cached ALLOW
        assert session.revoke_credential(cred)
        assert not session.query(ATTRS, ["Kalice"])

    def test_revocation_invalidates_stack_mediation_cache(self, keystore):
        clock = SimulatedClock()
        session = KeyNoteSession(keystore=keystore, clock=clock)
        session.add_policy(POLICY_TEXT)
        cred = session.add_credential(_delegation(keystore))
        stack = AuthorisationStack(clock=clock)
        stack.plug_trust_management(session)
        request = MediationRequest(user="alice", user_key="Kalice",
                                   object_type="DB", operation="read",
                                   attributes={"app_domain": "DB"})
        assert stack.mediate(request).allowed
        assert stack.mediate(request).allowed      # L2 from the TM cache
        assert stack.cache_hits == 1
        session.revoke_credential(cred)
        # The cached ALLOW relied on the revoked credential: the revocation
        # evicted it, so L2 runs the fixpoint again and denies.
        assert not stack.mediate(request).allowed
        assert stack.cache_hits == 1

    def test_expiry_sweep_invalidates_stack_mediation_cache(self, keystore):
        clock = SimulatedClock()
        session = KeyNoteSession(keystore=keystore, clock=clock)
        session.add_policy(POLICY_TEXT)
        session.add_credential(_delegation(keystore), expires_at=50.0)
        stack = AuthorisationStack(clock=clock)
        stack.plug_trust_management(session)
        request = MediationRequest(user="alice", user_key="Kalice",
                                   object_type="DB", operation="read",
                                   attributes={"app_domain": "DB"})
        assert stack.mediate(request).allowed
        clock.advance(60.0)
        assert session.sweep_expired()
        assert not stack.mediate(request).allowed


class TestGraceWindowBoundaries:
    def test_grace_defaults_to_twice_clock_skew(self, keystore):
        session = KeyNoteSession(keystore=keystore, clock_skew=3.0)
        assert session.expiry_grace == 6.0
        explicit = KeyNoteSession(keystore=keystore, clock_skew=3.0,
                                  expiry_grace=1.0)
        assert explicit.expiry_grace == 1.0

    def test_negative_skew_or_grace_rejected(self, keystore):
        with pytest.raises(CredentialError):
            KeyNoteSession(keystore=keystore, clock_skew=-1.0)
        with pytest.raises(CredentialError):
            KeyNoteSession(keystore=keystore, expiry_grace=-0.5)

    def test_not_swept_inside_grace_window(self, keystore):
        clock = SimulatedClock()
        session = KeyNoteSession(keystore=keystore, clock=clock,
                                 clock_skew=5.0)  # grace = 10
        session.add_policy(POLICY_TEXT)
        session.add_credential(_delegation(keystore), expires_at=100.0)
        clock.advance(109.9)  # expired, but within expires_at + grace
        assert session.sweep_expired() == []
        assert session.query(ATTRS, ["Kalice"])

    def test_swept_exactly_at_grace_boundary(self, keystore):
        clock = SimulatedClock()
        session = KeyNoteSession(keystore=keystore, clock=clock,
                                 clock_skew=5.0)
        session.add_policy(POLICY_TEXT)
        cred = session.add_credential(_delegation(keystore), expires_at=100.0)
        clock.advance(110.0)  # now == expires_at + grace: inclusive sweep
        assert session.sweep_expired() == [cred]
        assert not session.query(ATTRS, ["Kalice"])
        assert session.expiring() == {}

    def test_no_flapping_between_sweeps(self, keystore):
        # Between sweeps the verdict is constant even as queries cross the
        # raw expiry instant — the deterministic alternative to per-query
        # clock comparisons under skew.
        clock = SimulatedClock()
        session = KeyNoteSession(keystore=keystore, clock=clock,
                                 clock_skew=5.0)
        session.add_policy(POLICY_TEXT)
        session.add_credential(_delegation(keystore), expires_at=100.0)
        verdicts = []
        for _ in range(8):
            clock.advance(1.0)  # t = 96..103, crossing expires_at = 100
            verdicts.append(bool(session.query(ATTRS, ["Kalice"])))
        assert verdicts == [True] * 8

    def test_sweep_audits_and_counts_expiries(self, keystore):
        obs = Observability()
        audit = AuditLog()
        session = KeyNoteSession(keystore=keystore, clock=obs.clock,
                                 audit=audit, obs=obs)
        session.add_policy(POLICY_TEXT)
        session.add_credential(_delegation(keystore), expires_at=10.0)
        obs.clock.advance(20.0)
        assert len(session.sweep_expired()) == 1
        assert obs.metrics.counter("health.credential.expired").value == 1
        records = audit.find(category="keynote.expire")
        assert records and records[0].detail["expires_at"] == 10.0

    def test_rejects_non_finite_expiry(self, keystore):
        session = KeyNoteSession(keystore=keystore)
        session.add_policy(POLICY_TEXT)
        with pytest.raises(CredentialError):
            session.add_credential(_delegation(keystore),
                                   expires_at=float("nan"))

    def test_revoke_drops_expiry_entry(self, keystore):
        session = KeyNoteSession(keystore=keystore)
        session.add_policy(POLICY_TEXT)
        cred = session.add_credential(_delegation(keystore), expires_at=5.0)
        session.revoke_credential(cred)
        assert session.expiring() == {}
        session.add_credential(_delegation(keystore), expires_at=5.0)
        session.clear_credentials()
        assert session.expiring() == {}
