"""The authorisation stack's one decision store: the trust-management
checker's cache, read directly by L2.

The stack keeps no decisions of its own.  Every configured layer is asked
about every request; L2 answers from the checker's exact,
dependency-indexed decision cache when it holds the request's value and
runs the fixpoint otherwise.
"""

import pytest

from repro.crypto import Keystore
from repro.keynote.api import KeyNoteSession
from repro.keynote.credential import Credential
from repro.obs import Observability
from repro.util.clock import SimulatedClock
from repro.util.events import AuditLog
from repro.webcom.faults import (LayerFaultInjector, LayerFaultPlan,
                                 LayerFaultRule)
from repro.webcom.health import DegradedMode
from repro.webcom.stack import AuthorisationStack, Layer, MediationRequest


REQUEST = MediationRequest(user="alice", user_key="Kalice",
                           object_type="graph", operation="stage")


class RecordingPredicate:
    """An L3 predicate that counts how often the stack consults it."""

    def __init__(self, allow=True):
        self.allow = allow
        self.calls = 0

    def __call__(self, request):
        self.calls += 1
        return self.allow


@pytest.fixture
def clock():
    return SimulatedClock()


def tm_stack(clock, licensee="Kalice", **kwargs):
    """A stack with L2 plugged over a session whose POLICY licenses
    ``licensee`` directly."""
    keystore = Keystore()
    keystore.create("Kalice")
    session = KeyNoteSession(keystore=keystore, clock=clock)
    session.add_policy(Credential.build("POLICY", f'"{licensee}"', "true"))
    stack = AuthorisationStack(clock=clock, **kwargs)
    stack.plug_trust_management(session)
    return stack, session


class TestMediationCache:
    def test_hit_serves_without_rerunning_layers(self, clock):
        """A warm request skips the fixpoint, not the layer: L2 is read
        from the checker cache and the session runs no second query."""
        stack, session = tm_stack(clock)
        first = stack.mediate(REQUEST)
        second = stack.mediate(REQUEST)
        assert first.allowed and second.allowed
        assert session.checker.cache_misses == 1
        assert session.checker.cache_hits == 0  # never queried again
        assert second.layer(Layer.TRUST_MANAGEMENT).detail == \
            "compliance=true"
        assert stack.cache_info() == {"entries": 0, "hits": 1, "misses": 1,
                                      "invalidated": 0}

    def test_denials_are_cached_too(self, clock):
        stack, session = tm_stack(clock, licensee="Knobody")
        assert not stack.mediate(REQUEST).allowed
        decision = stack.mediate(REQUEST)
        assert not decision.allowed
        assert decision.deciding_layer() == Layer.TRUST_MANAGEMENT
        assert decision.layer(Layer.TRUST_MANAGEMENT).detail == \
            "compliance=false"
        assert stack.cache_hits == 1 and session.checker.cache_misses == 1

    def test_distinct_requests_are_distinct_entries(self, clock):
        stack, session = tm_stack(clock)
        stack.mediate(REQUEST)
        stack.mediate(MediationRequest(user="bob", user_key="Kbob",
                                       object_type="graph",
                                       operation="stage"))
        assert stack.cache_hits == 0 and stack.cache_misses == 2
        assert session.checker.cache_info()["entries"] == 2

    def test_disabled_without_ttl(self, clock):
        """The stack itself caches nothing: a layer without a decision
        cache of its own is consulted on every request."""
        predicate = RecordingPredicate()
        stack = AuthorisationStack(clock=clock)
        stack.plug_application(predicate)
        stack.mediate(REQUEST)
        stack.mediate(REQUEST)
        assert predicate.calls == 2
        assert stack.cache_info() == {"entries": 0, "hits": 0, "misses": 0,
                                      "invalidated": 0}

    def test_replugging_invalidates(self, clock):
        predicate = RecordingPredicate()
        stack = AuthorisationStack(clock=clock)
        stack.plug_application(predicate)
        stack.mediate(REQUEST)
        replacement = RecordingPredicate()
        stack.plug_application(replacement)
        stack.mediate(REQUEST)
        assert replacement.calls == 1  # not served the earlier decision

    def test_metrics_and_span_annotation(self, clock):
        obs = Observability()
        audit = AuditLog()
        stack, session = tm_stack(obs.clock, obs=obs, audit=audit)
        session.audit = audit
        stack.mediate(REQUEST)
        stack.mediate(REQUEST)
        assert obs.metrics.counter("stack.cache.miss").value == 1
        assert obs.metrics.counter("stack.cache.hit").value == 1
        spans = obs.tracer.find("stack.mediate")
        assert [s.attributes["cached"] for s in spans] == [False, True]
        # A hit keeps its health-checked layer span but runs no query.
        assert len(obs.tracer.find("stack.layer.TRUST_MANAGEMENT")) == 2
        records = audit.find(category="stack.mediate")
        assert [r.detail["cached"] for r in records] == [False, True]
        assert len(audit.find(category="keynote.query")) == 1


class TestTrustManagementInvalidation:
    def build_session(self, clock):
        keystore = Keystore()
        keystore.create("Kdelegate")
        keystore.create("Kalice")
        session = KeyNoteSession(keystore=keystore, clock=clock)
        session.add_policy(
            Credential.build("POLICY", '"Kdelegate"', "true"))
        credential = Credential.build(
            "Kdelegate", '"Kalice"', "true").sign(
                keystore.pair("Kdelegate").private)
        session.add_credential(credential)
        return session, credential

    def test_revocation_invalidates_a_cached_allow(self, clock):
        session, credential = self.build_session(clock)
        stack = AuthorisationStack(clock=clock)
        stack.plug_trust_management(session)
        assert stack.mediate(REQUEST).allowed
        assert stack.mediate(REQUEST).allowed  # L2 from the TM cache
        assert stack.cache_hits == 1
        assert session.revoke_credential(credential)
        # The revocation evicted the decision: no stale ALLOW is replayed.
        decision = stack.mediate(REQUEST)
        assert not decision.allowed
        assert decision.deciding_layer() == Layer.TRUST_MANAGEMENT

    def test_new_credential_invalidates_a_cached_deny(self, clock):
        keystore = Keystore()
        keystore.create("Kdelegate")
        keystore.create("Kalice")
        session = KeyNoteSession(keystore=keystore, clock=clock)
        session.add_policy(
            Credential.build("POLICY", '"Kdelegate"', "true"))
        stack = AuthorisationStack(clock=clock)
        stack.plug_trust_management(session)
        assert not stack.mediate(REQUEST).allowed
        assert not stack.mediate(REQUEST).allowed  # a warm DENY
        assert stack.cache_hits == 1
        session.add_credential(
            Credential.build("Kdelegate", '"Kalice"', "true").sign(
                keystore.pair("Kdelegate").private))
        assert stack.mediate(REQUEST).allowed

    def test_fail_static_stale_serve_is_never_recached_as_fresh(self, clock):
        """The staleness edge at the cache/breaker boundary: a fail-static
        decision served from the last-known-good store during an outage must
        never come back as *fresh* once the layer recovers and the breaker
        closes."""
        session, _credential = self.build_session(clock)
        injector = LayerFaultInjector(LayerFaultPlan(seed=0, rules=(
            LayerFaultRule(layer="TRUST_MANAGEMENT", fail=1.0,
                           start=10.0, end=50.0),)))
        stack = AuthorisationStack(clock=clock, layer_faults=injector,
                                   breaker_threshold=1,
                                   breaker_cooldown=20.0)
        stack.set_degraded_mode(Layer.TRUST_MANAGEMENT,
                                DegradedMode.FAIL_STATIC)
        stack.plug_trust_management(session)

        healthy = stack.mediate(REQUEST)
        assert healthy.allowed and not healthy.stale

        clock.advance(15.0)  # t=15: fault window open
        stale = stack.mediate(REQUEST)
        assert stale.allowed == healthy.allowed
        assert stale.stale and stale.is_degraded()
        assert stack.mediate(REQUEST).stale  # still degraded, still marked

        clock.advance(45.0)  # t=60: fault over, breaker cooldown passed
        fresh = stack.mediate(REQUEST)
        assert fresh.allowed and not fresh.stale and not fresh.is_degraded()
        # A TM-cache hit must not resurrect staleness either.
        hits = stack.cache_hits
        cached = stack.mediate(REQUEST)
        assert not cached.stale and not cached.is_degraded()
        assert stack.cache_hits == hits + 1
