"""The authorisation stack's TTL'd mediation cache."""

import pytest

from repro.crypto import Keystore
from repro.keynote.api import KeyNoteSession
from repro.keynote.credential import Credential
from repro.obs import Observability
from repro.util.clock import SimulatedClock
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


def app_stack(clock, ttl=60.0, allow=True):
    predicate = RecordingPredicate(allow)
    stack = AuthorisationStack(clock=clock, cache_ttl=ttl)
    stack.plug_application(predicate)
    return stack, predicate


class TestMediationCache:
    def test_hit_serves_without_rerunning_layers(self, clock):
        stack, predicate = app_stack(clock)
        first = stack.mediate(REQUEST)
        second = stack.mediate(REQUEST)
        assert first.allowed and second.allowed
        assert predicate.calls == 1
        assert stack.cache_info() == {"entries": 1, "hits": 1, "misses": 1,
                                      "invalidated": 0}

    def test_denials_are_cached_too(self, clock):
        stack, predicate = app_stack(clock, allow=False)
        assert not stack.mediate(REQUEST).allowed
        assert not stack.mediate(REQUEST).allowed
        assert predicate.calls == 1

    def test_distinct_requests_are_distinct_entries(self, clock):
        stack, predicate = app_stack(clock)
        stack.mediate(REQUEST)
        stack.mediate(MediationRequest(user="bob", user_key="Kbob",
                                       object_type="graph",
                                       operation="stage"))
        assert predicate.calls == 2 and stack.cache_hits == 0

    def test_ttl_expiry_reruns_the_layers(self, clock):
        stack, predicate = app_stack(clock, ttl=10.0)
        stack.mediate(REQUEST)
        clock.advance(5.0)
        stack.mediate(REQUEST)  # within TTL
        clock.advance(6.0)
        stack.mediate(REQUEST)  # 11s after the store: expired
        assert predicate.calls == 2
        assert stack.cache_hits == 1 and stack.cache_misses == 2

    def test_disabled_without_ttl(self, clock):
        predicate = RecordingPredicate()
        stack = AuthorisationStack(clock=clock)  # cache_ttl=None
        stack.plug_application(predicate)
        stack.mediate(REQUEST)
        stack.mediate(REQUEST)
        assert predicate.calls == 2
        assert stack.cache_info() == {"entries": 0, "hits": 0, "misses": 0,
                                      "invalidated": 0}

    def test_replugging_invalidates(self, clock):
        stack, predicate = app_stack(clock)
        stack.mediate(REQUEST)
        replacement = RecordingPredicate()
        stack.plug_application(replacement)
        stack.mediate(REQUEST)
        assert replacement.calls == 1  # not served the stale decision

    def test_mark_uncacheable_layer_reruns_every_time(self, clock):
        stack, predicate = app_stack(clock)
        stack.mark_uncacheable(Layer.APPLICATION)
        stack.mediate(REQUEST)
        stack.mediate(REQUEST)
        assert predicate.calls == 2
        assert stack.cache_info()["entries"] == 0

    def test_denial_above_uncacheable_layer_is_still_cached(self, clock):
        # L3 denies before the (uncacheable) TM layer is consulted, so the
        # cached replay reproduces the same short-circuit.
        session = KeyNoteSession(keystore=Keystore(), clock=clock)
        predicate = RecordingPredicate(allow=False)
        stack = AuthorisationStack(clock=clock, cache_ttl=60.0)
        stack.plug_trust_management(session)
        stack.plug_application(predicate)
        stack.mark_uncacheable(Layer.TRUST_MANAGEMENT)
        decision = stack.mediate(REQUEST)
        assert not decision.allowed
        assert decision.deciding_layer() == Layer.APPLICATION
        assert stack.mediate(REQUEST).allowed is False
        assert predicate.calls == 1  # served from cache

    def test_metrics_and_span_annotation(self, clock):
        obs = Observability()
        predicate = RecordingPredicate()
        stack = AuthorisationStack(obs=obs, clock=obs.clock, cache_ttl=60.0)
        stack.plug_application(predicate)
        stack.mediate(REQUEST)
        stack.mediate(REQUEST)
        assert obs.metrics.counter("stack.cache.miss").value == 1
        assert obs.metrics.counter("stack.cache.hit").value == 1
        spans = obs.tracer.find("stack.mediate")
        assert [s.attributes["cached"] for s in spans] == [False, True]


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
        stack = AuthorisationStack(clock=clock, cache_ttl=3600.0)
        stack.plug_trust_management(session)
        assert stack.mediate(REQUEST).allowed
        assert stack.mediate(REQUEST).allowed  # cached
        assert stack.cache_hits == 1
        assert session.revoke_credential(credential)
        # The fingerprint changed: the stale ALLOW must not be replayed.
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
        stack = AuthorisationStack(clock=clock, cache_ttl=3600.0)
        stack.plug_trust_management(session)
        assert not stack.mediate(REQUEST).allowed
        session.add_credential(
            Credential.build("Kdelegate", '"Kalice"', "true").sign(
                keystore.pair("Kdelegate").private))
        assert stack.mediate(REQUEST).allowed

    def test_fail_static_stale_serve_is_never_recached_as_fresh(self, clock):
        """The staleness edge at the cache/breaker boundary: a fail-static
        decision served from the last-known-good store during an outage must
        never be returned by the TTL cache as *fresh* once the layer
        recovers and the breaker closes."""
        session, _credential = self.build_session(clock)
        injector = LayerFaultInjector(LayerFaultPlan(seed=0, rules=(
            LayerFaultRule(layer="TRUST_MANAGEMENT", fail=1.0,
                           start=10.0, end=50.0),)))
        stack = AuthorisationStack(clock=clock, cache_ttl=5.0,
                                   layer_faults=injector,
                                   breaker_threshold=1,
                                   breaker_cooldown=20.0)
        stack.set_degraded_mode(Layer.TRUST_MANAGEMENT,
                                DegradedMode.FAIL_STATIC)
        stack.plug_trust_management(session)

        healthy = stack.mediate(REQUEST)
        assert healthy.allowed and not healthy.stale

        clock.advance(15.0)  # t=15: TTL lapsed, fault window open
        stale = stack.mediate(REQUEST)
        assert stale.allowed == healthy.allowed
        assert stale.stale and stale.is_degraded()
        # The degraded decision must not have been stored: the cache holds
        # nothing (the healthy entry expired, the stale one was skipped).
        assert stack.cache_info()["entries"] == 0
        assert stack.mediate(REQUEST).stale  # still degraded, still marked

        clock.advance(45.0)  # t=60: fault over, breaker cooldown passed
        fresh = stack.mediate(REQUEST)
        assert fresh.allowed and not fresh.stale and not fresh.is_degraded()
        # The fresh decision is cached; a hit must not resurrect staleness.
        cached = stack.mediate(REQUEST)
        assert not cached.stale and not cached.is_degraded()
        assert stack.cache_info()["entries"] == 1

    def test_invalidate_cache_is_explicit_flush(self, clock):
        session, _credential = self.build_session(clock)
        stack = AuthorisationStack(clock=clock, cache_ttl=3600.0)
        stack.plug_trust_management(session)
        stack.mediate(REQUEST)
        assert stack.cache_info()["entries"] == 1
        stack.invalidate_cache()
        assert stack.cache_info()["entries"] == 0
        stack.mediate(REQUEST)
        assert stack.cache_hits == 0 and stack.cache_misses == 2
