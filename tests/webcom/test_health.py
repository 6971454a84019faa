"""Tests for policy-plane health: circuit breakers and degraded mediation."""

import pytest

from repro.crypto import Keystore
from repro.errors import LayerTimeoutError
from repro.keynote.api import KeyNoteSession
from repro.obs import Observability
from repro.util.clock import SimulatedClock
from repro.util.events import AuditLog
from repro.webcom.faults import (LayerFaultInjector, LayerFaultPlan,
                                 LayerFaultRule)
from repro.webcom.health import (TRANSITION_WINDOW, BreakerState,
                                 CircuitBreaker, DegradedMode)
from repro.webcom.stack import (LAST_GOOD_SIZE, AuthorisationStack, Layer,
                                MediationRequest)


# ---------------------------------------------------------------------------
# CircuitBreaker unit behaviour
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def test_closed_allows(self):
        breaker = CircuitBreaker("x", clock=SimulatedClock())
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_trips_after_threshold(self):
        breaker = CircuitBreaker("x", clock=SimulatedClock(),
                                 failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker("x", clock=SimulatedClock(),
                                 failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_after_cooldown_then_close(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker("x", clock=clock, failure_threshold=1,
                                 cooldown=10.0)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(9.9)
        assert not breaker.allow()
        clock.advance(0.1)
        assert breaker.allow()  # the half-open probe
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_failure_reopens(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker("x", clock=clock, failure_threshold=1,
                                 cooldown=5.0)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        # Cooldown restarted at the reopen instant.
        clock.advance(4.9)
        assert not breaker.allow()
        clock.advance(0.1)
        assert breaker.allow()

    def test_transitions_recorded_with_times(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker("x", clock=clock, failure_threshold=1,
                                 cooldown=2.0)
        breaker.record_failure()
        clock.advance(2.0)
        breaker.allow()
        breaker.record_success()
        states = [(old, new) for _t, old, new in breaker.transitions]
        assert states == [("closed", "open"), ("open", "half_open"),
                          ("half_open", "closed")]

    def test_transitions_emit_metrics_and_audit(self):
        obs = Observability()
        audit = AuditLog()
        breaker = CircuitBreaker("tm", clock=obs.clock, failure_threshold=1,
                                 obs=obs, audit=audit)
        breaker.record_failure()
        assert obs.metrics.counter("health.breaker.open").value == 1
        assert obs.metrics.counter("health.breaker.tm.open").value == 1
        assert any(s.name == "health.breaker.transition"
                   for s in obs.tracer.spans)
        records = audit.find(category="health.breaker")
        assert records and records[0].outcome == "open"

    def test_a_flapping_breaker_keeps_only_the_newest_transitions(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker("x", clock=clock, failure_threshold=1,
                                 cooldown=1.0)
        # Each round opens (a failed half-open probe reopens) and then
        # half-opens the breaker: two transitions.
        for _ in range(1000):
            breaker.record_failure()
            clock.advance(1.0)
            assert breaker.allow()
        assert breaker.transition_count == 2000
        snapshot = breaker.snapshot()
        assert len(breaker.transitions) == TRANSITION_WINDOW == 64
        assert len(snapshot["transitions"]) == 64
        assert snapshot["transition_count"] == 2000
        # The window holds the newest 32 rounds, oldest first.
        assert snapshot["transitions"][0] == [968.0, "half_open", "open"]
        assert snapshot["transitions"][-1] == [1000.0, "open", "half_open"]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CircuitBreaker("x", failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker("x", failure_threshold=2.5)
        with pytest.raises(ValueError):
            CircuitBreaker("x", cooldown=-1.0)
        with pytest.raises(ValueError):
            CircuitBreaker("x", cooldown=float("inf"))


# ---------------------------------------------------------------------------
# Degraded-mode mediation
# ---------------------------------------------------------------------------


def _request():
    return MediationRequest(user="u", user_key="Ku", object_type="T",
                            operation="read")


def _stack(app, **kwargs):
    clock = kwargs.pop("clock", None) or SimulatedClock()
    stack = AuthorisationStack(clock=clock, **kwargs)
    stack.plug_application(app)
    return stack, clock


class TestDegradedMediation:
    def test_raising_layer_becomes_error_decision_not_traceback(self):
        def boom(_request):
            raise RuntimeError("backend down")

        stack, _clock = _stack(boom)
        decision = stack.mediate(_request())  # must not raise
        assert not decision.allowed
        layer = decision.layer(Layer.APPLICATION)
        assert layer is not None and layer.error
        assert "fail_closed" in layer.detail
        assert decision.is_degraded()
        assert Layer.APPLICATION in decision.degraded

    def test_raising_layer_is_audited(self):
        def boom(_request):
            raise RuntimeError("backend down")

        audit = AuditLog()
        stack, _clock = _stack(boom, audit=audit)
        stack.mediate(_request())
        records = audit.find(category="stack.mediate")
        assert records
        assert records[-1].outcome == "deny"
        assert records[-1].detail["degraded"] == ["APPLICATION"]

    def test_fail_open_allows_but_marks_error(self):
        def boom(_request):
            raise RuntimeError("backend down")

        stack, _clock = _stack(boom)
        stack.set_degraded_mode(Layer.APPLICATION, DegradedMode.FAIL_OPEN)
        decision = stack.mediate(_request())
        assert decision.allowed
        assert decision.layer(Layer.APPLICATION).error
        assert decision.is_degraded()

    def test_fail_static_serves_last_known_good_marked_stale(self):
        calls = {"n": 0}

        def flaky(_request):
            calls["n"] += 1
            if calls["n"] > 1:
                raise LayerTimeoutError("down")
            return True

        stack, _clock = _stack(flaky)
        stack.set_degraded_mode(Layer.APPLICATION, DegradedMode.FAIL_STATIC)
        fresh = stack.mediate(_request())
        assert fresh.allowed and not fresh.stale
        stale = stack.mediate(_request())
        assert stale.allowed
        assert stale.stale
        assert stale.is_degraded()
        assert stack.stale_served == 1

    def test_fail_static_without_last_good_fails_closed(self):
        def boom(_request):
            raise LayerTimeoutError("down")

        stack, _clock = _stack(boom)
        stack.set_degraded_mode(Layer.APPLICATION, DegradedMode.FAIL_STATIC)
        decision = stack.mediate(_request())
        assert not decision.allowed
        assert not decision.stale
        assert decision.layer(Layer.APPLICATION).error

    def test_last_good_store_is_bounded(self):
        stack, _clock = _stack(lambda _request: True)
        stack.set_degraded_mode(Layer.APPLICATION, DegradedMode.FAIL_STATIC)
        for n in range(3 * LAST_GOOD_SIZE):
            stack.mediate(MediationRequest(user=f"u{n}", user_key="Ku",
                                           object_type="T", operation="read"))
        assert stack.health_snapshot()["last_good_entries"] == LAST_GOOD_SIZE

    def test_evicted_last_good_fails_closed(self):
        state = {"down": False}

        def app(_request):
            if state["down"]:
                raise LayerTimeoutError("down")
            return True

        def request(n):
            return MediationRequest(user=f"u{n}", user_key="Ku",
                                    object_type="T", operation="read")

        stack, _clock = _stack(app, breaker_threshold=10 ** 6)
        stack.set_degraded_mode(Layer.APPLICATION, DegradedMode.FAIL_STATIC)
        for n in range(LAST_GOOD_SIZE + 1):
            assert stack.mediate(request(n)).allowed
        state["down"] = True
        evicted = stack.mediate(request(0))
        assert not evicted.allowed and not evicted.stale
        kept = stack.mediate(request(LAST_GOOD_SIZE))
        assert kept.allowed and kept.stale

    def test_breaker_trips_and_skips_layer(self):
        calls = {"n": 0}

        def boom(_request):
            calls["n"] += 1
            raise RuntimeError("down")

        stack, _clock = _stack(boom, breaker_threshold=2,
                               breaker_cooldown=10.0)
        for _ in range(5):
            stack.mediate(_request())
        # After the second failure the breaker is OPEN: the layer is not
        # called again while cooling down.
        assert calls["n"] == 2
        assert stack.breaker(Layer.APPLICATION).state is BreakerState.OPEN

    def test_half_open_probe_recovers_layer(self):
        state = {"healthy": False, "calls": 0}

        def sometimes(_request):
            state["calls"] += 1
            if not state["healthy"]:
                raise RuntimeError("down")
            return True

        stack, clock = _stack(sometimes, breaker_threshold=1,
                              breaker_cooldown=5.0)
        assert not stack.mediate(_request()).allowed   # trips breaker
        state["healthy"] = True
        assert not stack.mediate(_request()).allowed   # still open, skipped
        assert state["calls"] == 1
        clock.advance(5.0)
        decision = stack.mediate(_request())           # half-open probe
        assert decision.allowed and not decision.is_degraded()
        assert stack.breaker(Layer.APPLICATION).state is BreakerState.CLOSED

    def test_degraded_decision_never_cached_as_fresh(self):
        calls = {"n": 0}

        def flaky(_request):
            calls["n"] += 1
            if calls["n"] == 2:
                raise LayerTimeoutError("down")
            return True

        stack, _clock = _stack(flaky, breaker_threshold=10)
        stack.set_degraded_mode(Layer.APPLICATION, DegradedMode.FAIL_STATIC)
        stack.mediate(_request())                 # fresh -> last-known-good
        stale = stack.mediate(_request())         # degraded, stale
        assert stale.stale
        follow_up = stack.mediate(_request())     # layer healthy again
        assert not follow_up.stale                # re-probed, not replayed

    def test_stale_serve_emits_health_metrics(self):
        obs = Observability()
        calls = {"n": 0}

        def flaky(_request):
            calls["n"] += 1
            if calls["n"] > 1:
                raise LayerTimeoutError("down")
            return True

        stack = AuthorisationStack(obs=obs, clock=obs.clock,
                                   breaker_threshold=10)
        stack.plug_application(flaky)
        stack.set_degraded_mode(Layer.APPLICATION, DegradedMode.FAIL_STATIC)
        stack.mediate(_request())
        stack.mediate(_request())
        assert obs.metrics.counter("health.stale_served").value == 1
        assert obs.metrics.counter(
            "health.layer.APPLICATION.error").value == 1
        assert any(s.name == "health.stale_served" for s in obs.tracer.spans)

    def test_injected_layer_faults_time_out_layers(self):
        clock = SimulatedClock()
        injector = LayerFaultInjector(LayerFaultPlan(seed=1, rules=(
            LayerFaultRule(layer="APPLICATION", fail=1.0),)))
        stack = AuthorisationStack(clock=clock, layer_faults=injector,
                                   breaker_threshold=100)
        stack.plug_application(lambda _request: True)
        decision = stack.mediate(_request())
        assert not decision.allowed
        assert decision.layer(Layer.APPLICATION).error
        assert injector.counts["APPLICATION"] == 1

    def test_short_circuit_above_degraded_layer_unaffected(self):
        # TM denies before the (broken) lower layer is even consulted: the
        # decision is a clean, non-degraded deny.
        keystore = Keystore()
        keystore.create("Ku")
        session = KeyNoteSession(keystore=keystore)
        session.add_policy('Authorizer: POLICY\nLicensees: "Knobody"\n'
                           'Conditions: true;')
        stack = AuthorisationStack(clock=session.clock)
        stack.plug_trust_management(session)
        decision = stack.mediate(_request())
        assert not decision.allowed
        assert not decision.is_degraded()

    def test_health_snapshot_shape(self):
        def boom(_request):
            raise RuntimeError("down")

        stack, _clock = _stack(boom, breaker_threshold=1)
        stack.mediate(_request())
        snap = stack.health_snapshot()
        assert snap["breakers"]["APPLICATION"]["state"] == "open"
        assert snap["degraded_modes"] == {}
        assert snap["stale_served"] == 0
