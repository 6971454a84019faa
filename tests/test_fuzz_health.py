"""Health-machinery robustness: property tests for breakers, fault plans,
expiry windows and update-request validation.

Same discipline as ``test_fuzz_parsers.py``: arbitrary inputs must either
work or raise the documented exception, and rejected inputs must leave no
partial state behind (a malformed update request never half-applies).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FaultPlanError, KeyComError, LayerTimeoutError
from repro.keynote.api import KeyNoteSession
from repro.util.clock import SimulatedClock
from repro.webcom.faults import LayerFaultInjector, LayerFaultPlan, LayerFaultRule
from repro.webcom.health import BreakerState, CircuitBreaker
from repro.webcom.keycom import PolicyUpdateRequest

finite_floats = st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e6, max_value=1e6)


class TestBreakerProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=-3, max_value=8),
           st.floats(min_value=-5.0, max_value=50.0,
                     allow_nan=False, allow_infinity=False))
    def test_constructor_total(self, threshold, cooldown):
        try:
            breaker = CircuitBreaker("x", clock=SimulatedClock(),
                                     failure_threshold=threshold,
                                     cooldown=cooldown)
        except ValueError:
            assert threshold < 1 or cooldown < 0
            return
        assert breaker.state is BreakerState.CLOSED

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(["fail", "ok", "tick"]),
                    min_size=1, max_size=40),
           st.integers(min_value=1, max_value=5),
           st.floats(min_value=0.0, max_value=10.0,
                     allow_nan=False, allow_infinity=False))
    def test_breaker_invariants_under_any_schedule(self, events, threshold,
                                                   cooldown):
        clock = SimulatedClock()
        breaker = CircuitBreaker("x", clock=clock,
                                 failure_threshold=threshold,
                                 cooldown=cooldown)
        for event in events:
            if event == "fail":
                breaker.record_failure()
            elif event == "ok":
                breaker.record_success()
            else:
                clock.advance(1.0)
                breaker.allow()
        # Invariants: transitions alternate states, CLOSED after any
        # success, and allow() is total.
        assert isinstance(breaker.allow(), bool)
        for _t, old, new in breaker.transitions:
            assert old != new
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=5),
           st.floats(min_value=0.1, max_value=20.0,
                     allow_nan=False, allow_infinity=False))
    def test_open_breaker_always_reopens_eventually(self, threshold,
                                                    cooldown):
        clock = SimulatedClock()
        breaker = CircuitBreaker("x", clock=clock,
                                 failure_threshold=threshold,
                                 cooldown=cooldown)
        for _ in range(threshold):
            breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        clock.advance(cooldown)
        assert breaker.allow()
        assert breaker.state is BreakerState.HALF_OPEN


class TestLayerFaultPlanProperties:
    @settings(max_examples=100, deadline=None)
    @given(finite_floats, finite_floats, finite_floats)
    def test_rule_constructor_total(self, fail, start, end):
        try:
            rule = LayerFaultRule(layer="X", fail=fail, start=start, end=end)
        except FaultPlanError:
            assert not 0.0 <= fail <= 1.0 or start < 0 or end < start
            return
        assert rule.matches("X", start) == (start < end)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_chaos_plans_always_valid_and_deterministic(self, seed):
        layers = ("TRUST_MANAGEMENT", "APPLICATION", "OS")
        plan = LayerFaultPlan.chaos(seed, layers)
        again = LayerFaultPlan.chaos(seed, layers)
        assert plan == again
        injector = LayerFaultInjector(plan)
        clock = 0.0
        fired = 0
        for _ in range(50):
            clock += 0.7
            for layer in layers:
                try:
                    injector.check(layer, clock)
                except LayerTimeoutError:
                    fired += 1
        assert fired == sum(injector.counts.values())


class TestExpirySweepProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                              allow_nan=False, allow_infinity=False),
                    min_size=0, max_size=8),
           st.floats(min_value=0.0, max_value=20.0,
                     allow_nan=False, allow_infinity=False),
           st.floats(min_value=0.0, max_value=150.0,
                     allow_nan=False, allow_infinity=False))
    def test_sweep_never_crashes_and_is_exact(self, expiries, skew, advance):
        from repro.crypto import Keystore
        from repro.keynote.credential import Credential

        keystore = Keystore()
        keystore.create("Kbob")
        clock = SimulatedClock()
        session = KeyNoteSession(keystore=keystore, clock=clock,
                                 clock_skew=skew)
        session.add_policy('Authorizer: POLICY\nLicensees: "Kbob"\n'
                           'Conditions: true;')
        for i, expiry in enumerate(expiries):
            cred = Credential.build("Kbob", f'"K{i}"',
                                    f'tag=="t{i}"').signed_by(keystore)
            session.add_credential(cred, expires_at=expiry)
        clock.advance(advance)
        swept = session.sweep_expired()
        cutoff = advance - session.expiry_grace
        assert len(swept) == sum(1 for e in expiries if e <= cutoff)
        # A second sweep at the same instant finds nothing new.
        assert session.sweep_expired() == []
        remaining = session.expiring().values()
        assert all(e > cutoff for e in remaining)


# Field strategies deliberately include valid values, blanks and junk.
_field = st.one_of(st.text(max_size=8), st.just("  "),
                   st.just("user"), st.just("DomainA"))


class TestUpdateRequestValidation:
    @settings(max_examples=150, deadline=None)
    @given(_field, _field, _field, _field,
           st.integers(min_value=-3, max_value=3))
    def test_validate_total_and_exact(self, user, key, domain, role,
                                      version):
        request = PolicyUpdateRequest(
            user=user, user_key=key, domain=domain, role=role,
            credentials=(), version=version)
        should_fail = (not user.strip() or not key.strip()
                       or not domain.strip() or not role.strip()
                       or version < 0)
        try:
            request.validate()
            assert not should_fail
        except KeyComError:
            assert should_fail

    @settings(max_examples=60, deadline=None)
    @given(st.text(max_size=6))
    def test_malformed_request_never_partially_applied(self, user):
        """A rejected request must leave middleware and audit untouched by
        application (the reject happens before any credential query)."""
        from repro.middleware.ejb import EJBServer
        from repro.webcom.keycom import KeyComService

        session = KeyNoteSession(keystore=None, verify_signatures=False)
        session.add_policy('Authorizer: POLICY\nLicensees: "Kany"\n'
                           'Conditions: true;')
        server = EJBServer("h", "s")
        service = KeyComService(server, session)
        request = PolicyUpdateRequest(
            user=user, user_key="Kany", domain="h:s/app", role="R",
            credentials=(), version=-1)  # version always malformed
        before = server.extract_rbac()
        try:
            service.submit(request)
            raise AssertionError("negative version must be rejected")
        except KeyComError:
            pass
        assert server.extract_rbac() == before
        assert list(service.processed) == []
        assert service.applied_ids == set()
