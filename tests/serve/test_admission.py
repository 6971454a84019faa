"""Admission control, brownout hysteresis and retry budgets — all on the
simulated clock, testable to the exact second."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.admission import (
    ADMIN,
    BULK,
    CONTROL,
    DATA,
    DEFAULT_TIERS,
    TRANSITION_WINDOW,
    AdmissionController,
    BrownoutController,
    Refusal,
    RetryBudget,
    Ticket,
    TokenBucket,
    backoff_delay,
    method_priority,
)
from repro.util.clock import SimulatedClock
from repro.webcom.health import PressureWindow


class TestPriorities:
    def test_control_plane_methods_are_control_class(self):
        for method in ("hello", "ping", "status", "shutdown", "revoke",
                       "sweep", "subscribe", "unsubscribe"):
            assert method_priority(method) == CONTROL

    def test_data_and_admin_and_bulk(self):
        assert method_priority("mediate") == DATA
        assert method_priority("probe") == DATA
        assert method_priority("update") == ADMIN
        assert method_priority("translate") == BULK

    def test_unknown_methods_sort_with_bulk(self):
        assert method_priority("frobnicate") == BULK


class TestTokenBucket:
    def test_burst_then_refill_on_the_clock(self):
        clock = SimulatedClock()
        bucket = TokenBucket(rate=2.0, burst=4.0, clock=clock)
        assert [bucket.take() for _ in range(5)] == [True] * 4 + [False]
        assert bucket.retry_after() == pytest.approx(0.5)
        clock.advance(0.5)
        assert bucket.take()
        assert not bucket.take()

    def test_refill_caps_at_burst(self):
        clock = SimulatedClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        clock.advance(100.0)
        assert [bucket.take() for _ in range(3)] == [True, True, False]

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


class TestAdmissionController:
    def test_control_is_always_admitted_and_never_counted(self):
        admission = AdmissionController(clock=SimulatedClock(),
                                        max_inflight=0)
        ticket = admission.admit("peer-1", "ping")
        assert isinstance(ticket, Ticket)
        assert ticket.priority == CONTROL and not ticket.counted
        assert admission.inflight == 0

    def test_inflight_budget_refuses_with_retry_after(self):
        admission = AdmissionController(clock=SimulatedClock(),
                                        max_inflight=2)
        tickets = [admission.admit("p", "mediate") for _ in range(2)]
        refusal = admission.admit("p", "mediate")
        assert isinstance(refusal, Refusal)
        assert refusal.kind == "overloaded"
        assert refusal.error_type == "OverloadedError"
        assert refusal.retry_after > 0
        admission.release(tickets[0])
        assert isinstance(admission.admit("p", "mediate"), Ticket)

    def test_release_is_idempotent_per_ticket(self):
        admission = AdmissionController(clock=SimulatedClock(),
                                        max_inflight=4)
        ticket = admission.admit("p", "mediate")
        admission.release(ticket)
        admission.release(ticket)
        assert admission.inflight == 0

    def test_per_peer_rate_limit_isolates_peers(self):
        clock = SimulatedClock()
        admission = AdmissionController(clock=clock, max_inflight=100,
                                        peer_rate=1.0, peer_burst=1.0)
        first = admission.admit("noisy", "mediate")
        admission.release(first)
        refusal = admission.admit("noisy", "mediate")
        assert isinstance(refusal, Refusal)
        assert refusal.kind == "rate_limited"
        assert refusal.error_type == "RateLimitedError"
        assert refusal.retry_after == pytest.approx(1.0)
        # A different peer is untouched by the noisy one's bucket.
        assert isinstance(admission.admit("quiet", "mediate"), Ticket)

    def test_forget_peer_drops_bucket_state(self):
        admission = AdmissionController(clock=SimulatedClock(),
                                        max_inflight=10, peer_rate=1.0)
        admission.release(admission.admit("p", "mediate"))
        admission.forget_peer("p")
        assert admission.snapshot()["peers_tracked"] == 0

    def test_snapshot_counts_sheds_by_kind_and_priority(self):
        admission = AdmissionController(clock=SimulatedClock(),
                                        max_inflight=0)
        admission.admit("p", "mediate")
        admission.admit("p", "translate")
        snap = admission.snapshot()
        assert snap["shed"]["overloaded"] == 2
        assert snap["shed"]["total"] == admission.sheds_total == 2
        assert snap["shed"]["by_priority"]["data"] == 1
        assert snap["shed"]["by_priority"]["bulk"] == 1
        assert snap["shed"]["by_priority"]["control"] == 0


def _hot_brownout(clock, **kwargs):
    return BrownoutController(clock=clock, window=1.0, sustain=0.5,
                              cool=1.0, **kwargs)


def _push_pressure(brownout, clock, shed_ratio, seconds, step=0.1):
    """Feed a steady mix of sheds/admits for ``seconds``."""
    per_step = 10
    sheds = int(per_step * shed_ratio)
    elapsed = 0.0
    while elapsed < seconds:
        for n in range(per_step):
            brownout.record(shed=n < sheds, utilization=0.1)
        clock.advance(step)
        elapsed += step
    brownout.poll()


class TestBrownoutController:
    def test_escalates_only_after_sustained_pressure(self):
        clock = SimulatedClock()
        brownout = _hot_brownout(clock)
        # A single hot sample is not sustained pressure.
        brownout.record(shed=True, utilization=1.0)
        assert brownout.level == 0
        _push_pressure(brownout, clock, shed_ratio=0.7, seconds=0.6)
        assert brownout.level == 1
        assert brownout.shed_broadcast()
        assert not brownout.shed_bulk()

    def test_steps_through_all_tiers_and_back_down(self):
        clock = SimulatedClock()
        brownout = _hot_brownout(clock)
        _push_pressure(brownout, clock, shed_ratio=1.0, seconds=2.0)
        assert brownout.level == 2
        assert brownout.shed_bulk() and brownout.shed_broadcast()
        assert brownout.max_level == 2
        assert [t.name for t in DEFAULT_TIERS] == ["shed_broadcast",
                                                   "shed_bulk"]
        # Pressure collapses: the window drains, tiers step down one per
        # cool period (never a cliff).
        for expected in (1, 0):
            clock.advance(1.2)
            brownout.poll()
            clock.advance(1.2)
            brownout.poll()
            assert brownout.level == expected
        assert brownout.max_level == 2

    def test_hysteresis_holds_between_exit_and_enter(self):
        clock = SimulatedClock()
        brownout = _hot_brownout(clock)
        _push_pressure(brownout, clock, shed_ratio=0.7, seconds=0.6)
        assert brownout.level == 1
        # 0.5 pressure is between tier 1's exit (0.30) and enter (0.60):
        # the controller holds its level indefinitely.
        _push_pressure(brownout, clock, shed_ratio=0.5, seconds=3.0)
        assert brownout.level == 1

    def test_transitions_are_recorded_and_reported(self):
        clock = SimulatedClock()
        seen = []
        brownout = _hot_brownout(
            clock, on_transition=lambda old, new, p: seen.append((old, new)))
        _push_pressure(brownout, clock, shed_ratio=0.9, seconds=0.6)
        assert seen and seen[0] == (0, 1)
        snap = brownout.snapshot()
        assert snap["transitions"][0]["tier"] == "shed_broadcast"
        assert snap["max_level"] >= 1
        assert [t["name"] for t in snap["tiers"]] == \
            [t.name for t in DEFAULT_TIERS]

    def test_keeps_only_the_newest_transitions(self):
        clock = SimulatedClock()
        seen = []
        brownout = _hot_brownout(
            clock, on_transition=lambda old, new, p: seen.append((old, new)))
        while len(seen) <= TRANSITION_WINDOW + 10:
            _push_pressure(brownout, clock, shed_ratio=0.7, seconds=0.6)
            for _ in range(2):
                clock.advance(1.2)
                brownout.poll()
        assert brownout.level == 0
        kept = brownout.snapshot()["transitions"]
        assert len(kept) == TRANSITION_WINDOW
        assert [(t["from"], t["to"]) for t in kept] == \
            seen[-TRANSITION_WINDOW:]
        assert kept[-1]["at"] == brownout.transitions[-1]["at"]

    def test_rejects_non_consecutive_tiers(self):
        with pytest.raises(ValueError):
            BrownoutController(tiers=(DEFAULT_TIERS[1],))


class TestPressureWindow:
    def test_pressure_is_max_of_shed_ratio_and_peak_utilization(self):
        clock = SimulatedClock()
        window = PressureWindow(clock=clock, window=1.0)
        window.record(shed=True, utilization=0.2)
        window.record(shed=False, utilization=0.9)
        assert window.pressure() == pytest.approx(0.9)
        window.record(shed=True, utilization=0.1)
        window.record(shed=True, utilization=0.1)
        assert window.pressure() == pytest.approx(max(3 / 4, 0.9))

    def test_old_samples_age_out(self):
        clock = SimulatedClock()
        window = PressureWindow(clock=clock, window=1.0)
        window.record(shed=True, utilization=1.0)
        clock.advance(1.5)
        assert window.pressure() == 0.0
        assert window.snapshot()["samples"] == 0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.just("record"), st.booleans(),
                  st.floats(min_value=0.0, max_value=1.5)),
        st.tuples(st.just("advance"),
                  st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9, 1.0, 1.5]))),
        max_size=60))
    def test_matches_a_naive_rescan(self, steps):
        """The running count and max-deque give exactly what rescanning
        every sample in the window gives, after every step."""
        clock = SimulatedClock()
        window = PressureWindow(clock=clock, window=1.0)
        samples = []
        for step in steps:
            if step[0] == "record":
                _, shed, utilization = step
                window.record(shed=shed, utilization=utilization)
                samples.append((clock.now(), shed, utilization))
            else:
                clock.advance(step[1])
            live = [s for s in samples if s[0] >= clock.now() - 1.0]
            expected = (0.0 if not live else min(1.0, max(
                sum(shed for _, shed, _ in live) / len(live),
                max(utilization for _, _, utilization in live))))
            assert window.pressure() == expected
            assert window.snapshot()["samples"] == len(live)


class TestRetryBudget:
    def test_retries_spend_and_successes_refill(self):
        budget = RetryBudget(capacity=2.0, refill=0.5)
        assert budget.allow_retry()
        budget.on_retry()
        budget.on_retry()
        assert not budget.allow_retry()
        assert budget.exhausted == 1
        for _ in range(2):
            budget.on_success()
        assert budget.allow_retry()
        assert budget.snapshot()["retries"] == 2

    def test_refill_caps_at_capacity(self):
        budget = RetryBudget(capacity=1.0, refill=5.0)
        budget.on_success()
        assert budget.tokens == 1.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RetryBudget(capacity=0.0)


class _FixedRng:
    def __init__(self, roll):
        self._roll = roll

    def random(self):
        return self._roll


class TestBackoffDelay:
    def test_exponential_with_jitter_in_upper_half(self):
        lo = backoff_delay(2, base=0.1, cap=10.0, rng=_FixedRng(0.0))
        hi = backoff_delay(2, base=0.1, cap=10.0, rng=_FixedRng(1.0))
        assert lo == pytest.approx(0.4 * 0.5)
        assert hi == pytest.approx(0.4)

    def test_cap_bounds_the_exponent(self):
        assert backoff_delay(50, base=0.1, cap=2.0,
                             rng=_FixedRng(1.0)) == pytest.approx(2.0)

    def test_retry_after_hint_is_a_jittered_floor(self):
        delay = backoff_delay(0, base=0.01, cap=2.0, rng=_FixedRng(0.0),
                              retry_after=1.0)
        assert delay == pytest.approx(1.0)
        delay = backoff_delay(0, base=0.01, cap=2.0, rng=_FixedRng(1.0),
                              retry_after=1.0)
        assert delay == pytest.approx(1.25)

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            backoff_delay(-1)
