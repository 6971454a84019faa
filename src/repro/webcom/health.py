"""Policy-plane health: circuit breakers and degraded-mode semantics.

PR 1 taught the *data plane* (scheduling, network flights, failover) to
survive faults.  This module is the same discipline for the *policy plane*:
the mediation layers of the Figure-10 authorisation stack, the KeyCOM
configuration service and the Section-4.4 maintenance propagation all talk
to backends that can be slow, partitioned or down, and a production
deployment needs an explicit answer to "what does authorisation mean while
the trust-management checker is unreachable?".

Two pieces live here:

- :class:`CircuitBreaker` — a per-backend health tracker on the simulated
  clock.  ``failure_threshold`` consecutive failures trip it OPEN; while
  open, callers skip the backend entirely instead of timing out on every
  request; after ``cooldown`` simulated seconds the breaker HALF_OPENs and
  admits one probe, whose outcome closes or re-opens it.  Every transition
  is emitted as a ``health.breaker.*`` metric, a retroactive trace span and
  an audit record, so degraded operation is always attributable.

- :class:`DegradedMode` — what a mediation layer's verdict becomes while
  its breaker is open (or its check raised):

  * ``FAIL_CLOSED`` — deny.  The default, and the right answer for the
    trust-management layer (Section 5 of the paper: TM is the layer that
    *proves* authorisation; an unprovable request must not pass).
  * ``FAIL_OPEN``   — allow, recorded as an ERROR layer decision so the
    audit trail shows the layer was never actually consulted.  Only for
    advisory layers whose denial is a quality-of-service hint.
  * ``FAIL_STATIC`` — serve the last-known-good decision for the identical
    request, marked ``stale=True``.  Bounded staleness instead of an
    outage: the decision was once proven, and the mark keeps it out of the
    fresh-decision cache and visible in every audit record.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from typing import TYPE_CHECKING

from repro.util.clock import Clock, SimulatedClock
from repro.util.events import AuditLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability


#: the newest state transitions a :class:`CircuitBreaker` (or the serve
#: plane's brownout controller) keeps: a flapping backend must not grow
#: the report without bound
TRANSITION_WINDOW = 64


class BreakerState(str, enum.Enum):
    """The classic three-state circuit-breaker automaton."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class DegradedMode(str, enum.Enum):
    """How a layer's verdict is resolved while its backend is unavailable."""

    FAIL_CLOSED = "fail_closed"
    FAIL_OPEN = "fail_open"
    FAIL_STATIC = "fail_static"


class CircuitBreaker:
    """Consecutive-failure circuit breaker on the simulated clock.

    >>> from repro.util.clock import SimulatedClock
    >>> clock = SimulatedClock()
    >>> breaker = CircuitBreaker("tm", clock=clock, failure_threshold=2,
    ...                          cooldown=10.0)
    >>> breaker.record_failure(); breaker.record_failure()
    >>> breaker.state
    <BreakerState.OPEN: 'open'>
    >>> breaker.allow()          # still cooling down
    False
    >>> _ = clock.advance(10.0)
    >>> breaker.allow()          # half-open: one probe may pass
    True
    >>> breaker.record_success()
    >>> breaker.state
    <BreakerState.CLOSED: 'closed'>

    :param name: backend/layer label used in metrics and audit records.
    :param clock: simulated time source (defaults to ``obs.clock``).
    :param failure_threshold: consecutive failures that trip the breaker.
    :param cooldown: simulated seconds OPEN before a half-open probe.
    :param obs: optional observability; transitions become ``health.*``
        metrics and retroactive spans.
    :param audit: optional audit log; transitions are recorded under
        ``health.breaker``.
    :raises ValueError: for a non-positive threshold or a negative /
        non-finite cooldown.
    """

    def __init__(self, name: str, clock: SimulatedClock | None = None,
                 failure_threshold: int = 3, cooldown: float = 30.0,
                 obs: "Observability | None" = None,
                 audit: AuditLog | None = None) -> None:
        if not isinstance(failure_threshold, int) or failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be a positive integer, "
                f"got {failure_threshold!r}")
        if not (isinstance(cooldown, (int, float)) and cooldown >= 0
                and math.isfinite(cooldown)):
            raise ValueError(
                f"cooldown must be a finite non-negative number, "
                f"got {cooldown!r}")
        self.name = name
        self.clock = clock or (obs.clock if obs is not None
                               else SimulatedClock())
        self.failure_threshold = failure_threshold
        self.cooldown = float(cooldown)
        self.obs = obs
        self.audit = audit
        self.state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        #: (simulated time, from-state, to-state) of the newest
        #: :data:`TRANSITION_WINDOW` transitions
        self.transitions: deque[tuple[float, str, str]] = deque(
            maxlen=TRANSITION_WINDOW)
        #: every transition, including those the window dropped
        self.transition_count = 0

    def _now(self) -> float:
        return self.clock.now()

    # -- queries --------------------------------------------------------------

    def allow(self) -> bool:
        """May a call proceed to the backend right now?

        CLOSED always allows.  OPEN refuses until ``cooldown`` has elapsed,
        then transitions to HALF_OPEN and admits the probe.  HALF_OPEN
        allows (mediation is synchronous, so at most one probe is in
        flight); the probe's :meth:`record_success` / :meth:`record_failure`
        settles the state.
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            assert self._opened_at is not None
            if self._now() >= self._opened_at + self.cooldown:
                self._transition(BreakerState.HALF_OPEN)
                return True
            return False
        return True  # HALF_OPEN: the probe

    # -- outcomes -------------------------------------------------------------

    def record_success(self) -> None:
        """A call to the backend succeeded: reset and close."""
        self._consecutive_failures = 0
        if self.state is not BreakerState.CLOSED:
            self._transition(BreakerState.CLOSED)
            self._opened_at = None

    def record_failure(self) -> None:
        """A call raised or timed out.

        A HALF_OPEN probe failure re-opens immediately (the cooldown
        restarts); otherwise failures accumulate until the threshold trips
        the breaker.
        """
        if self.state is BreakerState.HALF_OPEN:
            self._open()
            return
        self._consecutive_failures += 1
        if (self.state is BreakerState.CLOSED
                and self._consecutive_failures >= self.failure_threshold):
            self._open()

    def _open(self) -> None:
        self._opened_at = self._now()
        self._consecutive_failures = 0
        self._transition(BreakerState.OPEN)

    def _transition(self, new_state: BreakerState) -> None:
        old_state = self.state
        self.state = new_state
        now = self._now()
        self.transitions.append((now, old_state.value, new_state.value))
        self.transition_count += 1
        if self.obs is not None:
            self.obs.metrics.counter(f"health.breaker.{new_state.value}").inc()
            self.obs.metrics.counter(
                f"health.breaker.{self.name}.{new_state.value}").inc()
            self.obs.tracer.record(
                "health.breaker.transition", now, now,
                breaker=self.name, from_state=old_state.value,
                to_state=new_state.value)
        if self.audit is not None:
            self.audit.record(now, "health.breaker", subject=self.name,
                              outcome=new_state.value,
                              from_state=old_state.value)

    # -- reporting ------------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """Serialisable state for the ``repro health`` report."""
        return {
            "name": self.name,
            "state": self.state.value,
            "consecutive_failures": self._consecutive_failures,
            "opened_at": self._opened_at,
            "transitions": [list(t) for t in self.transitions],
            "transition_count": self.transition_count,
        }

    def __repr__(self) -> str:
        return (f"CircuitBreaker({self.name!r}, state={self.state.value}, "
                f"failures={self._consecutive_failures})")


class PressureWindow:
    """Windowed overload-pressure estimator on the shared clock.

    The circuit breaker above watches one *backend*; this watches the
    plane's own *load*.  Callers record each admission outcome — shed or
    admitted, plus the in-flight utilisation observed at that instant —
    and :meth:`pressure` reports the worse of two trailing-``window``
    signals:

    - the **shed ratio** (refusals / outcomes): high when demand already
      exceeds what admission lets through;
    - the **peak utilisation** of the in-flight budget: high *before* the
      first shed, which is what lets a brownout engage early.

    Samples older than ``window`` clock seconds fall out, so a burst's
    pressure decays by itself once traffic subsides.  A running shed count
    and a max-deque of utilisation (each entry larger than every later
    one) keep :meth:`record` and :meth:`pressure` O(1) amortised however
    many samples the window holds.

    >>> from repro.util.clock import SimulatedClock
    >>> clock = SimulatedClock()
    >>> window = PressureWindow(clock=clock, window=1.0)
    >>> window.record(shed=False, utilization=0.25)
    >>> window.record(shed=True, utilization=1.0)
    >>> window.pressure()
    1.0
    >>> _ = clock.advance(2.0)
    >>> window.pressure()
    0.0
    """

    def __init__(self, clock: Clock | None = None,
                 window: float = 1.0) -> None:
        if not (window > 0 and math.isfinite(window)):
            raise ValueError(
                f"window must be a positive finite number, got {window!r}")
        self.clock: Clock = clock or SimulatedClock()
        self.window = float(window)
        #: (recorded_at, shed) trailing samples
        self._samples: deque[tuple[float, bool]] = deque()
        self._sheds = 0
        #: (recorded_at, utilization), utilization strictly decreasing: the
        #: head is the window's peak
        self._peaks: deque[tuple[float, float]] = deque()

    def _prune(self) -> None:
        horizon = self.clock.now() - self.window
        samples, peaks = self._samples, self._peaks
        while samples and samples[0][0] < horizon:
            self._sheds -= samples.popleft()[1]
        while peaks and peaks[0][0] < horizon:
            peaks.popleft()

    def record(self, shed: bool, utilization: float) -> None:
        """One admission outcome at the current clock instant."""
        self._prune()
        now, shed = self.clock.now(), bool(shed)
        utilization = float(utilization)
        self._samples.append((now, shed))
        self._sheds += shed
        peaks = self._peaks
        while peaks and peaks[-1][1] <= utilization:
            peaks.pop()
        peaks.append((now, utilization))

    def pressure(self) -> float:
        """max(windowed shed ratio, windowed peak utilisation), in [0, 1]."""
        self._prune()
        if not self._samples:
            return 0.0
        ratio = self._sheds / len(self._samples)
        return min(1.0, max(ratio, self._peaks[0][1]))

    def snapshot(self) -> dict[str, object]:
        self._prune()
        return {"window": self.window, "samples": len(self._samples),
                "pressure": round(self.pressure(), 4)}
