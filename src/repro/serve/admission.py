"""Overload protection for the serve plane: admission, brownout, retries.

PR 4 made the policy plane survive *backend* failure (circuit breakers,
degraded modes); nothing yet protected the PR 7 daemon from its *clients*.
An unbounded burst of ``mediate`` requests used to queue without limit,
expired work was still dispatched, and synchronized retriers amplified load
exactly when the plane was slowest.  This module is the missing discipline,
one deliberate property per class:

- :class:`AdmissionController` — a bounded global in-flight budget plus
  per-peer :class:`TokenBucket` rate limits, applied at dispatch.  A
  request that cannot be admitted receives an explicit structured refusal
  (``OverloadedError`` / ``RateLimitedError`` with a ``retry_after`` hint)
  — **never a silent drop, never a fail-open allow**: a shed authorisation
  request is a refusal, full stop.  Methods carry priority classes
  (:data:`CONTROL` < :data:`ADMIN` < :data:`DATA` < :data:`BULK`) so
  control-plane traffic — ``hello``, heartbeats, ``revoke``, drain — is
  never shed behind a data-plane ``mediate`` flood.

- :class:`BrownoutController` — self-regulating degradation under
  *sustained* pressure (the adaptable-middleware discipline): the plane
  steps through declared tiers — shed span/event broadcasting, then shed
  the lowest-priority work — and steps back down when pressure stays low.
  No tier serves an old decision: an authorisation answer is always
  mediated against the current policy.  Every transition is kept for
  ``status`` and surfaced to the server for a ``server`` pub/sub event, so
  brownout is always attributable.

- :class:`RetryBudget` + :func:`backoff_delay` — the client half.
  Retries consume budget and successes refill it, so a synchronized retry
  storm decays geometrically instead of amplifying; jittered exponential
  backoff desynchronises the survivors, and server ``retry_after`` hints
  are honoured as a lower bound.

Everything runs on the shared :class:`~repro.util.clock.Clock` protocol,
so every behaviour here — refill arithmetic, sustain/cool hysteresis —
is testable to the exact second on the simulated clock and
identical in kind on the wall clock.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.util.clock import Clock, SimulatedClock
from repro.webcom.health import TRANSITION_WINDOW, PressureWindow

# -- priority classes --------------------------------------------------------

#: control plane: registration, liveness, status, revocation, drain.  Never
#: shed — an overloaded plane that cannot be drained or revoked is worse
#: than an overloaded plane.
CONTROL = 0
#: administrative mutations (KeyCom installs, credential adds)
ADMIN = 1
#: the data plane: mediation and oracle probes — the floodable surface
DATA = 2
#: bulk/ancillary work: translation jobs (span trees have no fetch call:
#: they reach operators only as ``decision`` events, while subscribed)
BULK = 3

PRIORITY_NAMES = {CONTROL: "control", ADMIN: "admin",
                  DATA: "data", BULK: "bulk"}

#: serve method -> priority class; unknown methods sort with BULK (they are
#: refused by dispatch anyway, but they must not consume data-plane budget)
METHOD_PRIORITY: dict[str, int] = {
    "hello": CONTROL, "ping": CONTROL, "subscribe": CONTROL,
    "unsubscribe": CONTROL, "status": CONTROL, "shutdown": CONTROL,
    "revoke": CONTROL, "sweep": CONTROL,
    "update": ADMIN, "add_policy": ADMIN, "add_credential": ADMIN,
    "mediate": DATA, "probe": DATA,
    "translate": BULK,
}


def method_priority(method: str) -> int:
    """The priority class a serve method is admitted under."""
    return METHOD_PRIORITY.get(method, BULK)


# -- token bucket ------------------------------------------------------------


class TokenBucket:
    """A per-peer rate limiter on the shared clock.

    ``rate`` tokens accrue per clock second up to ``burst``; each admitted
    request takes one.  :meth:`retry_after` reports how long until the next
    token exists — the hint a rate-limit refusal carries back to the client.

    >>> clock = SimulatedClock()
    >>> bucket = TokenBucket(rate=2.0, burst=2.0, clock=clock)
    >>> bucket.take(), bucket.take(), bucket.take()
    (True, True, False)
    >>> bucket.retry_after()
    0.5
    >>> _ = clock.advance(0.5)
    >>> bucket.take()
    True
    """

    def __init__(self, rate: float, burst: float,
                 clock: Clock | None = None) -> None:
        if not rate > 0:
            raise ValueError(f"rate must be positive, got {rate!r}")
        if not burst > 0:
            raise ValueError(f"burst must be positive, got {burst!r}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.clock: Clock = clock or SimulatedClock()
        self.tokens = float(burst)
        self._refilled_at = self.clock.now()

    def _refill(self) -> None:
        now = self.clock.now()
        self.tokens = min(self.burst,
                          self.tokens + (now - self._refilled_at) * self.rate)
        self._refilled_at = now

    def take(self, cost: float = 1.0) -> bool:
        """Take ``cost`` tokens if available; False means rate-limited."""
        self._refill()
        if self.tokens >= cost:
            self.tokens -= cost
            return True
        return False

    def retry_after(self, cost: float = 1.0) -> float:
        """Clock seconds until ``cost`` tokens will exist."""
        self._refill()
        deficit = cost - self.tokens
        return max(0.0, deficit / self.rate)


# -- refusals ----------------------------------------------------------------


@dataclass(frozen=True)
class Refusal:
    """A structured admission refusal (the anti-silent-drop contract).

    The server turns this into an error *response* carrying the type, the
    kind and the ``retry_after`` hint — the shed request is answered, not
    dropped, and it is never answered with an allow.
    """

    kind: str           #: "overloaded" | "rate_limited" | "brownout"
    error_type: str     #: wire error type clients branch on
    message: str
    retry_after: float | None = None
    priority: int = DATA


@dataclass
class Ticket:
    """One admitted request; must be released exactly once."""

    priority: int
    counted: bool  #: whether it holds a slot of the in-flight budget


# -- brownout ----------------------------------------------------------------


@dataclass(frozen=True)
class BrownoutTier:
    """One declared degradation step with enter/exit hysteresis bounds."""

    level: int
    name: str
    enter: float  #: sustained pressure at or above this escalates into it
    exit: float   #: sustained pressure at or below this de-escalates out


#: the declared ladder: cheap disclosure first, shed work last
DEFAULT_TIERS: tuple[BrownoutTier, ...] = (
    BrownoutTier(1, "shed_broadcast", enter=0.60, exit=0.30),
    BrownoutTier(2, "shed_bulk", enter=0.90, exit=0.60),
)


class BrownoutController:
    """Steps the plane through degradation tiers under sustained pressure.

    Pressure is the :class:`~repro.webcom.health.PressureWindow` estimate
    (max of in-flight utilisation and windowed shed ratio).  Escalation
    needs pressure at or above the next tier's ``enter`` bound sustained
    for ``sustain`` clock seconds; de-escalation needs pressure at or below
    the current tier's ``exit`` bound for ``cool`` seconds — classic
    hysteresis so the plane does not flap at a boundary.

    Tier effects are *queries* (:meth:`shed_broadcast`,
    :meth:`shed_bulk`); the server and the admission controller consult
    them per request.

    Every transition is kept in :attr:`transitions` (the newest
    :data:`TRANSITION_WINDOW`) and handed to ``on_transition`` so the
    server can broadcast it.
    """

    def __init__(self, clock: Clock | None = None,
                 tiers: tuple[BrownoutTier, ...] = DEFAULT_TIERS,
                 window: float = 1.0, sustain: float = 0.5,
                 cool: float = 1.0,
                 on_transition: Callable[[int, int, float], None] | None
                 = None) -> None:
        if list(tiers) != sorted(tiers, key=lambda t: t.level) or any(
                tier.level != n + 1 for n, tier in enumerate(tiers)):
            raise ValueError("tiers must be consecutive levels from 1")
        self.clock: Clock = clock or SimulatedClock()
        self.tiers = tuple(tiers)
        self.sustain = float(sustain)
        self.cool = float(cool)
        self.on_transition = on_transition
        self.window = PressureWindow(clock=self.clock, window=window)
        self.level = 0
        self.max_level = 0
        #: (at, from_level, to_level, pressure) of recent transitions
        self.transitions: deque[dict[str, Any]] = deque(
            maxlen=TRANSITION_WINDOW)
        self._above_since: float | None = None
        self._below_since: float | None = None

    # -- tier effects ------------------------------------------------------

    def shed_broadcast(self) -> bool:
        """Tier >= 1: drop event broadcasting / span-tree recording."""
        return self.level >= 1

    def shed_bulk(self) -> bool:
        """Tier >= 2: refuse the lowest-priority work outright."""
        return self.level >= 2

    # -- pressure feed -----------------------------------------------------

    def record(self, shed: bool, utilization: float) -> None:
        """One admission outcome lands in the pressure window."""
        self.window.record(shed, utilization)
        self._evaluate()

    def poll(self) -> None:
        """Re-evaluate without new traffic (lets an idle plane cool)."""
        self._evaluate()

    def pressure(self) -> float:
        return self.window.pressure()

    # -- hysteresis --------------------------------------------------------

    def _evaluate(self) -> None:
        now = self.clock.now()
        pressure = self.window.pressure()
        next_tier = (self.tiers[self.level]
                     if self.level < len(self.tiers) else None)
        current = self.tiers[self.level - 1] if self.level > 0 else None
        if next_tier is not None and pressure >= next_tier.enter:
            self._below_since = None
            if self._above_since is None:
                self._above_since = now
            elif now - self._above_since >= self.sustain:
                self._step(self.level + 1, pressure, now)
                self._above_since = None
            return
        self._above_since = None
        if current is not None and pressure <= current.exit:
            if self._below_since is None:
                self._below_since = now
            elif now - self._below_since >= self.cool:
                self._step(self.level - 1, pressure, now)
                self._below_since = None
        else:
            self._below_since = None

    def _step(self, new_level: int, pressure: float, now: float) -> None:
        old_level = self.level
        self.level = new_level
        self.max_level = max(self.max_level, new_level)
        record = {"at": now, "from": old_level, "to": new_level,
                  "pressure": round(pressure, 4),
                  "tier": (self.tiers[new_level - 1].name if new_level
                           else "normal")}
        self.transitions.append(record)
        if self.on_transition is not None:
            self.on_transition(old_level, new_level, pressure)

    def snapshot(self) -> dict[str, Any]:
        """Serialisable state for ``status()`` and the overload report."""
        return {"level": self.level, "max_level": self.max_level,
                "pressure": round(self.window.pressure(), 4),
                "tiers": [{"level": t.level, "name": t.name,
                           "enter": t.enter, "exit": t.exit}
                          for t in self.tiers],
                "transitions": list(self.transitions)}


# -- admission ---------------------------------------------------------------


class AdmissionController:
    """Bounded in-flight budget + per-peer rate limits + priority classes.

    :param max_inflight: global budget of concurrently dispatched non-control
        requests.  Control-plane traffic is **never** counted against it and
        never shed — registration, liveness, revocation and drain must work
        precisely when the plane is busiest.
    :param peer_rate: per-peer admitted requests per clock second (None
        disables rate limiting).
    :param peer_burst: per-peer burst allowance (defaults to ``2 x rate``).
    :param brownout: optional :class:`BrownoutController` fed by every
        admission outcome; at tier 2 the lowest-priority class is refused
        and the data-plane budget is halved (graceful, declared shedding).
    """

    def __init__(self, clock: Clock | None = None,
                 max_inflight: int = 64,
                 peer_rate: float | None = None,
                 peer_burst: float | None = None,
                 brownout: BrownoutController | None = None) -> None:
        if max_inflight < 0:
            raise ValueError(f"max_inflight must be >= 0, "
                             f"got {max_inflight!r}")
        self.clock: Clock = clock or SimulatedClock()
        self.max_inflight = int(max_inflight)
        self.peer_rate = peer_rate
        self.peer_burst = (float(peer_burst) if peer_burst is not None
                           else (2.0 * peer_rate if peer_rate else None))
        self.brownout = brownout
        self.inflight = 0
        self._buckets: dict[str, TokenBucket] = {}
        self.admitted: dict[str, int] = {name: 0
                                         for name in PRIORITY_NAMES.values()}
        self.shed_overloaded = 0
        self.shed_rate_limited = 0
        self.shed_brownout = 0
        self.shed_by_priority: dict[str, int] = {
            name: 0 for name in PRIORITY_NAMES.values()}

    # -- the admission decision -------------------------------------------

    def admit(self, peer_id: str, method: str) -> "Ticket | Refusal":
        """Admit or refuse one decoded request before dispatch.

        Control-plane methods are always admitted.  Everything else runs
        the gauntlet: brownout bulk-shedding, the per-peer token bucket,
        then the global in-flight budget.  Refusals are returned (never
        raised) so the server can answer them on the wire.
        """
        priority = method_priority(method)
        if priority == CONTROL:
            self.admitted["control"] += 1
            return Ticket(priority=CONTROL, counted=False)
        budget = self.max_inflight
        if self.brownout is not None and self.brownout.shed_bulk():
            if priority >= BULK:
                refusal = self._refuse(
                    priority, "brownout", "OverloadedError",
                    f"brownout tier {self.brownout.level}: lowest-priority "
                    f"work is shed", retry_after=self.brownout.cool)
                return refusal
            budget = max(1, budget // 2)
        if self.peer_rate is not None:
            bucket = self._buckets.get(peer_id)
            if bucket is None:
                assert self.peer_burst is not None
                bucket = TokenBucket(self.peer_rate, self.peer_burst,
                                     clock=self.clock)
                self._buckets[peer_id] = bucket
            if not bucket.take():
                return self._refuse(
                    priority, "rate_limited", "RateLimitedError",
                    f"peer {peer_id} exceeded {self.peer_rate:g} "
                    f"requests/s",
                    retry_after=bucket.retry_after())
        if self.inflight >= budget:
            return self._refuse(
                priority, "overloaded", "OverloadedError",
                f"in-flight budget exhausted "
                f"({self.inflight}/{budget})",
                retry_after=self._overload_retry_after())
        self.inflight += 1
        self.admitted[PRIORITY_NAMES[priority]] += 1
        self._record(shed=False)
        return Ticket(priority=priority, counted=True)

    def release(self, ticket: Ticket) -> None:
        """Return an admitted request's budget slot (exactly once)."""
        if ticket.counted:
            ticket.counted = False
            self.inflight -= 1
            assert self.inflight >= 0

    def forget_peer(self, peer_id: str) -> None:
        """Drop a disconnected peer's rate-limit state."""
        self._buckets.pop(peer_id, None)

    # -- internals ---------------------------------------------------------

    def _overload_retry_after(self) -> float:
        """A deliberately spread hint: proportional to oversubscription so
        a synchronized flood does not come back as a synchronized retry."""
        if self.max_inflight <= 0:
            return 0.1
        return 0.05 * (1.0 + self.inflight / self.max_inflight)

    def _refuse(self, priority: int, kind: str, error_type: str,
                message: str, retry_after: float | None) -> Refusal:
        if kind == "overloaded":
            self.shed_overloaded += 1
        elif kind == "rate_limited":
            self.shed_rate_limited += 1
        else:
            self.shed_brownout += 1
        self.shed_by_priority[PRIORITY_NAMES[priority]] += 1
        self._record(shed=True)
        return Refusal(kind=kind, error_type=error_type, message=message,
                       retry_after=retry_after, priority=priority)

    def _record(self, shed: bool) -> None:
        if self.brownout is not None:
            utilization = (self.inflight / self.max_inflight
                           if self.max_inflight > 0 else 1.0)
            self.brownout.record(shed, utilization)

    # -- reporting ---------------------------------------------------------

    @property
    def sheds_total(self) -> int:
        return (self.shed_overloaded + self.shed_rate_limited
                + self.shed_brownout)

    def snapshot(self) -> dict[str, Any]:
        """Serialisable state for ``status()`` and the overload report."""
        return {
            "max_inflight": self.max_inflight,
            "inflight": self.inflight,
            "peer_rate": self.peer_rate,
            "peer_burst": self.peer_burst,
            "peers_tracked": len(self._buckets),
            "admitted": dict(self.admitted),
            "shed": {"overloaded": self.shed_overloaded,
                     "rate_limited": self.shed_rate_limited,
                     "brownout": self.shed_brownout,
                     "total": self.sheds_total,
                     "by_priority": dict(self.shed_by_priority)},
        }


# -- client-side retry discipline -------------------------------------------


class RetryBudget:
    """Token-bucket retry budget: retries spend, successes refill.

    Under a persistent outage every client's budget drains and the retry
    storm decays to the refill rate instead of multiplying offered load;
    under a blip the refill from resumed successes restores full retry
    capacity.  (The budget is per *client*, deliberately: a thousand
    well-behaved clients are a thousand small budgets, not one big one.)
    """

    def __init__(self, capacity: float = 10.0, refill: float = 0.5,
                 cost: float = 1.0) -> None:
        if capacity <= 0 or refill < 0 or cost <= 0:
            raise ValueError("capacity and cost must be positive, "
                             "refill non-negative")
        self.capacity = float(capacity)
        self.refill = float(refill)
        self.cost = float(cost)
        self.tokens = float(capacity)
        self.retries = 0
        self.exhausted = 0

    def allow_retry(self) -> bool:
        """May another retry be sent?  (Does not spend.)"""
        if self.tokens >= self.cost:
            return True
        self.exhausted += 1
        return False

    def on_retry(self) -> None:
        """Spend budget for one retry actually sent."""
        self.tokens = max(0.0, self.tokens - self.cost)
        self.retries += 1

    def on_success(self) -> None:
        """A completed call refills a fraction of the budget."""
        self.tokens = min(self.capacity, self.tokens + self.refill)

    def snapshot(self) -> dict[str, Any]:
        return {"capacity": self.capacity, "tokens": round(self.tokens, 3),
                "retries": self.retries, "exhausted": self.exhausted}


def backoff_delay(attempt: int, base: float = 0.05, cap: float = 2.0,
                  rng: "random.Random | None" = None,
                  retry_after: float | None = None) -> float:
    """Jittered exponential backoff for retry ``attempt`` (0-based).

    The exponential term doubles per attempt up to ``cap``; jitter spreads
    each delay uniformly over its upper half so synchronized losers
    desynchronise.  A server ``retry_after`` hint is honoured as a lower
    bound (with its own jitter on top — everyone told "0.5 s" must not
    come back in the same millisecond).
    """
    if attempt < 0:
        raise ValueError(f"attempt must be >= 0, got {attempt}")
    roll = (rng or random).random()
    delay = min(cap, base * (2.0 ** attempt)) * (0.5 + 0.5 * roll)
    if retry_after is not None and retry_after > 0:
        delay = max(delay, retry_after * (1.0 + 0.25 * roll))
    return delay
