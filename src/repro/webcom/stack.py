"""Stacked authorisation (Section 5, Figure 10).

The WebCom security architecture is a stack of pluggable mediation layers::

    L3  Application security   (workflow rules encoded in the graph)
    L2  Trust management       (KeyNote / SPKI)
    L1  Middleware security    (CORBA / EJB / COM+)
    L0  OS security            (Unix / Windows)

"These stacked layers of secure WebCom are 'pluggable' ...; for example, in
the absence of CORBASec support for a particular ORB, a WebCom environment
could be configured so that authorisation is based only on a combination of
KeyNote (trust management) and underlying operating system policy."

A request is authorised when **every configured layer** allows it; absent
layers are skipped.  Each layer sees the request through its own lens (OS
object access, middleware invocation, TM query, application predicate).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, NamedTuple

from repro.errors import AuthorisationError
from repro.keynote.api import KeyNoteSession
from repro.middleware.base import Invocation, Middleware
from repro.os_sec.base import OperatingSystemSecurity
from repro.util.clock import SimulatedClock
from repro.util.events import AuditLog
from repro.webcom.health import BreakerState, CircuitBreaker, DegradedMode

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Counter, Observability
    from repro.webcom.faults import LayerFaultInjector


class Layer(enum.IntEnum):
    """The four layers of Figure 10."""

    OS = 0
    MIDDLEWARE = 1
    TRUST_MANAGEMENT = 2
    APPLICATION = 3


class FrozenAttributes(Mapping[str, str]):
    """An immutable, hashable attribute mapping.

    :class:`MediationRequest` is a frozen dataclass; a plain dict default
    would make instances unhashable and let callers mutate a request after
    mediation (invalidating its recorded decision).  The pairs are copied
    at construction, so later mutation of the source mapping cannot leak
    in either.
    """

    __slots__ = ("_items",)

    def __init__(self, source: "Mapping[str, str] | None" = None) -> None:
        items = dict(source or {})
        object.__setattr__(self, "_items",
                           tuple(sorted(items.items())))

    def __getitem__(self, key: str) -> str:
        for name, value in self._items:
            if name == key:
                return value
        raise KeyError(key)

    def __iter__(self) -> Iterator[str]:
        return iter(name for name, _value in self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        return hash(self._items)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Mapping):
            return dict(self) == dict(other)
        return NotImplemented

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FrozenAttributes is immutable")

    def __repr__(self) -> str:
        return f"FrozenAttributes({dict(self._items)!r})"


@dataclass(frozen=True)
class MediationRequest:
    """One request as seen by the whole stack.

    Instances are deeply immutable and hashable: ``attributes`` is frozen
    into a :class:`FrozenAttributes` at construction, whatever mapping was
    passed in.

    :param user: OS/middleware-level principal.
    :param user_key: trust-management principal (public key name).
    :param object_type: middleware object type / RBAC object type.
    :param operation: operation / permission requested.
    :param os_object: the OS-level object the operation touches (optional;
        defaults to the object type).
    :param os_access: the OS access kind implied (default "read").
    :param attributes: extra TM action attributes.
    """

    user: str
    user_key: str
    object_type: str
    operation: str
    os_object: str = ""
    os_access: str = "read"
    attributes: Mapping[str, str] = field(default_factory=FrozenAttributes)

    def __post_init__(self) -> None:
        if not isinstance(self.attributes, FrozenAttributes):
            object.__setattr__(self, "attributes",
                               FrozenAttributes(self.attributes))


@dataclass(frozen=True)
class LayerDecision:
    """One layer's verdict.

    ``error`` marks a verdict the layer never actually produced: its check
    raised or timed out (or its breaker was open) and the stack resolved
    the layer through its configured
    :class:`~repro.webcom.health.DegradedMode` instead.
    """

    layer: Layer
    allowed: bool
    detail: str = ""
    error: bool = False


class MediationFacts(NamedTuple):
    """A decision's outcome (``"allow"`` / ``"deny"``) and layer names: the
    audit record, the span and the serve wire reply all read these."""

    outcome: str
    denied_by: str | None
    layers: list[str]
    degraded: list[str]


@dataclass(frozen=True)
class StackDecision:
    """The stack's combined verdict with the per-layer trace.

    ``stale`` marks a decision served from the last-known-good store by a
    fail-static layer during an outage — it was once fully mediated, but
    not at this simulated instant.  ``degraded`` lists the layers that
    could not be consulted live (whatever their degraded mode resolved to).
    """

    allowed: bool
    decisions: tuple[LayerDecision, ...]
    stale: bool = False
    degraded: tuple[Layer, ...] = ()

    def __bool__(self) -> bool:
        return self.allowed

    def layer(self, layer: Layer) -> LayerDecision | None:
        """The verdict of one layer, or None if it was not configured."""
        for decision in self.decisions:
            if decision.layer == layer:
                return decision
        return None

    def deciding_layer(self) -> Layer | None:
        """The first layer that denied (None when allowed)."""
        for decision in self.decisions:
            if not decision.allowed:
                return decision.layer
        return None

    def is_degraded(self) -> bool:
        """True when any layer was resolved without a live check."""
        return self.stale or bool(self.degraded) \
            or any(d.error for d in self.decisions)

    @cached_property
    def facts(self) -> MediationFacts:
        """Computed once, on first use."""
        denied = self.deciding_layer()
        return MediationFacts(
            outcome="allow" if self.allowed else "deny",
            denied_by=denied.name if denied is not None else None,
            layers=[decision.layer.name for decision in self.decisions],
            degraded=[layer.name for layer in self.degraded])


#: application-layer predicate (L3): request -> allowed
AppPredicate = Callable[[MediationRequest], bool]


class AuthorisationStack:
    """A configurable stack of mediation layers.

    Layers are plugged with :meth:`plug_os`, :meth:`plug_middleware`,
    :meth:`plug_trust_management` and :meth:`plug_application`; any subset
    may be present.  Mediation is top-down (L3 → L0), matching the paper's
    stack diagram: higher layers can veto before lower layers are consulted,
    and the decision trace records the order.

    The stack stores no decisions: every configured layer is asked about
    every request.  The one decision cache is the trust-management
    checker's exact, dependency-indexed one, and L2 reads it directly —
    when :meth:`~repro.keynote.api.KeyNoteSession.decision_fingerprint`
    holds a value for the request, that value is the L2 verdict and the
    fixpoint (with its ``keynote.query`` audit record and span) is skipped.
    A revocation evicts exactly the decisions that depended on it, so a
    hit can never replay a revoked ALLOW, and a change in any other layer
    is seen on the next request.  The checker counts the traffic (its
    ``cache_hits`` / ``cache_misses`` and ``keynote.cache.*`` metrics);
    the stack marks a hit with a ``cached`` span and audit attribute.

    Health (degraded-mode mediation): a layer whose check raises or times
    out never aborts mediation with a raw traceback — it is recorded as an
    ERROR :class:`LayerDecision` and resolved through the layer's
    :class:`~repro.webcom.health.DegradedMode` (:meth:`set_degraded_mode`;
    the default is fail-closed).  A per-layer
    :class:`~repro.webcom.health.CircuitBreaker` trips OPEN after
    ``breaker_threshold`` consecutive failures; while open the layer is not
    called at all, and after ``breaker_cooldown`` simulated seconds one
    half-open probe decides recovery.  Fail-static layers serve the
    last-known-good decision for the identical request, marked
    ``stale=True``; that store is written only while some layer is
    fail-static, so a stack without one keeps no per-request state.
    ``layer_faults`` accepts a
    :class:`~repro.webcom.faults.LayerFaultInjector` so chaos schedules can
    time out layers deterministically.
    """

    def __init__(self, audit: AuditLog | None = None,
                 require_some_layer: bool = True,
                 clock: SimulatedClock | None = None,
                 obs: "Observability | None" = None,
                 breaker_threshold: int = 3,
                 breaker_cooldown: float = 30.0,
                 layer_faults: "LayerFaultInjector | None" = None) -> None:
        self.audit = audit
        self.require_some_layer = require_some_layer
        self.clock = clock or (obs.clock if obs is not None else None)
        self.obs = obs
        self._os: OperatingSystemSecurity | None = None
        self._middleware: Middleware | None = None
        self._tm: KeyNoteSession | None = None
        self._app: AppPredicate | None = None
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.layer_faults = layer_faults
        self._breakers: dict[Layer, CircuitBreaker] = {}
        self._degraded_modes: dict[Layer, DegradedMode] = {}
        #: request -> the last fully mediated (non-degraded) decision; the
        #: store fail-static layers serve from during an outage, written
        #: only while some layer's degraded mode is fail-static
        self._last_good: dict[MediationRequest, StackDecision] = {}
        self.stale_served = 0
        #: name parts -> counter, bound on first increment (a counter that
        #: never counts stays out of the registry)
        self._counters: dict[tuple, "Counter"] = {}

    def _now(self) -> float:
        """Current simulated time (0.0 when no clock is configured)."""
        return self.clock.now() if self.clock is not None else 0.0

    def _count(self, parts: tuple) -> None:
        """Increment the counter named by ``parts`` joined with dots (a
        :class:`Layer` by its name), naming it only the first time."""
        counter = self._counters.get(parts)
        if counter is None:
            if self.obs is None:
                return
            name = ".".join(part.name if isinstance(part, Layer) else part
                            for part in parts)
            counter = self._counters[parts] = self.obs.metrics.counter(name)
        counter.inc()

    # -- plugging -------------------------------------------------------------

    def plug_os(self, os_security: OperatingSystemSecurity) -> "AuthorisationStack":
        """Configure L0."""
        self._os = os_security
        return self

    def plug_middleware(self, middleware: Middleware) -> "AuthorisationStack":
        """Configure L1."""
        self._middleware = middleware
        return self

    def plug_trust_management(self, session: KeyNoteSession,
                              ) -> "AuthorisationStack":
        """Configure L2."""
        self._tm = session
        return self

    def plug_application(self, predicate: AppPredicate) -> "AuthorisationStack":
        """Configure L3."""
        self._app = predicate
        return self

    # -- health ---------------------------------------------------------------

    def set_degraded_mode(self, layer: Layer,
                          mode: DegradedMode) -> "AuthorisationStack":
        """Choose how ``layer`` resolves while its backend is unavailable.

        Unset layers fail closed — the paper's Section-5 stance for trust
        management: a request that cannot be *proven* authorised is denied.
        """
        self._degraded_modes[layer] = DegradedMode(mode)
        return self

    def degraded_mode(self, layer: Layer) -> DegradedMode:
        """The effective degraded mode of one layer."""
        return self._degraded_modes.get(layer, DegradedMode.FAIL_CLOSED)

    def breaker(self, layer: Layer) -> CircuitBreaker:
        """The (lazily created) circuit breaker guarding one layer."""
        breaker = self._breakers.get(layer)
        if breaker is None:
            breaker = CircuitBreaker(
                f"stack.{layer.name}", clock=self.clock,
                failure_threshold=self.breaker_threshold,
                cooldown=self.breaker_cooldown, obs=self.obs,
                audit=self.audit)
            self._breakers[layer] = breaker
        return breaker

    def health_snapshot(self) -> dict[str, object]:
        """Serialisable health state for the ``repro health`` report."""
        return {
            "breakers": {layer.name: breaker.snapshot()
                         for layer, breaker in sorted(self._breakers.items())},
            "degraded_modes": {layer.name: mode.value
                               for layer, mode
                               in sorted(self._degraded_modes.items())},
            "stale_served": self.stale_served,
            "last_good_entries": len(self._last_good),
        }

    def configured_layers(self) -> tuple[Layer, ...]:
        """Which layers are present, lowest first."""
        layers = []
        if self._os is not None:
            layers.append(Layer.OS)
        if self._middleware is not None:
            layers.append(Layer.MIDDLEWARE)
        if self._tm is not None:
            layers.append(Layer.TRUST_MANAGEMENT)
        if self._app is not None:
            layers.append(Layer.APPLICATION)
        return tuple(layers)

    # -- mediation -----------------------------------------------------------------

    def _check(self, layer: Layer, request: MediationRequest,
               hit: list[bool]) -> tuple[bool, str]:
        """One configured layer's live ``(allowed, detail)``, injecting
        planned backend timeouts first; L2 appends to ``hit`` when it
        answers from the checker's decision cache."""
        if self.layer_faults is not None:
            self.layer_faults.check(layer.name, self._now())
        if layer is Layer.APPLICATION:
            return bool(self._app(request)), "application predicate"
        if layer is Layer.MIDDLEWARE:
            ok = self._middleware.check_invocation(Invocation(
                user=request.user, object_type=request.object_type,
                operation=request.operation))
            return ok, f"middleware={self._middleware.name}"
        if layer is Layer.OS:
            ok = self._os.check(request.user,
                                request.os_object or request.object_type,
                                request.os_access)
            return ok, f"os={self._os.platform}"
        # L2 answers from the checker's cached value when it holds one.
        tm = self._tm
        attributes = dict(request.attributes)
        attributes.setdefault("op", request.operation)
        authorizers = (request.user_key,)
        _key, value = tm.decision_fingerprint(attributes, authorizers)
        if value is None:
            value = tm.query(attributes, authorizers).compliance_value
        else:
            hit.append(True)
        return (tm.values.at_least(value, tm.values.maximum),
                f"compliance={value}")

    def mediate(self, request: MediationRequest,
                correlation_id: str | None = None) -> StackDecision:
        """Run the request down the stack.

        While the observability tracer is recording, the whole mediation
        is one ``stack.mediate`` span with a timed ``stack.layer.<NAME>``
        child per consulted layer; ``correlation_id`` ties the trace to the
        remote scheduling decision that triggered this check (it defaults
        to whatever trace context is already open).

        :raises AuthorisationError: if no layer is configured and
            ``require_some_layer`` is set (an empty stack silently allowing
            everything is almost certainly a misconfiguration).
        """
        layers = self.configured_layers()
        if self.require_some_layer and not layers:
            raise AuthorisationError("no mediation layer is configured")
        hit: list[bool] = []
        tracer = (self.obs.tracer if self.obs is not None
                  and self.obs.tracer.recording else None)
        if tracer is not None:
            with tracer.span("stack.mediate", correlation_id=correlation_id,
                             user=request.user,
                             op=request.operation) as span:
                decision = self._run_layers(request, layers, tracer, hit)
                facts = decision.facts
                span.status = facts.outcome
                span.set(cached=bool(hit))
                if facts.denied_by is not None:
                    span.set(denied_by=facts.denied_by)
                if decision.stale:
                    span.set(stale=True)
                if decision.degraded:
                    span.set(degraded=",".join(facts.degraded))
        else:
            decision = self._run_layers(request, layers, None, hit)
        if (not decision.is_degraded() and DegradedMode.FAIL_STATIC
                in self._degraded_modes.values()):
            # Only a fully, freshly mediated decision may seed the
            # last-known-good store, and only a fail-static layer reads it.
            self._last_good[request] = decision
        self._count(("stack", "mediate", decision.facts.outcome))
        if self.audit is not None:
            facts = decision.facts
            self.audit.record(
                self._now(), "stack.mediate", subject=request.user,
                outcome=facts.outcome, operation=request.operation,
                layers=facts.layers, denied_by=facts.denied_by,
                cached=bool(hit), stale=decision.stale,
                degraded=facts.degraded)
        return decision

    def _run_layers(self, request: MediationRequest, layers: tuple[Layer, ...],
                    tracer, hit: list[bool]) -> StackDecision:
        """Consult ``layers`` top-down (L3 → L0) until one denies."""
        decisions: list[LayerDecision] = []
        degraded: list[Layer] = []
        allowed = True
        for layer in reversed(layers):
            if not allowed:
                break
            breaker = self.breaker(layer)
            # An OPEN breaker still cooling down resolves the layer through
            # its degraded mode without touching the backend at all.
            reason = "breaker open"
            if breaker.allow():
                try:
                    if tracer is not None:
                        with tracer.span(
                                f"stack.layer.{layer.name}",
                                probe=breaker.state is BreakerState.HALF_OPEN
                        ) as span:
                            allowed, detail = self._check(layer, request, hit)
                            span.status = "allow" if allowed else "deny"
                            span.set(detail=detail)
                    else:
                        allowed, detail = self._check(layer, request, hit)
                except Exception as exc:  # deliberate: a flaky backend
                    # must degrade explicitly, never abort mediation
                    breaker.record_failure()
                    self._count(("health", "layer", layer, "error"))
                    reason = repr(exc)
                else:
                    breaker.record_success()
                    self._count(("stack", "layer", layer,
                                 "allow" if allowed else "deny"))
                    decisions.append(LayerDecision(layer, allowed, detail))
                    continue
            static = self._degrade(layer, request, reason, decisions,
                                   degraded)
            if static is not None:
                return static
            allowed = decisions[-1].allowed
        return StackDecision(allowed=allowed, decisions=tuple(decisions),
                             degraded=tuple(degraded))

    def _degrade(self, layer: Layer, request: MediationRequest, reason: str,
                 decisions: list[LayerDecision],
                 degraded: list[Layer]) -> StackDecision | None:
        """Resolve an unavailable layer through its degraded mode.

        Appends an ERROR :class:`LayerDecision` (fail-closed / fail-open)
        and returns None, or returns the whole stale last-known-good
        :class:`StackDecision` (fail-static).  A fail-static layer with no
        last-known-good decision for this request falls back to
        fail-closed — degradation must never *widen* authorisation.
        """
        mode = self.degraded_mode(layer)
        degraded.append(layer)
        self._count(("health", "degraded", layer, mode.value))
        if mode is DegradedMode.FAIL_STATIC:
            last_good = self._last_good.get(request)
            if last_good is not None:
                self.stale_served += 1
                if self.obs is not None:
                    self._count(("health", "stale_served"))
                    now = self._now()
                    self.obs.tracer.record(
                        "health.stale_served", now, now, layer=layer.name,
                        user=request.user, op=request.operation)
                return replace(last_good, stale=True,
                               degraded=tuple(degraded))
            mode = DegradedMode.FAIL_CLOSED
        decisions.append(LayerDecision(
            layer, allowed=mode is DegradedMode.FAIL_OPEN,
            detail=f"degraded[{mode.value}]: {reason}", error=True))
        return None

    def check(self, request: MediationRequest) -> bool:
        """Boolean convenience over :meth:`mediate`."""
        return self.mediate(request).allowed
