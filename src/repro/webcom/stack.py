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
import threading
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterator, Mapping

from repro.errors import AuthorisationError
from repro.keynote.api import KeyNoteSession
from repro.middleware.base import Invocation, Middleware
from repro.os_sec.base import OperatingSystemSecurity
from repro.util.clock import SimulatedClock
from repro.util.events import AuditLog
from repro.webcom.health import BreakerState, CircuitBreaker, DegradedMode

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability
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


#: application-layer predicate (L3): request -> allowed
AppPredicate = Callable[[MediationRequest], bool]


class AuthorisationStack:
    """A configurable stack of mediation layers.

    Layers are plugged with :meth:`plug_os`, :meth:`plug_middleware`,
    :meth:`plug_trust_management` and :meth:`plug_application`; any subset
    may be present.  Mediation is top-down (L3 → L0), matching the paper's
    stack diagram: higher layers can veto before lower layers are consulted,
    and the decision trace records the order.

    With ``cache_ttl`` set, identical requests (``MediationRequest`` is
    deeply immutable and hashable) are served from a mediation cache for
    that many simulated seconds.  Entries are dropped when the TTL lapses,
    when a layer is (re)plugged, when the *decision they depend on*
    changes, or explicitly via :meth:`invalidate_cache`; layers with
    non-idempotent checks opt out via :meth:`mark_uncacheable`.  Entry
    invalidation is scoped per decision, not per assertion set: each entry
    whose trace consulted trust management carries the TM decision key and
    value it observed (:meth:`~repro.keynote.api.KeyNoteSession.
    decision_fingerprint`), and a hit revalidates only that one decision
    against the checker's dependency-indexed cache — so a revocation
    invalidates exactly the mediation entries whose TM decision it
    evicted, and unrelated warm entries survive churn.  An entry that
    could not capture its TM decision at store time — e.g. a revocation
    landed mid-mediation and the checker's epoch guard refused the
    decision — is never cached, so a stale-fresh decision cannot be
    resurrected.  Traffic shows up as
    ``stack.cache.hit`` / ``stack.cache.miss`` metrics and a ``cached``
    span attribute; churn-driven drops as ``stack.cache.invalidated``.

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
    ``stale=True`` — and no degraded decision is ever stored in the fresh
    mediation cache.  ``layer_faults`` accepts a
    :class:`~repro.webcom.faults.LayerFaultInjector` so chaos schedules can
    time out layers deterministically.
    """

    def __init__(self, audit: AuditLog | None = None,
                 require_some_layer: bool = True,
                 clock: SimulatedClock | None = None,
                 obs: "Observability | None" = None,
                 cache_ttl: float | None = None,
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
        #: mediation cache: None disables; otherwise decisions are served
        #: for identical requests for ``cache_ttl`` simulated seconds
        self.cache_ttl = cache_ttl
        #: request -> (expires, decision-scoped fingerprint, decision)
        self._cache: dict[MediationRequest,
                          tuple[float, object, StackDecision]] = {}
        #: serialises mediation-cache / last-known-good mutation against
        #: concurrent serve handlers (and threaded harnesses); without it a
        #: mediation racing a revocation could re-cache a stale decision
        self._cache_lock = threading.RLock()
        self._uncacheable: set[Layer] = set()
        self.cache_hits = 0
        self.cache_misses = 0
        #: entries dropped because their TM decision changed underneath them
        self.cache_invalidated = 0
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.layer_faults = layer_faults
        self._breakers: dict[Layer, CircuitBreaker] = {}
        self._degraded_modes: dict[Layer, DegradedMode] = {}
        #: request -> the last fully mediated (non-degraded) decision;
        #: the store fail-static layers serve from during an outage
        self._last_good: dict[MediationRequest, StackDecision] = {}
        self.stale_served = 0

    def _now(self) -> float:
        """Current simulated time (0.0 when no clock is configured)."""
        return self.clock.now() if self.clock is not None else 0.0

    # -- plugging -------------------------------------------------------------

    def plug_os(self, os_security: OperatingSystemSecurity) -> "AuthorisationStack":
        """Configure L0."""
        self._os = os_security
        self.invalidate_cache()
        return self

    def plug_middleware(self, middleware: Middleware) -> "AuthorisationStack":
        """Configure L1."""
        self._middleware = middleware
        self.invalidate_cache()
        return self

    def plug_trust_management(self, session: KeyNoteSession,
                              ) -> "AuthorisationStack":
        """Configure L2."""
        self._tm = session
        self.invalidate_cache()
        return self

    def plug_application(self, predicate: AppPredicate) -> "AuthorisationStack":
        """Configure L3."""
        self._app = predicate
        self.invalidate_cache()
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

    # -- mediation cache ------------------------------------------------------

    def mark_uncacheable(self, layer: Layer) -> "AuthorisationStack":
        """Opt a layer out of mediation caching.

        Decisions whose trace consulted this layer are never cached — use
        for layers whose checks are not idempotent (rate limiters, one-time
        tokens, predicates with side effects).  A denial short-circuited
        *above* the layer never consulted it, so it may still be cached:
        replaying it reproduces the same short-circuit.
        """
        self._uncacheable.add(layer)
        self.invalidate_cache()
        return self

    def invalidate_cache(self) -> None:
        """Drop every cached mediation decision."""
        with self._cache_lock:
            self._cache.clear()

    def cache_info(self) -> dict[str, int]:
        """Mediation-cache statistics."""
        with self._cache_lock:
            return {"entries": len(self._cache), "hits": self.cache_hits,
                    "misses": self.cache_misses,
                    "invalidated": self.cache_invalidated}

    def _entry_fingerprint(self, request: MediationRequest,
                           decision: StackDecision) -> object:
        """The decision-scoped fingerprint of one cache entry.

        A decision whose trace consulted trust management is pinned to the
        (TM decision key, value) it observed; one that never consulted TM
        (denied above L2, or no TM plugged) gets a static sentinel — no
        assertion churn can change what it never read.  Returns None when
        the checker holds no cached value for the key: the decision cannot
        be fingerprinted right now, so the caller must not cache (store)
        or must drop (lookup).  That absence is exactly the mid-mediation
        revocation signature — the checker's epoch guard refused the
        in-flight decision — so a stale-fresh entry can never be stored.
        """
        tm_decision = decision.layer(Layer.TRUST_MANAGEMENT)
        if self._tm is None or tm_decision is None:
            return ("tm-not-consulted",)
        attributes = dict(request.attributes)
        attributes.setdefault("op", request.operation)
        key, value = self._tm.decision_fingerprint(attributes,
                                                   [request.user_key])
        if value is None or tm_decision.detail != f"compliance={value}":
            # No cached checker value for this key, or the checker's
            # current value differs from what this decision's trace
            # actually observed (a concurrent mutation recomputed it
            # mid-flight) — either way the decision cannot be vouched for.
            return None
        return ("tm-decision", key, value)

    def _revalidate(self, request: MediationRequest,
                    entry: tuple[float, object, StackDecision]) -> bool:
        """True while the one TM decision an entry depends on is unchanged;
        otherwise drop the entry (caller holds the cache lock)."""
        _expires, fingerprint, decision = entry
        if fingerprint == self._entry_fingerprint(request, decision):
            return True
        # The decision changed (or was evicted and not recomputed).
        self._cache.pop(request, None)
        self.cache_invalidated += 1
        if self.obs is not None:
            self.obs.metrics.counter("stack.cache.invalidated").inc()
        return False

    def _cache_lookup(self, request: MediationRequest,
                      stale_ok: float | None = None) -> StackDecision | None:
        """A revalidated cache entry, or None to mediate for real.

        With ``stale_ok`` (the brownout path) an entry up to that many
        seconds past its freshness bound is still served, marked
        ``stale=True``: only *age* is forgiven, never a changed decision,
        because every entry is revalidated against its TM decision
        fingerprint first.
        """
        now = self._now()
        with self._cache_lock:
            entry = self._cache.get(request)
            if entry is None:
                return None
            expires, _fingerprint, decision = entry
            if now > expires + (stale_ok or 0.0):
                self._cache.pop(request, None)
                return None
            if not self._revalidate(request, entry):
                return None
        if now <= expires:
            return decision
        self.stale_served += 1
        if self.obs is not None:
            self.obs.metrics.counter("stack.cache.stale_served").inc()
        return replace(decision, stale=True)

    def _cache_store(self, request: MediationRequest,
                     decision: StackDecision) -> None:
        """Store a fresh decision under its decision-scoped fingerprint,
        captured *after* mediation ran — when the TM decision it depends
        on is absent from the checker cache (a concurrent mutation's epoch
        guard refused it), the decision is not cached at all."""
        if decision.is_degraded():
            # A degraded decision is never cached as fresh: the next
            # request must re-probe the layers (or be re-marked stale).
            return
        if any(d.layer in self._uncacheable for d in decision.decisions):
            return
        with self._cache_lock:
            fingerprint = self._entry_fingerprint(request, decision)
            if fingerprint is None:
                return
            self._cache[request] = (self._now() + self.cache_ttl,
                                    fingerprint, decision)

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

    def _layer_checks(self, request: MediationRequest):
        """Yield ``(layer, thunk)`` pairs top-down (L3 → L0) for the
        configured layers; each thunk returns ``(allowed, detail)``."""
        if self._app is not None:
            app = self._app
            yield Layer.APPLICATION, lambda: (bool(app(request)),
                                              "application predicate")
        if self._tm is not None:
            tm = self._tm

            def check_tm() -> tuple[bool, str]:
                attributes = dict(request.attributes)
                attributes.setdefault("op", request.operation)
                result = tm.query(attributes, [request.user_key])
                return bool(result), f"compliance={result.compliance_value}"

            yield Layer.TRUST_MANAGEMENT, check_tm
        if self._middleware is not None:
            middleware = self._middleware

            def check_middleware() -> tuple[bool, str]:
                ok = middleware.check_invocation(Invocation(
                    user=request.user, object_type=request.object_type,
                    operation=request.operation))
                return ok, f"middleware={middleware.name}"

            yield Layer.MIDDLEWARE, check_middleware
        if self._os is not None:
            os_security = self._os

            def check_os() -> tuple[bool, str]:
                os_object = request.os_object or request.object_type
                ok = os_security.check(request.user, os_object,
                                       request.os_access)
                return ok, f"os={os_security.platform}"

            yield Layer.OS, check_os

    def mediate(self, request: MediationRequest,
                correlation_id: str | None = None,
                stale_ok: float | None = None) -> StackDecision:
        """Run the request down the stack.

        When observability is configured, the whole mediation is one
        ``stack.mediate`` span with a timed ``stack.layer.<NAME>`` child
        per consulted layer; ``correlation_id`` ties the trace to the
        remote scheduling decision that triggered this check (it defaults
        to whatever trace context is already open).

        ``stale_ok`` is the brownout path: a cached decision up to that
        many clock seconds past its freshness bound is served marked
        ``stale=True`` instead of re-mediating — the fail-static
        discipline applied to overload instead of backend outage.  A stale
        hit is audited, traced and counted like any other hit, and is
        never re-cached or stored as last-known-good.

        :raises AuthorisationError: if no layer is configured and
            ``require_some_layer`` is set (an empty stack silently allowing
            everything is almost certainly a misconfiguration).
        """
        if self.require_some_layer and not self.configured_layers():
            raise AuthorisationError("no mediation layer is configured")
        cached = None
        if self.cache_ttl is not None:
            cached = self._cache_lookup(request, stale_ok)
            if self.obs is not None:
                hit_or_miss = "hit" if cached is not None else "miss"
                self.obs.metrics.counter(f"stack.cache.{hit_or_miss}").inc()
            if cached is not None:
                self.cache_hits += 1
            else:
                self.cache_misses += 1
        tracer = self.obs.tracer if self.obs is not None else None
        if tracer is not None:
            with tracer.span("stack.mediate", correlation_id=correlation_id,
                             user=request.user, op=request.operation,
                             cached=cached is not None) as span:
                decision = cached if cached is not None \
                    else self._run_layers(request, tracer)
                span.status = "allow" if decision.allowed else "deny"
                denied_by = decision.deciding_layer()
                if denied_by is not None:
                    span.set(denied_by=denied_by.name)
                if decision.stale:
                    span.set(stale=True)
                if decision.degraded:
                    span.set(degraded=",".join(layer.name for layer
                                               in decision.degraded))
        elif cached is not None:
            decision = cached
        else:
            decision = self._run_layers(request, None)
        if cached is None and not decision.is_degraded():
            # Only a fully, freshly mediated decision may seed the
            # last-known-good store fail-static layers serve from.
            with self._cache_lock:
                self._last_good[request] = decision
        if cached is None and self.cache_ttl is not None:
            # The decision-scoped fingerprint is captured *after* mediation:
            # if a revocation landed mid-mediation, the checker's epoch
            # guard refused the in-flight TM decision, the fingerprint
            # comes back None, and this decision is simply never cached.
            self._cache_store(request, decision)
        if self.obs is not None:
            outcome = "allow" if decision.allowed else "deny"
            self.obs.metrics.counter(f"stack.mediate.{outcome}").inc()
        if self.audit is not None:
            denied = decision.deciding_layer()
            self.audit.record(
                self._now(), "stack.mediate", subject=request.user,
                outcome="allow" if decision.allowed else "deny",
                operation=request.operation,
                layers=[d.layer.name for d in decision.decisions],
                denied_by=denied.name if denied is not None else None,
                cached=cached is not None, stale=decision.stale,
                degraded=[layer.name for layer in decision.degraded])
        return decision

    def _run_layers(self, request: MediationRequest, tracer) -> StackDecision:
        decisions: list[LayerDecision] = []
        degraded: list[Layer] = []
        allowed = True
        for layer, check in self._layer_checks(request):
            if not allowed:
                break
            breaker = self.breaker(layer)
            if not breaker.allow():
                # Breaker OPEN and still cooling down: resolve through the
                # degraded mode without touching the backend at all.
                static = self._degrade(layer, request, "breaker open",
                                       decisions, degraded)
                if static is not None:
                    return static
                allowed = decisions[-1].allowed
                continue
            probing = breaker.state is BreakerState.HALF_OPEN
            try:
                if tracer is not None:
                    with tracer.span(f"stack.layer.{layer.name}",
                                     probe=probing) as span:
                        allowed, detail = self._checked(layer, check)
                        span.status = "allow" if allowed else "deny"
                        span.set(detail=detail)
                else:
                    allowed, detail = self._checked(layer, check)
            except Exception as exc:  # deliberate: a flaky backend must
                # degrade explicitly, never abort mediation mid-stack
                breaker.record_failure()
                if self.obs is not None:
                    self.obs.metrics.counter(
                        f"health.layer.{layer.name}.error").inc()
                static = self._degrade(layer, request, repr(exc),
                                       decisions, degraded)
                if static is not None:
                    return static
                allowed = decisions[-1].allowed
                continue
            breaker.record_success()
            if self.obs is not None:
                verdict = "allow" if allowed else "deny"
                self.obs.metrics.counter(
                    f"stack.layer.{layer.name}.{verdict}").inc()
            decisions.append(LayerDecision(layer, allowed, detail))
        return StackDecision(allowed=allowed, decisions=tuple(decisions),
                             degraded=tuple(degraded))

    def _checked(self, layer: Layer, check) -> tuple[bool, str]:
        """Run one layer check, injecting planned backend timeouts first."""
        if self.layer_faults is not None:
            self.layer_faults.check(layer.name, self._now())
        return check()

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
        if self.obs is not None:
            self.obs.metrics.counter(
                f"health.degraded.{layer.name}.{mode.value}").inc()
        if mode is DegradedMode.FAIL_STATIC:
            with self._cache_lock:
                last_good = self._last_good.get(request)
            if last_good is not None:
                self.stale_served += 1
                if self.obs is not None:
                    self.obs.metrics.counter("health.stale_served").inc()
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
