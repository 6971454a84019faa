"""Session-style KeyNote API.

Mirrors the C toolkit's ``kn_init`` / ``kn_add_assertion`` / ``kn_do_query``
interface the paper's applications call: a session accumulates policy
assertions and credentials, then answers queries.  Decisions are optionally
recorded to an :class:`~repro.util.events.AuditLog` — the "TM queries" arrow
of Figure 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.crypto.keystore import Keystore
from repro.errors import CredentialError
from repro.keynote.compliance import ComplianceChecker
from repro.keynote.credential import Credential
from repro.keynote.eval import compile_conditions
from repro.keynote.parser import parse_credentials
from repro.keynote.values import DEFAULT_VALUE_SET, ComplianceValueSet
from repro.util.clock import SimulatedClock
from repro.util.events import AuditLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability
    from repro.store.durable import DurableStore


@dataclass(frozen=True)
class QueryResult:
    """The outcome of one trust-management query."""

    compliance_value: str
    authorized: bool
    attributes: Mapping[str, str]
    authorizers: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.authorized


class KeyNoteSession:
    """A long-lived KeyNote evaluation context.

    Its one trust store is a :class:`ComplianceChecker` built at
    construction; ``assertions`` and ``expiring`` seed it unjournalled
    (recovery passes the acknowledged multiset and expiry registry).

    >>> from repro.crypto import Keystore
    >>> ks = Keystore(); _ = ks.create("Kbob")
    >>> session = KeyNoteSession(keystore=ks)
    >>> _ = session.add_policy('Authorizer: POLICY\\nLicensees: "Kbob"\\n'
    ...                        'Conditions: app_domain=="db";')
    >>> bool(session.query({"app_domain": "db"}, authorizers=["Kbob"]))
    True
    """

    def __init__(self, keystore: Keystore | None = None,
                 values: ComplianceValueSet = DEFAULT_VALUE_SET,
                 audit: AuditLog | None = None,
                 clock: SimulatedClock | None = None,
                 verify_signatures: bool = True,
                 obs: "Observability | None" = None,
                 clock_skew: float = 0.0,
                 expiry_grace: float | None = None,
                 store: "DurableStore | None" = None,
                 assertions: Iterable[Credential] = (),
                 expiring: Mapping[Credential, float] | None = None,
                 ) -> None:
        if clock_skew < 0:
            raise CredentialError(
                f"clock_skew cannot be negative, got {clock_skew}")
        if expiry_grace is not None and expiry_grace < 0:
            raise CredentialError(
                f"expiry_grace cannot be negative, got {expiry_grace}")
        self.keystore = keystore
        self.values = values
        self.audit = audit
        self.clock = clock or (obs.clock if obs is not None
                               else SimulatedClock())
        self.obs = obs
        #: assumed bound on how far any client clock drifts from ours
        self.clock_skew = clock_skew
        #: extra simulated seconds a credential stays usable past
        #: ``expires_at`` (default 2 × ``clock_skew``: the worst-case
        #: round-trip drift between a fast issuer and a slow verifier)
        self.expiry_grace = (expiry_grace if expiry_grace is not None
                             else 2.0 * clock_skew)
        #: optional durable store — assertion-set mutations (add, revoke,
        #: expiry sweeps) are written ahead to it before they touch the
        #: session, so a crashed node recovers exactly its acknowledged
        #: trust state (:mod:`repro.store.durable` replays the records)
        self.store = store
        self._checker = ComplianceChecker(
            assertions=assertions, keystore=keystore,
            verify_signatures=verify_signatures,
            metrics=obs.metrics if obs is not None else None)
        #: credential -> structured expiry instant (simulated seconds)
        self._expires_at: dict[Credential, float] = dict(expiring or {})

    def _journal(self, kind: str, credential: Credential, **payload) -> None:
        # The text is rendered only when there is a store to write it to:
        # recovery replays every assertion with the store detached.
        if self.store is not None:
            self.store.append(kind, text=credential.to_text(), **payload)

    # -- assertion management ------------------------------------------------

    def add_policy(self, source: str | Credential) -> Credential:
        """Add a local policy assertion.

        :raises CredentialError: if the assertion is not a POLICY assertion.
        """
        credential = self._coerce(source)
        if not credential.is_policy:
            raise CredentialError(
                "add_policy requires an 'Authorizer: POLICY' assertion")
        compile_conditions(credential.shape)  # refuse before journalling
        self._journal("keynote.policy", credential)
        self._checker.add_assertion(credential)
        return credential

    def add_credential(self, source: str | Credential,
                       expires_at: float | None = None) -> Credential:
        """Add a signed credential supplied by a requester or a PKI.

        Its signature is checked when a decision first reads it; a forged
        credential is held (and revocable) but grants nothing.

        :param expires_at: optional structured expiry instant (simulated
            seconds).  Unlike a ``_cur_time < T`` condition — which flips a
            credential's verdict the instant any query's clock crosses T —
            a structured expiry is only enforced by :meth:`sweep_expired`,
            and only once the instant is at least :attr:`expiry_grace`
            seconds in the past.  Between ``expires_at`` and the sweep the
            credential keeps answering exactly as before, so two clients
            whose clocks disagree by up to the configured skew cannot
            observe a PASS/FAIL flap for the same request.
        :raises CredentialError: if a POLICY assertion is smuggled in, or
            ``expires_at`` is not a finite number.
        :raises KeyNoteSyntaxError: when its Conditions do not compile.
            Like every refusal here, it comes before anything is
            journalled.
        """
        credential = self._coerce(source)
        if credential.is_policy:
            raise CredentialError(
                "POLICY assertions must be added with add_policy")
        if expires_at is not None:
            if not (isinstance(expires_at, (int, float))
                    and math.isfinite(expires_at)):
                raise CredentialError(
                    f"expires_at must be a finite number, got {expires_at!r}")
        compile_conditions(credential.shape)  # refuse before journalling
        self._journal("keynote.credential", credential,
                      expires_at=(float(expires_at)
                                  if expires_at is not None else None))
        if expires_at is not None:
            self._expires_at[credential] = float(expires_at)
        self._checker.add_assertion(credential, defer=True)
        return credential

    def revoke_credential(self, credential: Credential) -> bool:
        """Remove one copy of a previously added credential (a discarded
        forgery included); False when no copy is held.

        Bumps the checker's generation and marks the revoked credential
        dead, so no cached decision that read it is served again, while
        unrelated cached decisions stay warm.  Credentials are held by
        value, so the cost does not grow with the number held.
        """
        if credential.is_policy or credential not in self._checker:
            return False
        self._journal("keynote.revoke", credential)
        self._expires_at.pop(credential, None)
        self._checker.revoke_assertion(credential)
        return True

    def sweep_expired(self) -> list[Credential]:
        """Revoke every credential whose expiry is safely in the past.

        A credential with ``expires_at = T`` is removed once
        ``now >= T + expiry_grace``.  Enforcing expiry only at sweeps (each
        revocation bumps the checker generation and evicts the decisions
        that read the credential) keeps the session deterministic under
        clock skew: a verdict changes
        at a sweep boundary, never because one query's clock happened to
        read a few seconds ahead of another's.  Returns the credentials
        revoked, and audits each as ``keynote.expire``.
        """
        now = self.clock.now()
        expired = [credential for credential, instant
                   in self._expires_at.items()
                   if now >= instant + self.expiry_grace]
        for credential in expired:
            instant = self._expires_at[credential]
            self.revoke_credential(credential)
            if self.obs is not None:
                self.obs.metrics.counter("health.credential.expired").inc()
            if self.audit is not None:
                self.audit.record(
                    now, "keynote.expire",
                    subject=credential.authorizer or "?",
                    outcome="revoked", expires_at=instant,
                    grace=self.expiry_grace)
        return expired

    def expiring(self) -> dict[Credential, float]:
        """The structured-expiry registry (credential -> instant)."""
        return dict(self._expires_at)

    def add_credentials(self, text: str) -> list[Credential]:
        """Parse and add several credentials from one blob."""
        added = [self.add_credential(c) for c in parse_credentials(text)]
        return added

    @staticmethod
    def _coerce(source: str | Credential) -> Credential:
        if isinstance(source, Credential):
            return source
        return Credential.from_text(source)

    @property
    def policies(self) -> list[Credential]:
        """The policy assertions held, in first-added order."""
        return [assertion for assertion in self._checker.assertions
                if assertion.is_policy]

    @property
    def credentials(self) -> list[Credential]:
        """The signed credentials held (admitted, pending or discarded),
        in first-added order, each as many times as it was added and not
        revoked."""
        return [assertion for assertion in self._checker.assertions
                if not assertion.is_policy]

    def clear_credentials(self) -> None:
        """Revoke every signed credential, journalled (policies stay)."""
        for credential in self.credentials:
            self.revoke_credential(credential)

    def state_fingerprint(self) -> tuple[int, int, int]:
        """A value that changes whenever the assertion set may have changed
        (reported by the serve plane's status and mutation replies): the
        policy and credential copies held and the checker's generation.
        Decision caches should key on :meth:`decision_fingerprint`
        instead, which changes only when one decision does.
        """
        return (*self._checker.copies(), self._checker.generation)

    def decision_fingerprint(self, attributes: Mapping[str, str],
                             authorizers: Iterable[str],
                             ) -> "tuple[object, str | None]":
        """The decision key a :meth:`query` with these arguments would use
        and the checker's currently cached value for it (None when absent).

        ``_cur_time`` is injected exactly as :meth:`query` does, so the
        key matches what the query actually computed (the checker's
        attribute projection drops ``_cur_time`` unless some assertion
        references it).  A recovered session starts with an empty decision
        cache, so nothing decided before a restart is served after it.
        The authorisation stack reads its L2 verdict through this first
        and runs :meth:`query` only when no value is cached.
        """
        if "_cur_time" not in attributes:
            attributes = {**attributes, "_cur_time": repr(self.clock.now())}
        return self._checker.cached_decision(attributes, tuple(authorizers),
                                             self.values)

    def checker_cache_info(self) -> dict[str, int]:
        """The checker's decision-cache and signature-check statistics."""
        return self._checker.cache_info()

    # -- queries -----------------------------------------------------------------

    @property
    def checker(self) -> ComplianceChecker:
        """The session's compliance checker and trust store, changed
        incrementally by every add and revoke."""
        return self._checker

    def query(self, attributes: Mapping[str, str],
              authorizers: Iterable[str],
              extra_credentials: Iterable[Credential] = (),
              threshold: str | None = None) -> QueryResult:
        """Evaluate a request.

        :param attributes: action attribute set.
        :param authorizers: key(s) making the request.
        :param extra_credentials: per-request credentials presented alongside
            the request.  They ride the live checker as a per-call overlay
            (:meth:`ComplianceChecker.query
            <repro.keynote.compliance.ComplianceChecker.query>` with
            ``extra``): only they are verified and compiled, the answer is
            never cached, and nothing of them is retained in the session or
            the checker.
        :param threshold: minimum compliance value counted as authorised
            (defaults to the value set's maximum).
        """
        extras = list(extra_credentials)
        checker = self._checker
        authorizer_tuple = tuple(authorizers)
        # The current simulated time is always available to conditions as
        # `_cur_time`, so credentials can carry expiry tests like
        # `_cur_time < 1000` without any revocation machinery (the KeyNote
        # idiom for time-limited delegation).
        if "_cur_time" not in attributes:
            attributes = {**attributes, "_cur_time": repr(self.clock.now())}
        if self.obs is not None and self.obs.tracer.recording:
            with self.obs.tracer.span("keynote.query",
                                      authorizers=",".join(authorizer_tuple)
                                      ) as span:
                value = checker.query(attributes, authorizer_tuple,
                                      self.values, extras)
                span.set(compliance_value=value)
        else:
            value = checker.query(attributes, authorizer_tuple, self.values,
                                  extras)
        target = threshold if threshold is not None else self.values.maximum
        result = QueryResult(
            compliance_value=value,
            authorized=self.values.at_least(value, target),
            attributes=dict(attributes),
            authorizers=authorizer_tuple,
        )
        if self.audit is not None:
            self.audit.record(
                self.clock.now(), "keynote.query",
                subject=",".join(authorizer_tuple),
                outcome="allow" if result.authorized else "deny",
                compliance_value=value,
                attributes=dict(attributes))
        return result

    def query_many(self, requests: Iterable[tuple[Mapping[str, str],
                                                  Iterable[str]]],
                   ) -> list[str]:
        """Batch evaluation through
        :meth:`ComplianceChecker.query_many
        <repro.keynote.compliance.ComplianceChecker.query_many>`: one
        compliance value per ``(attributes, authorizers)`` pair, with
        condition programs shared across the batch.  ``_cur_time`` is
        injected exactly as :meth:`query` does; audit records are not
        emitted for batch queries.
        """
        now = repr(self.clock.now())
        prepared = [
            (attrs if "_cur_time" in attrs else {**attrs, "_cur_time": now},
             tuple(auths))
            for attrs, auths in requests]
        return self._checker.query_many(prepared, self.values)
