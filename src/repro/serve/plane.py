"""The policy plane behind the ``repro serve`` daemon.

:class:`ServePolicyPlane` assembles the framework's components — keystore,
trust-management session, authorisation stack, KeyCom administration
service, middleware — into the one object the server's request handlers
call.  With a durability ``root`` the whole assembly is recovered through
:class:`~repro.store.durable.DurablePolicyNode`, so every mutating API path
(credential add/revoke, KeyCom install) journals ahead to the PR-6 WAL
before touching memory, and a crashed daemon reboots into exactly its
acknowledged trust state (with every cache empty).

Every handler's work is also cross-checkable: :meth:`probe` mediates a
request through the production stack *and* re-derives the expected verdict
from the PR-5 conformance oracles (naive KeyNote fixpoint + relational RBAC
evaluation), reporting whether they agree.  The hostile-traffic and
concurrency suites under ``tests/serve`` mix probes into their floods and
require zero disagreements.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from repro.crypto.keystore import Keystore
from repro.errors import ServeError
from repro.keynote.api import KeyNoteSession
from repro.keynote.credential import Credential
from repro.middleware.corba import CorbaOrb
from repro.obs import Observability
from repro.rbac.serialize import policy_to_dict
from repro.store.durable import DurablePolicyNode
from repro.util.clock import Clock, WallClock
from repro.util.events import AuditLog
from repro.webcom.keycom import KeyComService, PolicyUpdateRequest
from repro.webcom.stack import (
    AuthorisationStack,
    Layer,
    MediationRequest,
    StackDecision,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.rbac.policy import RBACPolicy

#: audit records kept in memory — every mediation writes one, no wire call
#: reads them back, and listeners (the metrics mirror) see each record as
#: it is written, so a long-lived daemon keeps only the newest window
AUDIT_WINDOW = 1024


def decision_to_dict(decision: StackDecision) -> dict[str, Any]:
    """Serialise a stack decision for the wire, from the same
    :attr:`~repro.webcom.stack.StackDecision.facts` its audit record read."""
    facts = decision.facts
    return {
        "allowed": decision.allowed,
        "stale": decision.stale,
        "degraded": facts.degraded,
        "denied_by": facts.denied_by,
        "layers": [{"layer": name, "allowed": d.allowed,
                    "detail": d.detail, "error": d.error}
                   for name, d in zip(facts.layers, decision.decisions)],
    }


class ServePolicyPlane:
    """Keystore + session + stack + KeyCom behind the serve APIs.

    :param root: durability root directory; when given the whole plane is
        recovered via :class:`DurablePolicyNode` and journals ahead.
    :param clock: shared clock; defaults to a fresh
        :class:`~repro.util.clock.WallClock` (the daemon runs in real
        time), but a :class:`~repro.util.clock.SimulatedClock` plane is
        fully supported — the simulated-time test path and the wall-clock
        serve path share every component underneath.
    :param machine: host name of the administered CORBA ORB.
    :param orb_name: ORB instance name (KeyCom domain is
        ``machine/orb_name``).
    :param plug_middleware: also mediate requests through the ORB's RBAC
        policy (L1).  Off by default: a bare plane starts with no RBAC
        content, and an empty L1 would veto everything.
    """

    def __init__(self, root: "Path | str | None" = None,
                 clock: Clock | None = None,
                 keystore: Keystore | None = None,
                 machine: str = "serve", orb_name: str = "orb",
                 plug_middleware: bool = False,
                 verify_signatures: bool = True) -> None:
        self.clock: Clock = clock or WallClock()
        self.keystore = keystore or Keystore()
        self.obs = Observability(clock=self.clock)
        # A span's one reader is a ``decision`` event: the server collects
        # a mediation's tree only while someone is subscribed.
        self.obs.tracer.recording = False
        self.audit = AuditLog(capacity=AUDIT_WINDOW)
        self.middleware = CorbaOrb(machine, orb_name)
        self.node: DurablePolicyNode | None = None
        if root is not None:
            self.node = DurablePolicyNode.recover(
                root, keystore=self.keystore, clock=self.clock,
                keycom_middleware=self.middleware,
                verify_signatures=verify_signatures, obs=self.obs)
            self.session = self.node.session
            self.keycom = self.node.keycom
            self.session.audit = self.audit
            assert self.keycom is not None
            self.keycom.audit = self.audit
        else:
            self.session = KeyNoteSession(
                keystore=self.keystore, audit=self.audit, clock=self.clock,
                verify_signatures=verify_signatures, obs=self.obs)
            self.keycom = KeyComService(self.middleware, self.session,
                                        audit=self.audit)
        self.stack = AuthorisationStack(
            audit=self.audit, clock=self.clock, obs=self.obs)
        self.stack.plug_trust_management(self.session)
        if plug_middleware:
            self.stack.plug_middleware(self.middleware)
        self.mediations = 0
        self.stale_mediations = 0
        self.probes = 0
        self.oracle_disagreements = 0
        self._closed = False
        # Compiled view of the ORB's RBAC content (the bitset engine,
        # PR 8): extracted once and reused across probes, invalidated
        # whenever a KeyCom update actually lands.
        self._rbac_view: "RBACPolicy | None" = None

    # -- compiled RBAC view ------------------------------------------------

    def middleware_rbac(self) -> "RBACPolicy":
        """The ORB's RBAC policy, extracted once and engine-compiled.

        Probes used to re-extract (and the oracle to re-close) the whole
        policy per request; the cached view keeps the compiled engine's
        interning tables and hierarchy closure warm across probes.
        """
        if self._rbac_view is None:
            self._rbac_view = self.middleware.extract_rbac()
        return self._rbac_view

    def _invalidate_rbac_view(self) -> None:
        self._rbac_view = None

    # -- request plumbing --------------------------------------------------

    def _request(self, params: Mapping[str, Any],
                 pin_time: bool = False) -> MediationRequest:
        """Build a :class:`MediationRequest` from wire params.

        :raises ServeError: when required fields are missing, or
            ``attributes`` is not an object of string names to string
            values (KeyNote action attributes are strings).
        """
        missing = [name for name in ("user", "user_key", "object_type",
                                     "operation")
                   if not isinstance(params.get(name), str)
                   or not params[name]]
        if missing:
            raise ServeError(
                f"mediate params missing fields: {', '.join(missing)}")
        raw = params.get("attributes")
        if raw is None:
            raw = {}
        if not isinstance(raw, Mapping) or not all(
                isinstance(name, str) and isinstance(value, str)
                for name, value in raw.items()):
            raise ServeError("mediate attributes must map strings to "
                             "strings")
        attributes = dict(raw)
        if pin_time and "_cur_time" not in attributes:
            # Pin the evaluation instant so the production mediation and
            # the oracle re-derivation below read the same clock even on
            # wall time, where "now" moves between the two.
            attributes["_cur_time"] = repr(self.clock.now())
        return MediationRequest(
            user=params["user"], user_key=params["user_key"],
            object_type=params["object_type"], operation=params["operation"],
            os_object=str(params.get("os_object", "")),
            os_access=str(params.get("os_access", "read")),
            attributes=attributes)

    # -- serve APIs --------------------------------------------------------

    def mediate(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """Run one request down the authorisation stack."""
        request = self._request(params)
        correlation_id = self.obs.tracer.new_correlation_id()
        decision = self.stack.mediate(request, correlation_id=correlation_id)
        if decision.stale:
            self.stale_mediations += 1
        self.mediations += 1
        result = decision_to_dict(decision)
        result["correlation_id"] = correlation_id
        result["user"] = request.user
        result["operation"] = request.operation
        return result

    def probe(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """Mediate *and* cross-check against the conformance oracles.

        The expected verdict is the conjunction of the per-layer oracle
        verdicts, exactly as the PR-5 differ derives it: the naive KeyNote
        fixpoint for L2 and the relational RBAC evaluation for L1 (when
        plugged).  Degraded or stale production decisions are exempt from
        the comparison — they are, by construction, not fresh mediations.
        The oracles load on the first probe: a daemon that is never probed
        does not pay for them at start-up.
        """
        from repro.oracle.keynote_oracle import oracle_compliance_value
        from repro.oracle.rbac_oracle import RBACOracle

        request = self._request(params, pin_time=True)
        correlation_id = self.obs.tracer.new_correlation_id()
        decision = self.stack.mediate(request, correlation_id=correlation_id)
        self.mediations += 1
        self.probes += 1
        attributes = dict(request.attributes)
        attributes.setdefault("op", request.operation)
        value = oracle_compliance_value(
            self.admitted_assertions(), attributes, [request.user_key],
            self.session.values, self.keystore)
        expected = self.session.values.at_least(value,
                                                self.session.values.maximum)
        if Layer.MIDDLEWARE in self.stack.configured_layers():
            oracle = RBACOracle.from_policy(self.middleware_rbac())
            expected = expected and oracle.check_access(
                request.user, request.object_type, request.operation)
        agree = decision.is_degraded() or (decision.allowed == expected)
        if not agree:
            self.oracle_disagreements += 1
        result = decision_to_dict(decision)
        result.update({
            "correlation_id": correlation_id,
            "oracle_allowed": expected,
            "oracle_value": value,
            "agree": agree,
        })
        return result

    def admitted_assertions(self) -> list[Credential]:
        """The session's assertions that pass signature screening — the
        set the oracle must evaluate (it does no screening of its own), so
        a forged credential the checker discards cannot make a probe
        disagree.  The verdicts are the checker's own: a check still
        deferred runs there, once, and no other check runs again."""
        checker = self.session.checker
        checker.verify_pending()
        discarded = set(checker.discarded)
        return [assertion for assertion in checker.assertions
                if assertion not in discarded]

    def translate(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """Comprehend KeyNote credentials into one RBAC policy (§4.2).
        The translator loads on the first call."""
        from repro.translate.from_keynote import comprehend_credentials

        texts = params.get("credentials") or []
        if not isinstance(texts, list):
            raise ServeError("translate params need a credentials list")
        credentials = [Credential.from_text(str(text)) for text in texts]
        policy = comprehend_credentials(
            credentials, keystore=self.keystore, audit=self.audit,
            name=str(params.get("name", "comprehended")))
        return {"policy": policy_to_dict(policy),
                "grants": len(policy.sorted_grants()),
                "assignments": len(policy.assignments)}

    def keycom_update(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """Submit one credential-backed KeyCom policy update (Figure 8).

        :raises KeyComError: malformed or unauthorised requests (rejected,
            not dropped — the caller is a remote client).
        """
        texts = params.get("credentials") or []
        request = PolicyUpdateRequest(
            user=str(params.get("user", "")),
            user_key=str(params.get("user_key", "")),
            domain=str(params.get("domain", "")),
            role=str(params.get("role", "")),
            credentials=tuple(Credential.from_text(str(t)) for t in texts),
            request_id=str(params.get("request_id", "")))
        before = self.keycom.duplicates
        applied = self.keycom.submit(request)
        if applied:
            self._invalidate_rbac_view()
        return {"applied": applied,
                "duplicate": self.keycom.duplicates > before,
                "domain": request.domain, "role": request.role,
                "user": request.user}

    def add_policy(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """Install a local POLICY assertion (journalled when durable)."""
        credential = self.session.add_policy(str(params.get("text", "")))
        return {"added": True, "authorizer": credential.authorizer,
                "fingerprint": list(self.session.state_fingerprint())}

    def add_credential(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """Install a signed credential, optionally with structured expiry."""
        expires_at = params.get("expires_at")
        credential = self.session.add_credential(
            str(params.get("text", "")),
            expires_at=float(expires_at) if expires_at is not None else None)
        return {"added": True, "authorizer": credential.authorizer,
                "fingerprint": list(self.session.state_fingerprint())}

    def revoke_credential(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """Revoke a previously installed credential by its text."""
        credential = Credential.from_text(str(params.get("text", "")))
        revoked = self.session.revoke_credential(credential)
        return {"revoked": revoked,
                "fingerprint": list(self.session.state_fingerprint())}

    def sweep(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """Run one structured-expiry sweep."""
        expired = self.session.sweep_expired()
        return {"expired": len(expired)}

    # -- lifecycle ---------------------------------------------------------

    def wal_info(self) -> dict[str, Any] | None:
        """WAL position info for status reports (None when in-memory)."""
        if self.node is None:
            return None
        wal = self.node.store.wal
        return {"root": str(self.node.store.root),
                "next_lsn": wal.next_lsn, "base_lsn": wal.base_lsn}

    def status(self) -> dict[str, Any]:
        """Serialisable plane state.  ``cache`` is the trust-management
        decision cache (the plane's one) in the stack cache's old four
        keys, which the benchmark still reads; ``tm_cache`` has all of
        the checker's counters."""
        tm_cache = self.session.checker_cache_info()
        return {
            "timescale": self.clock.timescale,
            "now": self.clock.now(),
            "durable": self.node is not None,
            "wal": self.wal_info(),
            "fingerprint": list(self.session.state_fingerprint()),
            "mediations": self.mediations,
            "stale_mediations": self.stale_mediations,
            "probes": self.probes,
            "oracle_disagreements": self.oracle_disagreements,
            "cache": {"entries": tm_cache["entries"],
                      "hits": tm_cache["hits"],
                      "misses": tm_cache["misses"],
                      "invalidated": tm_cache["selective_evictions"]},
            "tm_cache": tm_cache,
            "audit": {"retained": len(self.audit),
                      "recorded": self.audit.recorded},
            "health": self.stack.health_snapshot(),
            "keycom": {"applied_ids": len(self.keycom.applied_ids),
                       "duplicates": self.keycom.duplicates},
            "rbac_engine": (self._rbac_view.engine_stats()
                            if self._rbac_view is not None else None),
        }

    def close(self) -> dict[str, Any]:
        """Flush durable state: snapshot the node and close the WAL.

        Idempotent; returns what was flushed so the server's drain report
        can prove the WAL went down clean.
        """
        if self._closed:
            return {"wal_flushed": self.node is not None, "snapshot": None}
        self._closed = True
        if self.node is None:
            return {"wal_flushed": False, "snapshot": None}
        path = self.node.snapshot()
        self.node.close()
        return {"wal_flushed": True, "snapshot": str(path)}
