"""The KeyCOM administration service (Figure 8).

"On each WebCom environment a secure automated administration service accepts
KeyNote credentials and updates the local middleware security policy
configuration to reflect the authorisations granted by the credentials. ...
The KeyCOM service of WebCom accepts a policy update request (plus KeyNote
credentials) and if valid it updates the security policy in the COM Catalogue
with the equivalent authorisation.  KeyCOM acts, in effect, as an automated
Windows/COM administrator."

The service holds the local trust root (the WebCom administration key's
POLICY assertion).  A request asks to install a (user, domain, role)
membership; the presented credentials must *prove* the membership — i.e. the
compliance checker must authorise the user's key for the role's attributes —
before the middleware store is touched.  This is how a user registered only
in Domain B (Figure 8) gets integrated into Domain A's COM+ policy without a
human administrator.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Set
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import KeyComError
from repro.keynote.api import KeyNoteSession
from repro.keynote.credential import Credential
from repro.middleware.base import Middleware
from repro.rbac.model import Assignment
from repro.translate.common import membership_attributes
from repro.util.events import AuditLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.store.durable import DurableStore

#: evaluated requests :attr:`KeyComService.processed` keeps, newest last —
#: each holds its parsed credentials, and a long-lived daemon evaluates
#: one per install
PROCESSED_WINDOW = 64
#: applied request ids :attr:`KeyComService.applied_ids` keeps, newest
#: last: a re-delivery of one of them is acknowledged without touching the
#: middleware; an older one is evaluated afresh
APPLIED_WINDOW = 1024


class AppliedIds(Set):
    """The newest :data:`APPLIED_WINDOW` applied request ids, in the order
    they were applied; adding one more drops the oldest.

    >>> ids = AppliedIds(["r1", "r2"])
    >>> "r1" in ids, list(ids)
    (True, ['r1', 'r2'])
    """

    __slots__ = ("_ids",)

    def __init__(self, ids: Iterable[str] = ()) -> None:
        self._ids: dict[str, None] = {}
        for request_id in ids:
            self.add(request_id)

    def add(self, request_id: str) -> None:
        """Record ``request_id`` as the newest, dropping the oldest past
        the window.  An id already held keeps its place."""
        ids = self._ids
        ids[request_id] = None
        while len(ids) > APPLIED_WINDOW:
            del ids[next(iter(ids))]

    def __contains__(self, request_id: object) -> bool:
        return request_id in self._ids

    def __iter__(self) -> Iterator[str]:
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)


@dataclass(frozen=True)
class PolicyUpdateRequest:
    """A decentralised policy update: install ``user`` into (domain, role).

    :param user: the middleware-level user name to install.
    :param user_key: the public key (name or encoded) proving the request.
    :param domain: target RBAC domain (an NT domain for COM+).
    :param role: target role.
    :param credentials: the KeyNote credentials presented as proof.
    :param request_id: client-chosen id making the request idempotent: the
        service applies each id at most once, so a duplicate delivered by a
        flaky network (or a client retry) cannot double-apply.  Empty means
        "not idempotent" (legacy callers).
    :param version: optional monotone version for anti-entropy replay; 0
        means unversioned.
    """

    user: str
    user_key: str
    domain: str
    role: str
    credentials: tuple[Credential, ...]
    request_id: str = ""
    version: int = 0

    def validate(self) -> None:
        """Structural validation, before any credential is evaluated.

        :raises KeyComError: for empty/blank principal, domain or role
            fields, a non-tuple credential payload, a presented
            ``Authorizer: POLICY`` assertion, or a negative version — a
            malformed request must be rejected before it can touch any
            state.  POLICY assertions are the local root of trust and are
            valid without a signature, so one presented by a remote caller
            could license any key for any role.
        """
        for name in ("user", "user_key", "domain", "role"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value.strip():
                raise KeyComError(
                    f"malformed update request: {name} must be a non-empty "
                    f"string, got {value!r}")
        if not isinstance(self.credentials, tuple) or not all(
                isinstance(c, Credential) for c in self.credentials):
            raise KeyComError(
                "malformed update request: credentials must be a tuple of "
                "Credential instances")
        if any(c.is_policy for c in self.credentials):
            raise KeyComError(
                "malformed update request: presented credentials must not "
                "be POLICY assertions")
        if not isinstance(self.request_id, str):
            raise KeyComError(
                f"malformed update request: request_id must be a string, "
                f"got {self.request_id!r}")
        if not isinstance(self.version, int) or self.version < 0:
            raise KeyComError(
                f"malformed update request: version must be a non-negative "
                f"integer, got {self.version!r}")


class KeyComService:
    """Accepts credential-backed policy update requests for one middleware.

    :param middleware: the local store to administer (COM+ in the paper; any
        :class:`~repro.middleware.base.Middleware` here).
    :param session: the trust-management session holding the local POLICY
        assertions (the root of what this environment accepts).
    """

    def __init__(self, middleware: Middleware, session: KeyNoteSession,
                 audit: AuditLog | None = None,
                 store: "DurableStore | None" = None) -> None:
        self.middleware = middleware
        self.session = session
        self.audit = audit
        #: optional durable store: each *authorised* install is written
        #: ahead as a ``keycom.apply`` record (user, domain, role,
        #: request_id) before the middleware is touched, so recovery
        #: replays exactly the acknowledged installs — and the request-id
        #: dedup below holds across restarts because replay rebuilds
        #: :attr:`applied_ids` from the same records
        self.store = store
        #: the newest evaluated requests with their verdicts (a bounded
        #: window; the audit log records every one)
        self.processed: deque[tuple[PolicyUpdateRequest, bool]] = deque(
            maxlen=PROCESSED_WINDOW)
        #: the newest request ids applied successfully — re-delivery of
        #: one of them is acknowledged without touching the middleware
        #: again; a retry older than :data:`APPLIED_WINDOW` installs is
        #: evaluated afresh (re-applying an assignment the middleware
        #: already holds changes nothing, and credentials revoked since
        #: make it a rejection)
        self.applied_ids = AppliedIds()
        self.duplicates = 0

    def submit(self, request: PolicyUpdateRequest) -> bool:
        """Validate and apply one update request.

        Returns True if the middleware policy was updated (or the request id
        was already applied — duplicate delivery is acknowledged, not
        re-applied).

        :raises KeyComError: if the request is structurally malformed or the
            credentials do not authorise the requested membership (invalid
            requests are *rejected*, not silently dropped — the caller is a
            remote client).  A malformed request is rejected before any
            query or middleware state change.
        """
        request.validate()
        if request.request_id and request.request_id in self.applied_ids:
            self.duplicates += 1
            if self.audit is not None:
                self.audit.record(
                    self.session.clock.now(), "keycom.update",
                    subject=request.user_key, outcome="duplicate",
                    user=request.user, domain=request.domain,
                    role=request.role, request_id=request.request_id)
            return True
        attributes = membership_attributes(request.domain, request.role)
        result = self.session.query(attributes, [request.user_key],
                                    extra_credentials=list(request.credentials))
        authorised = bool(result)
        self.processed.append((request, authorised))
        if self.audit is not None:
            self.audit.record(
                self.session.clock.now(), "keycom.update",
                subject=request.user_key,
                outcome="allow" if authorised else "deny",
                user=request.user, domain=request.domain, role=request.role)
        if not authorised:
            raise KeyComError(
                f"credentials do not authorise {request.user!r} for "
                f"{request.domain}/{request.role}")
        if self.store is not None:
            self.store.append("keycom.apply", user=request.user,
                              domain=request.domain, role=request.role,
                              request_id=request.request_id)
        self.middleware.apply_assignment(Assignment(
            user=request.user, domain=request.domain, role=request.role))
        if request.request_id:
            self.applied_ids.add(request.request_id)
        return True

    def submit_quietly(self, request: PolicyUpdateRequest) -> bool:
        """Like :meth:`submit` but returning False instead of raising."""
        try:
            return self.submit(request)
        except KeyComError:
            return False
