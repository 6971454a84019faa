"""Secure WebCom: the Figure-3 architecture.

"The WebCom master authenticates its clients and uses their credentials to
determine what operations it may schedule to them.  Each WebCom client has a
trust management architecture ... authenticating the master and using the
master's credentials to determine whether it is authorised to schedule the
operation."

:class:`SecureWebComEnvironment` owns the keystore (the "System PKI" box),
one KeyNote session for the master side and one per client, and builds the
hooks the plain master/client classes accept:

- the master's *scheduler filter* keeps only candidate clients whose keys
  the master's trust-management state authorises for the operation (and the
  IDE placement, if any);
- each client's *authoriser* admits only masters its own policy trusts.
"""

from __future__ import annotations

from typing import Mapping

from repro.crypto.keystore import Keystore
from repro.keynote.api import KeyNoteSession
from repro.obs import Observability
from repro.translate.common import (
    ATTR_APP_DOMAIN,
    ATTR_DOMAIN,
    ATTR_ROLE,
    WEBCOM_APP_DOMAIN,
)
from repro.util.clock import SimulatedClock
from repro.util.events import AuditLog
from repro.webcom.graph import GraphNode
from repro.webcom.node import ClientInfo
from repro.webcom.stack import AuthorisationStack, MediationRequest

ATTR_OPERATION = "op"


class SecureWebComEnvironment:
    """Keys, trust-management sessions and mediation hooks for one WebCom
    deployment.

    :param obs: optional :class:`~repro.obs.Observability`; when given, the
        environment's clock is the observability clock and every session,
        stack and hook built here traces into it.
    """

    def __init__(self, audit: AuditLog | None = None,
                 clock: SimulatedClock | None = None,
                 obs: Observability | None = None) -> None:
        self.keystore = Keystore()
        self.audit = audit or AuditLog()
        self.clock = clock or (obs.clock if obs is not None
                               else SimulatedClock())
        self.obs = obs
        self.master_session = KeyNoteSession(
            keystore=self.keystore, audit=self.audit, clock=self.clock,
            obs=self.obs)
        self._client_sessions: dict[str, KeyNoteSession] = {}

    # -- key management -------------------------------------------------------

    def create_key(self, name: str) -> str:
        """Create (or fetch) a named key; returns the name."""
        self.keystore.create(name)
        return name

    # -- sessions ------------------------------------------------------------------

    def client_session(self, client_id: str) -> KeyNoteSession:
        """The (lazily created) trust-management session of one client."""
        if client_id not in self._client_sessions:
            self._client_sessions[client_id] = KeyNoteSession(
                keystore=self.keystore, audit=self.audit, clock=self.clock,
                obs=self.obs)
        return self._client_sessions[client_id]

    # -- policy helpers ----------------------------------------------------------------

    def trust_clients_for_operations(self, client_keys: list[str],
                                     operations: list[str]) -> None:
        """Master-side policy: the listed client keys may be scheduled the
        listed operations."""
        keys = " || ".join(f'"{k}"' for k in sorted(client_keys))
        ops = " || ".join(f'{ATTR_OPERATION}=="{op}"'
                          for op in sorted(operations))
        self.master_session.add_policy(
            f"Authorizer: POLICY\n"
            f"Licensees: {keys}\n"
            f"Conditions: {ATTR_APP_DOMAIN}==\"{WEBCOM_APP_DOMAIN}\" "
            f"&& ({ops});")

    def client_trusts_master(self, client_id: str, master_key: str,
                             operations: "list[str] | None" = None) -> None:
        """Client-side policy: this client accepts scheduling requests from
        ``master_key`` (optionally only for some operations)."""
        conditions = f'{ATTR_APP_DOMAIN}=="{WEBCOM_APP_DOMAIN}"'
        if operations:
            ops = " || ".join(f'{ATTR_OPERATION}=="{op}"'
                              for op in sorted(operations))
            conditions += f" && ({ops})"
        self.client_session(client_id).add_policy(
            f"Authorizer: POLICY\n"
            f"Licensees: \"{master_key}\"\n"
            f"Conditions: {conditions};")

    # -- mediation hooks -------------------------------------------------------------------

    def master_filter(self, attribute_extractor=None):
        """The master's scheduler filter: TM check per candidate client.

        When the node carries a :class:`~repro.webcom.ide.PlacementSpec`, the
        query also asserts the placement's Domain/Role (so only clients whose
        keys hold the role membership survive) and, when the spec names a
        user, candidates running as other users are excluded.

        :param attribute_extractor: optional hook ``(node, context) -> dict``
            contributing extra action attributes — this implements the
            paper's stated future work of mediating on "the environment of
            the component, its inputs, and so forth".  Extracted attributes
            cannot override the built-in ones (op/app_domain/placement).
        """

        def filter_(node: GraphNode, context: Mapping,
                    candidates: list[ClientInfo]) -> list[ClientInfo]:
            placement = context.get("placement")
            authorised: list[ClientInfo] = []
            for info in candidates:
                if placement is not None:
                    user = getattr(placement, "user", None)
                    if user is not None and info.user != user:
                        continue
                attributes = {}
                if attribute_extractor is not None:
                    attributes.update(attribute_extractor(node, context))
                attributes[ATTR_APP_DOMAIN] = WEBCOM_APP_DOMAIN
                attributes[ATTR_OPERATION] = node.operator_name
                if placement is not None:
                    attributes[ATTR_DOMAIN] = placement.domain
                    attributes[ATTR_ROLE] = placement.role
                if self.master_session.query(attributes, [info.key_name]):
                    authorised.append(info)
            return authorised

        return filter_

    def client_authoriser(self, client_id: str):
        """The client's authoriser: TM check on the requesting master."""

        session = self.client_session(client_id)

        def authorise(master_key: str, op: str, _context: Mapping) -> bool:
            if not master_key:
                return False
            attributes = {
                ATTR_APP_DOMAIN: WEBCOM_APP_DOMAIN,
                ATTR_OPERATION: op,
            }
            return bool(session.query(attributes, [master_key]))

        return authorise

    def client_stack(self, client_id: str,
                     breaker_threshold: int = 3,
                     breaker_cooldown: float = 30.0,
                     layer_faults=None) -> AuthorisationStack:
        """An :class:`AuthorisationStack` for one client with L2 plugged.

        The client's KeyNote session becomes the stack's trust-management
        layer; callers may plug further layers (OS, middleware, application
        predicates) onto the returned stack before wiring it into
        :meth:`stack_authoriser`.

        :param breaker_threshold: consecutive failures that trip a layer's
            circuit breaker.
        :param breaker_cooldown: simulated seconds a breaker stays open.
        :param layer_faults: optional
            :class:`~repro.webcom.faults.LayerFaultInjector` so chaos
            schedules can time out the client's mediation layers.
        """
        stack = AuthorisationStack(audit=self.audit, clock=self.clock,
                                   obs=self.obs,
                                   breaker_threshold=breaker_threshold,
                                   breaker_cooldown=breaker_cooldown,
                                   layer_faults=layer_faults)
        stack.plug_trust_management(self.client_session(client_id))
        return stack

    def stack_authoriser(self, client_id: str,
                         stack: AuthorisationStack | None = None,
                         user: str | None = None):
        """A client authoriser that mediates through a full L0-L3 stack.

        This is the Figure-10 composition of the Figure-3 handshake: the
        scheduling request a master sends becomes a
        :class:`MediationRequest` (the master's key as the TM principal)
        and must pass *every* plugged layer of the client's stack, with a
        per-layer decision trace.
        """

        mediation_stack = stack if stack is not None else self.client_stack(
            client_id)

        def authorise(master_key: str, op: str, _context: Mapping):
            if not master_key:
                return False
            request = MediationRequest(
                user=user or client_id, user_key=master_key,
                object_type=WEBCOM_APP_DOMAIN, operation=op,
                attributes={ATTR_APP_DOMAIN: WEBCOM_APP_DOMAIN})
            # The full StackDecision (truthy on allow) is returned so the
            # client can surface stale / degraded flags in its reply.
            return mediation_stack.mediate(request)

        return authorise
