"""WebCom masters and clients.

The master coordinates condensed-graph execution: fireable nodes are
scheduled to clients over the simulated network; clients execute the
operation (a local function or a middleware component invocation) and return
the result.  Authorisation hooks — the Figure 3 handshake — are injected by
:mod:`repro.webcom.secure`; the base classes here run unsecured.

Scheduling is robust against a lossy fabric:

- every placement — one node (``execute``) or a wavefront group for one
  client (``execute_batch``) — runs the same ladder: send, wait out a
  **deadline** on the simulated clock, **resend the unresolved request
  ids with exponential backoff** under the *same* ids, abandon the rest;
- both sides **deduplicate** by request id — a client replays its cached
  reply instead of double-running a (possibly non-idempotent) operation,
  and the master rejects duplicate or late replies for requests it no
  longer has pending;
- clients marked dead are **re-probed with heartbeats** and rejoin the
  pool when they answer, instead of staying ``alive=False`` forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.errors import AuthorisationError, SchedulingError
from repro.util.events import AuditLog
from repro.webcom.engine import EvaluationMode, GraphEngine
from repro.webcom.graph import CondensedGraph, GraphNode
from repro.webcom.network import Message, SimulatedNetwork

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability

#: client-side operation implementation
Operation = Callable[..., Any]


@dataclass
class ClientInfo:
    """What the master knows about a registered client."""

    client_id: str
    key_name: str
    operations: frozenset[str]
    user: str
    alive: bool = True
    executed: int = 0


class WebComClient:
    """A WebCom client: executes operations scheduled to it.

    :param client_id: network peer id.
    :param network: the fabric to attach to.
    :param operations: op name -> implementation.
    :param key_name: the client's public-key name (used by Secure WebCom).
    :param user: the principal client-side executions run as.
    :param authoriser: optional hook ``(master_key, op, context) ->
        verdict`` where the verdict is truthy to allow — a plain bool, or a
        :class:`~repro.webcom.stack.StackDecision` whose ``stale`` flag is
        disclosed in the reply; refusing makes the client reply ``denied``
        (the client-side TM check of Figure 3).
    """

    def __init__(self, client_id: str, network: SimulatedNetwork,
                 operations: Mapping[str, Operation],
                 key_name: str = "", user: str = "",
                 authoriser: "Callable[[str, str, Mapping], bool] | None" = None,
                 audit: AuditLog | None = None,
                 obs: "Observability | None" = None) -> None:
        self.client_id = client_id
        self.network = network
        self.operations = dict(operations)
        self.key_name = key_name or f"K{client_id}"
        self.user = user or client_id
        self.authoriser = authoriser
        self.audit = audit
        self.obs = obs
        self.executed: list[str] = []
        #: request id -> the reply payload already sent (dedup cache)
        self._reply_cache: dict[str, dict[str, Any]] = {}
        self.duplicates_served = 0
        network.attach(client_id, self._handle)

    def register_with(self, master_id: str) -> None:
        """Announce this client (and its capabilities) to a master."""
        self.network.send(self.client_id, master_id, "register", {
            "key_name": self.key_name,
            "operations": sorted(self.operations),
            "user": self.user,
        })

    def _handle(self, message: Message) -> None:
        if message.kind == "ping":
            # Liveness probe: answer so the master can revive us.
            self.network.send(self.client_id, message.sender, "pong", {
                "key_name": self.key_name,
                "operations": sorted(self.operations),
                "user": self.user,
            })
            return
        if message.kind == "execute_batch":
            self._handle_execute_batch(message)
            return
        if message.kind != "execute":
            return
        if self.obs is not None:
            # The execute payload carries the master's trace context, so the
            # client-side span (and everything it nests — the stack
            # mediation, the TM query) joins the master's correlation.
            with self.obs.tracer.span(
                    "client.execute",
                    correlation_id=message.payload.get("correlation_id"),
                    parent_id=message.payload.get("span_id"),
                    client=self.client_id,
                    op=message.payload.get("op", ""),
                    request_id=message.payload["request_id"]) as span:
                body = self._execute_payload(message.payload, span)
        else:
            body = self._execute_payload(message.payload, None)
        self.network.send(self.client_id, message.sender, "result", body)

    def _handle_execute_batch(self, message: Message) -> None:
        """Run a whole wavefront batch and answer with one ``result_batch``.

        Every sub-request keeps its own request id, reply-cache entry and
        authorisation check — a retried batch replays cached sub-replies
        exactly like retried singles.
        """
        requests = message.payload["requests"]
        if self.obs is not None:
            with self.obs.tracer.span(
                    "client.execute_batch",
                    correlation_id=message.payload.get("correlation_id"),
                    parent_id=message.payload.get("span_id"),
                    client=self.client_id, size=len(requests)) as span:
                bodies = [self._execute_payload(request, None)
                          for request in requests]
                span.set(statuses=",".join(b["status"] for b in bodies))
        else:
            bodies = [self._execute_payload(request, None)
                      for request in requests]
        reply: dict[str, Any] = {"results": bodies}
        if self.obs is not None:
            span = self.obs.tracer.current()
            if span is not None:
                reply["correlation_id"] = span.correlation_id
                reply["span_id"] = span.span_id
        self.network.send(self.client_id, message.sender, "result_batch",
                          reply)

    def _execute_payload(self, payload: Mapping[str, Any],
                         span) -> dict[str, Any]:
        """Execute one request payload and return (and cache) its reply
        body; shared by the single and batched paths."""
        request_id = payload["request_id"]
        cached = self._reply_cache.get(request_id)
        if cached is not None:
            # Duplicate (retried or network-duplicated) request: replay the
            # recorded reply; never re-run a possibly non-idempotent op.
            self.duplicates_served += 1
            if span is not None:
                span.set(cached=True)
                span.status = cached.get("status", "ok")
            return cached
        op = payload["op"]
        args = tuple(payload["args"])
        context = payload.get("context", {})
        master_key = payload.get("master_key", "")
        stale = False
        if self.authoriser is not None:
            verdict = self.authoriser(master_key, op, context)
            if not verdict:
                self._audit("webcom.client.check", op, "deny")
                if span is not None:
                    span.status = "denied"
                return self._build_reply(request_id, status="denied")
            # Stack authorisers return the full StackDecision (truthy on
            # allow); a fail-static layer may have served it stale, which
            # the reply must disclose to the master.
            stale = bool(getattr(verdict, "stale", False))
            self._audit("webcom.client.check", op,
                        "allow-stale" if stale else "allow")
        else:
            self._audit("webcom.client.check", op, "allow")
        fn = self.operations.get(op)
        if fn is None:
            if span is not None:
                span.status = "unknown-op"
            return self._build_reply(request_id, status="unknown-op")
        try:
            value = fn(*args)
        except Exception as exc:  # deliberate: remote errors must not kill
            if span is not None:
                span.status = "error"
            return self._build_reply(request_id, status="error",
                                     error=repr(exc))
        self.executed.append(op)
        if span is not None and stale:
            span.set(stale=True)
        if stale:
            return self._build_reply(request_id, status="ok", value=value,
                                     stale=True)
        return self._build_reply(request_id, status="ok", value=value)

    def _build_reply(self, request_id: str, **payload: Any) -> dict[str, Any]:
        body = {"request_id": request_id, **payload}
        if self.obs is not None:
            span = self.obs.tracer.current()
            if span is not None:
                # Carry the trace context back so the reply's network flight
                # parents onto this client's execute span.
                body.setdefault("correlation_id", span.correlation_id)
                body.setdefault("span_id", span.span_id)
        self._reply_cache[request_id] = body
        return body

    def _audit(self, category: str, op: str, outcome: str) -> None:
        if self.audit is not None:
            self.audit.record(self.network.clock.now(), category,
                              subject=self.client_id, outcome=outcome, op=op)


class WebComMaster:
    """A WebCom master: schedules graph nodes to registered clients.

    :param scheduler_filter: optional hook
        ``(node, context, candidates) -> candidates`` applied before
        selection — Secure WebCom's master-side TM check plugs in here.
    :param max_attempts: distinct client placements tried per node.
    :param request_timeout: clock seconds to wait for the first reply.
    :param max_retries: resends (same request id) per placement after the
        first send; each waits ``backoff`` times longer than the last.
    :param heartbeat_interval: how often dead clients are re-probed.
    :param heartbeat_timeout: how long to wait for heartbeat answers.

    ``request_timeout``, ``heartbeat_interval`` and ``heartbeat_timeout``
    default to ``None``, which resolves them from the network clock's
    :meth:`~repro.util.clock.Clock.scheduling_defaults` — the historical
    constants on a :class:`~repro.util.clock.SimulatedClock`, real-time
    values on a :class:`~repro.util.clock.WallClock`.  Hardcoding the
    simulated-scale constants here would make a wall-clock deployment wait
    tens of real seconds per probe.
    """

    #: placement orders: try candidates in sorted id order, spread load to
    #: the least-busy client first, or rotate round-robin.
    SELECTION_POLICIES = ("first", "least-loaded", "round-robin")

    def __init__(self, master_id: str, network: SimulatedNetwork,
                 key_name: str = "",
                 scheduler_filter: "Callable[[GraphNode, Mapping, list[ClientInfo]], list[ClientInfo]] | None" = None,
                 audit: AuditLog | None = None,
                 max_attempts: int = 3,
                 selection_policy: str = "first",
                 request_timeout: "float | None" = None,
                 max_retries: int = 2,
                 backoff: float = 2.0,
                 heartbeat_interval: "float | None" = None,
                 heartbeat_timeout: "float | None" = None,
                 obs: "Observability | None" = None) -> None:
        if selection_policy not in self.SELECTION_POLICIES:
            raise SchedulingError(
                f"unknown selection policy {selection_policy!r}; "
                f"choose from {self.SELECTION_POLICIES}")
        defaults = network.clock.scheduling_defaults()
        if request_timeout is None:
            request_timeout = defaults["request_timeout"]
        if heartbeat_interval is None:
            heartbeat_interval = defaults["heartbeat_interval"]
        if heartbeat_timeout is None:
            heartbeat_timeout = defaults["heartbeat_timeout"]
        if request_timeout <= 0 or heartbeat_timeout <= 0:
            raise SchedulingError("timeouts must be positive")
        if backoff < 1.0:
            raise SchedulingError("backoff factor must be >= 1")
        self.master_id = master_id
        self.network = network
        self.key_name = key_name or f"K{master_id}"
        self.scheduler_filter = scheduler_filter
        self.audit = audit
        self.max_attempts = max_attempts
        self.selection_policy = selection_policy
        self.request_timeout = request_timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.obs = obs
        #: correlation id of the most recent :meth:`run_graph` trace
        self.last_correlation_id: str | None = None
        self.clients: dict[str, ClientInfo] = {}
        self._results: dict[str, dict[str, Any]] = {}
        self._pending: set[str] = set()
        self._request_seq = 0
        self._rr_counter = 0
        self._next_probe_at = 0.0
        self.stale_rejected = 0
        #: completed placements whose client-side verdict was served stale
        #: by a fail-static mediation layer (degraded but disclosed)
        self.stale_accepted = 0
        self.schedule_log: list[tuple[str, str]] = []  # (node_id, client_id)
        #: trace of the most recent :meth:`run_graph` (fired vs restored)
        self.last_trace = None
        network.attach(master_id, self._handle)

    # -- message handling ------------------------------------------------------

    def _handle(self, message: Message) -> None:
        if message.kind == "register":
            payload = message.payload
            self.clients[message.sender] = ClientInfo(
                client_id=message.sender,
                key_name=payload["key_name"],
                operations=frozenset(payload["operations"]),
                user=payload["user"])
        elif message.kind == "result":
            self._accept_result(message.payload)
        elif message.kind == "result_batch":
            for body in message.payload["results"]:
                self._accept_result(body)
        elif message.kind == "pong":
            info = self.clients.get(message.sender)
            if info is not None and not info.alive:
                info.alive = True
                self._audit("webcom.heartbeat", message.sender, "revived")

    def _accept_result(self, body: Mapping[str, Any]) -> None:
        request_id = body["request_id"]
        if request_id in self._pending:
            self._pending.discard(request_id)
            self._results[request_id] = dict(body)
        else:
            # Duplicate of a consumed reply, or a reply that limped in
            # after its request was abandoned: reject, don't store.
            self.stale_rejected += 1

    # -- liveness ------------------------------------------------------------------

    def heartbeat(self) -> list[str]:
        """Probe every dead client; returns the ids that answered (revived).

        Pongs flip ``alive`` back to True so the client rejoins the pool.
        """
        dead = [info for _cid, info in sorted(self.clients.items())
                if not info.alive]
        if not dead:
            return []
        for info in dead:
            self.network.send(self.master_id, info.client_id, "ping", {})
        self.network.run_until(
            self.network.clock.now() + self.heartbeat_timeout,
            stop=lambda: all(info.alive for info in dead))
        return [info.client_id for info in dead if info.alive]

    def _maybe_probe(self) -> None:
        """Periodic re-probe of dead clients, rate-limited on the sim
        clock."""
        if self.network.clock.now() < self._next_probe_at:
            return
        if all(info.alive for info in self.clients.values()):
            return
        self._next_probe_at = (self.network.clock.now()
                               + self.heartbeat_interval)
        self.heartbeat()

    # -- scheduling ------------------------------------------------------------------

    def eligible_clients(self, op: str) -> list[ClientInfo]:
        """Alive clients advertising ``op``, deterministic order."""
        return [info for _cid, info in sorted(self.clients.items())
                if info.alive and op in info.operations]

    def _next_request_id(self) -> str:
        self._request_seq += 1
        return f"{self.master_id}-req-{self._request_seq}"

    def execute_remote(self, node: GraphNode, args: tuple,
                       context: Mapping[str, Any] | None = None) -> Any:
        """Schedule one operation, with fault-tolerant rescheduling.

        Tries eligible clients in order up to ``max_attempts`` placements;
        each placement is retried (same request id, exponential backoff)
        before the client is declared dead and the next one is tried.

        :raises SchedulingError: when no client can run the operation.
        :raises AuthorisationError: when a client refuses the request.
        """
        if self.obs is not None:
            with self.obs.tracer.span("master.schedule", node=node.node_id,
                                      op=node.operator_name) as span:
                with self.obs.metrics.time("master.schedule_latency"):
                    value = self._execute_remote(node, args, context)
                span.set(outcome="ok")
                return value
        return self._execute_remote(node, args, context)

    def _execute_remote(self, node: GraphNode, args: tuple,
                        context: Mapping[str, Any] | None = None) -> Any:
        op = node.operator_name
        context = dict(context or {})
        self._maybe_probe()
        candidates = self._candidates(node, op, context)
        if not candidates and self.heartbeat():
            # Every known provider was marked dead; a forced probe revived
            # at least one, so rebuild the candidate list.
            candidates = self._candidates(node, op, context)
        if not candidates:
            self._audit("webcom.schedule", node.node_id, "no-candidate", op=op)
            self._count("master.schedule.no_candidate")
            raise SchedulingError(
                f"no authorised client for operation {op!r} "
                f"(node {node.node_id!r})")
        attempts = 0
        last_denied = False
        for info in candidates:
            if attempts >= self.max_attempts:
                break
            attempts += 1
            [reply] = self._place(info, [self._request(node, args, context)],
                                  batched=False)
            if reply is None:
                # Deadline blown on every retry: mark dead (heartbeats may
                # revive it later), try the next candidate.
                info.alive = False
                self._audit("webcom.schedule", node.node_id, "lost",
                            client=info.client_id, op=op)
                self._count("master.schedule.lost")
                continue
            outcome = self._settle(node, info, reply, batched=False)
            if outcome == "ok":
                return reply["value"]
            if outcome == "denied":
                last_denied = True
        if last_denied:
            raise AuthorisationError(
                f"every candidate client refused operation {op!r}")
        raise SchedulingError(
            f"operation {op!r} failed on all candidate clients")

    def _candidates(self, node: GraphNode, op: str,
                    context: Mapping[str, Any]) -> list[ClientInfo]:
        candidates = self.eligible_clients(op)
        if self.scheduler_filter is not None:
            candidates = self.scheduler_filter(node, context, candidates)
        return self._order_candidates(candidates)

    @staticmethod
    def _node_context(node: GraphNode, **context: Any) -> dict[str, Any]:
        """The scheduling context of ``node``: ``context`` plus the node's
        placement constraint, when it has one."""
        if node.placement is not None:
            context["placement"] = node.placement
        return context

    def _request(self, node: GraphNode, args: tuple,
                 context: Mapping[str, Any]) -> dict[str, Any]:
        """One request payload for ``node``, under a fresh request id."""
        return {
            "request_id": self._next_request_id(),
            "op": node.operator_name,
            "args": list(args),
            "context": dict(context),
            "master_key": self.key_name,
        }

    def _place(self, info: ClientInfo, requests: "list[dict[str, Any]]",
               batched: bool) -> "list[dict[str, Any] | None]":
        """The placement ladder: send ``requests`` to ``info``, wait out the
        deadline, resend the unresolved ids (same ids) with backoff, and
        abandon whatever is still unresolved after the last resend.

        A batched group travels as one ``execute_batch`` envelope carrying
        the trace context; otherwise ``requests`` holds one request, sent
        as a plain ``execute`` with the trace context in its payload.
        Returns one reply payload (None when abandoned) per request, in
        order.
        """
        ids = [request["request_id"] for request in requests]
        self._pending.update(ids)
        trace_context: dict[str, Any] = {}
        if self.obs is not None:
            span = self.obs.tracer.current()
            if span is not None:
                # Resends carry the same trace context, so every copy (and
                # the client-side work it triggers) stays in this
                # correlation.
                trace_context = {"correlation_id": span.correlation_id,
                                 "span_id": span.span_id}
            if batched:
                self.obs.metrics.histogram("master.batch.size").observe(
                    len(requests))
        collected: dict[str, dict[str, Any]] = {}
        outstanding = list(ids)
        timeout = self.request_timeout
        for attempt in range(self.max_retries + 1):
            if attempt and self.obs is not None:
                self.obs.metrics.counter("master.retries").inc()
            if batched:
                self._count("master.batch.flights")
                send_ids = set(outstanding)
                kind, payload = "execute_batch", {
                    "requests": [r for r in requests
                                 if r["request_id"] in send_ids],
                    **trace_context}
            else:
                kind, payload = "execute", {**requests[0], **trace_context}
            self.network.send(self.master_id, info.client_id, kind, payload)
            self.network.run_until(
                self.network.clock.now() + timeout,
                stop=lambda: all(rid in self._results for rid in outstanding))
            for rid in list(outstanding):
                reply = self._results.pop(rid, None)
                if reply is not None:
                    collected[rid] = reply
                    outstanding.remove(rid)
            if not outstanding:
                break
            timeout *= self.backoff
        # An abandoned id leaves _pending, so a reply that limps in later
        # is rejected as stale.
        self._pending.difference_update(outstanding)
        return [collected.get(rid) for rid in ids]

    def _settle(self, node: GraphNode, info: ClientInfo,
                reply: Mapping[str, Any], batched: bool) -> str:
        """Book one reply for ``node`` placed on ``info``: the audit record,
        the ``master.schedule.*`` counter and, when it ran, the client's
        load, ``schedule_log`` and the stale flag.  Returns the outcome:
        ``ok``, ``denied`` or ``error``."""
        op = node.operator_name
        batch_detail = {"batched": True} if batched else {}
        if reply["status"] == "ok":
            info.executed += 1
            self.schedule_log.append((node.node_id, info.client_id))
            stale = bool(reply.get("stale"))
            if stale:
                self.stale_accepted += 1
                self._count("master.schedule.stale")
            self._audit("webcom.schedule", node.node_id, "ok",
                        client=info.client_id, op=op, **batch_detail,
                        stale=stale)
            self._count("master.schedule.ok")
            return "ok"
        outcome = "denied" if reply["status"] == "denied" else "error"
        detail = batch_detail
        if outcome == "error" and not batched:
            detail = {"error": reply.get("error", reply["status"])}
        self._audit("webcom.schedule", node.node_id, outcome,
                    client=info.client_id, op=op, **detail)
        self._count(f"master.schedule.{outcome}")
        return outcome

    # -- batched scheduling ---------------------------------------------------

    def execute_batch(self, items: "list[tuple[GraphNode, tuple]]",
                      ) -> list[Any]:
        """Schedule a whole wavefront of nodes in batched flights.

        Nodes are grouped by their selected client; each group travels as
        one ``execute_batch`` message (answered by one ``result_batch``),
        so a wavefront costs O(clients) flights instead of O(nodes).  Each
        group runs the same placement ladder as a single node, and every
        sub-request keeps its own request id, so dedup, retry (the
        unresolved subset is resent under the same ids) and stale-reply
        rejection are the single-node path's.  Sub-requests that fail, are
        denied, or whose client dies fall back to
        :meth:`execute_remote`'s full placement/retry ladder.

        :raises SchedulingError: when a node has no candidate client.
        :raises AuthorisationError: when every candidate refuses a node.
        """
        if self.obs is not None:
            with self.obs.tracer.span("master.schedule_batch",
                                      size=len(items)) as span:
                with self.obs.metrics.time("master.schedule_latency"):
                    results = self._execute_batch(items)
                span.set(outcome="ok")
                return results
        return self._execute_batch(items)

    def _execute_batch(self, items: "list[tuple[GraphNode, tuple]]",
                       ) -> list[Any]:
        self._maybe_probe()
        results: list[Any] = [None] * len(items)
        fallback: list[int] = []
        #: client id -> list of item indices routed to it
        assignments: dict[str, list[int]] = {}
        contexts = [self._node_context(node, args=args)
                    for node, args in items]
        infos: dict[str, ClientInfo] = {}
        for index, (node, _args) in enumerate(items):
            candidates = self._candidates(node, node.operator_name,
                                          contexts[index])
            if not candidates:
                # No live authorised provider right now; the fallback path
                # re-probes and raises if that does not help.
                fallback.append(index)
                continue
            chosen = candidates[0]
            assignments.setdefault(chosen.client_id, []).append(index)
            infos[chosen.client_id] = chosen
        for client_id in sorted(assignments):
            indices = assignments[client_id]
            info = infos[client_id]
            replies = self._place(
                info, [self._request(*items[i], contexts[i]) for i in indices],
                batched=True)
            if all(reply is None for reply in replies):
                # The whole batch blew its deadline on every retry: same
                # verdict as a lost single placement — mark the client dead
                # (heartbeats may revive it) and reschedule elsewhere.
                info.alive = False
                self._audit("webcom.schedule.batch", client_id, "lost",
                            nodes=[items[i][0].node_id for i in indices])
                self._count("master.schedule.lost")
            for index, reply in zip(indices, replies):
                if (reply is not None and self._settle(
                        items[index][0], info, reply, batched=True) == "ok"):
                    results[index] = reply["value"]
                    continue
                self._count("master.batch.fallback")
                fallback.append(index)
        # Unresolved nodes go through the robust single-node ladder (fresh
        # request ids, full placement retries); it raises when a node truly
        # cannot run, preserving the unbatched error semantics.
        for index in sorted(fallback):
            node, args = items[index]
            results[index] = self._execute_remote(node, args,
                                                  contexts[index])
        return results

    def run_graph(self, graph: CondensedGraph, inputs: Mapping[str, Any],
                  mode: EvaluationMode = EvaluationMode.AVAILABILITY,
                  checkpoint=None, batch: bool = False) -> Any:
        """Execute a condensed graph across the client pool.

        :param checkpoint: optional
            :class:`~repro.webcom.failover.GraphCheckpoint`; completed nodes
            are recorded as they fire, and a non-empty checkpoint resumes
            the graph from its last completed frontier instead of the
            inputs.  A secured master (one with a ``scheduler_filter``)
            re-checks authorisation for every restored node first.
        :param batch: schedule whole wavefronts through
            :meth:`execute_batch` (one flight per destination client)
            instead of one :meth:`execute_remote` round-trip per node.
        """

        def executor(node: GraphNode, args: tuple) -> Any:
            return self.execute_remote(node, args,
                                       self._node_context(node, args=args))

        resume = None
        if checkpoint is not None and checkpoint.completed:
            resume = self._authorised_resume(graph, checkpoint)
        engine = GraphEngine(graph, executor, mode, obs=self.obs,
                             batch_executor=self.execute_batch if batch
                             else None)
        on_fired = checkpoint.mark if checkpoint is not None else None
        if self.obs is not None:
            # One fresh correlation per run: every schedule decision,
            # network flight, client check and retry below shares it.
            with self.obs.tracer.span("master.run_graph",
                                      graph=graph.name, master=self.master_id,
                                      mode=mode.value) as span:
                self.last_correlation_id = span.correlation_id
                result = engine.run(inputs, resume_from=resume,
                                    on_node_fired=on_fired)
        else:
            result = engine.run(inputs, resume_from=resume,
                                on_node_fired=on_fired)
        self.last_trace = engine.trace
        return result

    def _authorised_resume(self, graph: CondensedGraph,
                           checkpoint) -> dict[str, Any]:
        """Checkpointed results this master may reuse.

        The secure variant re-runs the master-side TM check for every
        restored node; a node whose authorisation no longer holds is
        dropped from the resume set and re-fires through the normal
        (mediated) scheduling path.
        """
        completed = {node_id: value
                     for node_id, value in checkpoint.completed.items()
                     if node_id in graph.nodes}
        if self.scheduler_filter is None:
            return completed
        resumable: dict[str, Any] = {}
        for node_id in sorted(completed):
            node = graph.node(node_id)
            if node.is_condensed:
                # Subgraph results: every inner node passed mediation when
                # it originally fired.
                resumable[node_id] = completed[node_id]
                continue
            authorised = self.scheduler_filter(
                node, self._node_context(node, resume=True),
                self.eligible_clients(node.operator_name))
            if authorised:
                self._audit("webcom.resume", node_id, "allow",
                            op=node.operator_name)
                resumable[node_id] = completed[node_id]
            else:
                self._audit("webcom.resume", node_id, "deny",
                            op=node.operator_name)
        return resumable

    def _order_candidates(self,
                          candidates: list[ClientInfo]) -> list[ClientInfo]:
        """Apply the configured selection policy to the surviving
        candidates."""
        if self.selection_policy == "least-loaded":
            return sorted(candidates,
                          key=lambda info: (info.executed, info.client_id))
        if self.selection_policy == "round-robin" and candidates:
            self._rr_counter += 1
            offset = self._rr_counter % len(candidates)
            return candidates[offset:] + candidates[:offset]
        return candidates  # "first": already in sorted id order

    def _audit(self, category: str, subject: str, outcome: str,
               **detail: Any) -> None:
        if self.audit is not None:
            self.audit.record(self.network.clock.now(), category, subject,
                              outcome, **detail)

    def _count(self, name: str) -> None:
        if self.obs is not None:
            self.obs.metrics.counter(name).inc()
