"""The always-on authorisation daemon behind ``repro serve``.

:class:`ReproServer` is an :mod:`asyncio` TCP server speaking the
:mod:`newline-delimited JSON protocol <repro.serve.protocol>`.  Many
concurrent clients connect, register in the peer registry (``hello``), and
call the plane's APIs — ``mediate``, ``probe``, ``translate``, ``update``
(KeyCom), credential management — while subscribers receive ``decision``
events carrying each mediation's verdict and span tree.  Those events are
the only way span trees reach operators: a mediation records one only
while some peer is subscribed (and brownout is not shedding broadcasts).

Four properties an always-on plane needs beyond the request/response core:

- **Duplicate suppression.**  Each connection keeps a reply cache keyed on
  request id (the same discipline as the simulated network's
  :class:`~repro.webcom.node.WebComClient` result dedup): a retried id is
  answered with the recorded reply, never re-executed, so a client retry
  after a lost reply cannot double-apply a KeyCom install.
- **Liveness.**  A wall-clock heartbeat reaper marks peers dead when they
  go silent past ``heartbeat_timeout × max_missed`` (clients refresh with
  any request; ``ping`` exists for exactly this).  The intervals come from
  the shared :class:`~repro.util.clock.Clock` abstraction's scheduling
  defaults — the same knobs the simulated master resolves.
- **Graceful drain.**  Shutdown stops accepting work, waits for every
  in-flight wavefront (requests already being handled), flushes the PR-6
  WAL (snapshot + close), broadcasts a ``server`` shutdown event, and only
  then drops connections and the PID file.  The drain report records that
  nothing in flight was lost and the WAL went down clean.
- **Idle backfill.**  The compliance checker defers each credential's
  signature check until a decision first needs it, so a restarted daemon
  answers after parsing its trust store, not after verifying all of it.  A
  background task freezes the recovered heap at start-up and then runs the
  remaining checks a slice at a time, only while no request is in flight;
  a credential added later wakes it again.
"""

from __future__ import annotations

import asyncio
import gc
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.errors import ProtocolError, ReproError, ServeError
from repro.obs import Span, spans_to_dicts
from repro.serve.admission import (
    AdmissionController,
    BrownoutController,
    Refusal,
)
from repro.serve.pidfile import PidFile
from repro.serve.plane import ServePolicyPlane
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    MAX_LINE_BYTES,
    classify,
    decode_frame,
    encode_frame,
    error_response,
    make_event,
    ok_response,
    refusal_response,
)

#: event topics clients may subscribe to
TOPICS = ("decision", "server")

#: consecutive missed heartbeat windows before a peer is marked dead
DEFAULT_MAX_MISSED = 3

#: per-connection reply-cache entries kept for idempotent retry replay; a
#: long-lived connection's cache is an LRU, not an unbounded transcript
DEFAULT_REPLY_CACHE_LIMIT = 256

#: deferred signature checks the backfill runs per idle slice (~0.4 ms
#: each with its key decode): the longest a new request waits behind it
BACKFILL_SLICE = 1
BACKFILL_YIELD_S = 1e-6


@dataclass
class PeerInfo:
    """One connected client's registry entry."""

    peer_id: str
    name: str = ""
    role: str = "client"
    connected_at: float = 0.0
    last_seen: float = 0.0
    requests: int = 0
    duplicates: int = 0
    alive: bool = True
    subscriptions: set[str] = field(default_factory=set)

    def to_dict(self) -> dict[str, Any]:
        return {"peer_id": self.peer_id, "name": self.name,
                "role": self.role, "connected_at": self.connected_at,
                "last_seen": self.last_seen, "requests": self.requests,
                "duplicates": self.duplicates, "alive": self.alive,
                "subscriptions": sorted(self.subscriptions)}


class ReproServer:
    """The serve daemon: registry, dispatch, pub/sub, drain.

    :param plane: the policy plane to front (a default wall-clock,
        in-memory plane is built when omitted).
    :param heartbeat_interval: seconds between reaper passes; defaults to
        the plane clock's scheduling defaults (wall: 5 s).
    :param heartbeat_timeout: seconds of silence per missed window;
        defaults likewise (wall: 1 s).
    :param pidfile: optional path enforcing one daemon per durability root.
    :param admission: overload protection; a default controller (generous
        in-flight budget, no per-peer rate limit, brownout enabled) is
        built when omitted — admission control is always on, only its
        limits vary.
    :param reply_cache_limit: per-connection reply-cache entries kept for
        idempotent retry replay (LRU eviction beyond it).
    """

    def __init__(self, plane: ServePolicyPlane | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 heartbeat_interval: float | None = None,
                 heartbeat_timeout: float | None = None,
                 max_missed: int = DEFAULT_MAX_MISSED,
                 pidfile: str | None = None,
                 admission: AdmissionController | None = None,
                 reply_cache_limit: int = DEFAULT_REPLY_CACHE_LIMIT) -> None:
        self.plane = plane or ServePolicyPlane()
        self.clock = self.plane.clock
        if admission is None:
            admission = AdmissionController(
                clock=self.clock, max_inflight=256,
                brownout=BrownoutController(clock=self.clock))
        self.admission = admission
        if self.admission.brownout is not None \
                and self.admission.brownout.on_transition is None:
            self.admission.brownout.on_transition = \
                self._on_brownout_transition
        if reply_cache_limit < 1:
            raise ServeError("reply_cache_limit must be >= 1")
        self.reply_cache_limit = reply_cache_limit
        defaults = self.clock.scheduling_defaults()
        self.heartbeat_interval = (heartbeat_interval
                                   if heartbeat_interval is not None
                                   else defaults["heartbeat_interval"])
        self.heartbeat_timeout = (heartbeat_timeout
                                  if heartbeat_timeout is not None
                                  else defaults["heartbeat_timeout"])
        self.max_missed = max_missed
        self.host = host
        self._requested_port = port
        self._pidfile = PidFile(pidfile) if pidfile else None
        self._server: asyncio.base_events.Server | None = None
        self._reaper: asyncio.Task | None = None
        self._backfill: asyncio.Task | None = None
        #: set while the signature-check backfill has started (the heap is
        #: frozen) and has no deferred check left to run
        self.backfill_idle = asyncio.Event()
        self.registry: dict[str, PeerInfo] = {}
        self._writers: dict[str, asyncio.StreamWriter] = {}
        #: per-connection request-id reply caches (node.py dedup semantics),
        #: LRU-bounded at ``reply_cache_limit`` entries each; a reply is
        #: kept as the frame the server wrote, and a replay writes it again
        self._replies: dict[str, OrderedDict[str, bytes]] = {}
        self._next_peer = 0
        #: requests currently being handled — the in-flight wavefront a
        #: graceful shutdown must drain before the WAL goes down
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self.draining = False
        self.requests_served = 0
        self.duplicates_served = 0
        self.events_broadcast = 0
        self.events_shed = 0
        self.reply_cache_evictions = 0
        #: expired work dropped *before dispatch* (never run) vs expired
        #: work whose response write was refused — accounted separately
        #: from admission sheds, as the issue demands
        self.deadline_expired_pre = 0
        self.deadline_expired_post = 0
        self.started_at = 0.0
        self.drain_report: dict[str, Any] | None = None
        self._shutdown_done = asyncio.Event()
        self._methods: dict[str, Callable[[PeerInfo, Mapping[str, Any]],
                                          Any]] = {
            "hello": self._on_hello,
            "ping": self._on_ping,
            "subscribe": self._on_subscribe,
            "unsubscribe": self._on_unsubscribe,
            "status": self._on_status,
            "mediate": lambda peer, p: self.plane.mediate(p),
            "probe": lambda peer, p: self.plane.probe(p),
            "translate": lambda peer, p: self.plane.translate(p),
            "update": lambda peer, p: self.plane.keycom_update(p),
            "add_policy": lambda peer, p: self.plane.add_policy(p),
            "add_credential": lambda peer, p: self.plane.add_credential(p),
            "revoke": lambda peer, p: self.plane.revoke_credential(p),
            "sweep": lambda peer, p: self.plane.sweep(p),
        }
        #: peers subscribed to ``decision``: a mediation records its span
        #: tree only while this is non-zero
        self._decision_subscribers = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "ReproServer":
        """Bind the socket (claiming the pidfile first) and start the
        heartbeat reaper and the signature-check backfill.

        :raises AlreadyRunningError: when another daemon holds the pidfile.
        """
        if self._pidfile is not None:
            self._pidfile.acquire()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port,
            limit=MAX_LINE_BYTES)
        self.started_at = self.clock.now()
        self._reaper = asyncio.create_task(self._reap_loop())
        self._backfill = asyncio.create_task(self._backfill_loop())
        return self

    @property
    def port(self) -> int:
        """The bound TCP port (resolved after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise ServeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> dict[str, Any]:
        """Block until a shutdown drains the server; returns the report."""
        await self._shutdown_done.wait()
        assert self.drain_report is not None
        return self.drain_report

    async def shutdown(self, reason: str = "shutdown") -> dict[str, Any]:
        """Gracefully drain and stop the daemon.

        Order matters: stop accepting → drain the in-flight wavefront →
        stop the backfill → flush the WAL → notify subscribers → drop
        connections → release the pidfile.  Idempotent (subsequent calls
        return the report).
        """
        if self.drain_report is not None:
            return self.drain_report
        self.draining = True
        if self._server is not None:
            self._server.close()
        inflight_at_drain = self._inflight
        await self._idle.wait()
        # Settle: requests already buffered on a socket but not yet read
        # belong to the wavefront too — yield so their reader tasks can
        # start (each new arrival is refused with a drain error, but it
        # *gets a response*), then wait for quiescence again.
        for _ in range(3):
            await asyncio.sleep(0)
            await self._idle.wait()
        if self._backfill is not None:
            self._backfill.cancel()
            await asyncio.wait([self._backfill])
        flush = self.plane.close()
        await self.broadcast("server", {"state": "stopping",
                                        "reason": reason,
                                        "wal_flushed": flush["wal_flushed"]})
        if self._reaper is not None:
            self._reaper.cancel()
        for peer_id, writer in list(self._writers.items()):
            writer.close()
        self._writers.clear()
        if self._server is not None:
            await self._server.wait_closed()
        if self._pidfile is not None:
            self._pidfile.release()
        self.drain_report = {
            "reason": reason,
            "inflight_at_drain": inflight_at_drain,
            "inflight_after_drain": self._inflight,
            "requests_served": self.requests_served,
            "duplicates_served": self.duplicates_served,
            "events_broadcast": self.events_broadcast,
            **flush,
        }
        self._shutdown_done.set()
        return self.drain_report

    # -- connection handling ----------------------------------------------

    def _begin_request(self) -> None:
        self._inflight += 1
        self._idle.clear()

    def _end_request(self) -> None:
        self._inflight -= 1
        if self._inflight == 0:
            self._idle.set()

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._next_peer += 1
        peer = PeerInfo(peer_id=f"peer-{self._next_peer}",
                        connected_at=self.clock.now(),
                        last_seen=self.clock.now())
        self.registry[peer.peer_id] = peer
        self._writers[peer.peer_id] = writer
        self._replies[peer.peer_id] = OrderedDict()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                # The wavefront spans decode → dispatch → response *write*:
                # a graceful drain must not tear the writer down between a
                # completed dispatch and its reply reaching the wire.
                self._begin_request()
                try:
                    frame = await self._handle_line(peer, line)
                    try:
                        writer.write(frame)
                        await writer.drain()
                    except (ConnectionResetError, RuntimeError):
                        break
                finally:
                    self._end_request()
        finally:
            # A closed connection leaves the registry: ``status`` and every
            # broadcast see live peers only.
            peer.alive = False
            self.registry.pop(peer.peer_id, None)
            self._writers.pop(peer.peer_id, None)
            self._replies.pop(peer.peer_id, None)
            self.admission.forget_peer(peer.peer_id)
            self._resubscribe(peer, set())
            try:
                writer.close()
            except RuntimeError:  # pragma: no cover - loop already closed
                pass

    async def _handle_line(self, peer: PeerInfo, line: bytes) -> bytes:
        """Decode, dedup, admit and dispatch one frame; returns the reply
        frame to write.

        The order is deliberate: dedup replay first (idempotency is free
        and must survive overload), then drain refusal, then the deadline
        check (expired work is dropped before any budget is spent on it,
        accounted apart from sheds), then admission.  Every refused path
        returns a structured response — a request that made it through the
        decoder is *always* answered, never silently dropped.  Each reply
        is encoded once: a dispatched request's frame is what the reply
        cache keeps and what a dedup replay writes, byte for byte.
        """
        try:
            message = decode_frame(line)
            shape = classify(message)
        except ProtocolError as exc:
            return encode_frame(error_response("", "ProtocolError", str(exc)))
        if shape != "request":
            return encode_frame(error_response(
                "", "ProtocolError",
                f"server only accepts requests, got {shape}"))
        request_id = message["id"]
        peer.last_seen = self.clock.now()
        peer.alive = True
        replies = self._replies[peer.peer_id]
        cached = replies.get(request_id)
        if cached is not None:
            # Same discipline as the simulated network's result dedup:
            # replay the recorded reply, never re-execute the request.
            replies.move_to_end(request_id)
            peer.duplicates += 1
            self.duplicates_served += 1
            return cached
        if self.draining and message["method"] != "status":
            return encode_frame(error_response(request_id, "ServeError",
                                               "server is draining"))
        deadline = message.get("deadline")
        if deadline is not None and self.clock.now() > deadline:
            self.deadline_expired_pre += 1
            return encode_frame(refusal_response(
                request_id, "DeadlineExceededError",
                f"deadline {deadline:g} expired before dispatch "
                f"(now {self.clock.now():g})", phase="pre_dispatch"))
        admitted = self.admission.admit(peer.peer_id, message["method"])
        if isinstance(admitted, Refusal):
            # Shed = refuse, explicitly: never an allow, never silence.
            # Refusals are not cached — a retried id must be re-admitted.
            return encode_frame(refusal_response(
                request_id, admitted.error_type, admitted.message,
                retry_after=admitted.retry_after, kind=admitted.kind))
        try:
            response = await self._dispatch(peer, request_id,
                                            message["method"],
                                            message.get("params", {}))
        finally:
            self.admission.release(admitted)
        frame = encode_frame(response)
        replies[request_id] = frame
        while len(replies) > self.reply_cache_limit:
            replies.popitem(last=False)
            self.reply_cache_evictions += 1
        if deadline is not None and self.clock.now() > deadline:
            # The work ran, but its caller's deadline passed while it did:
            # answer with a refusal instead of a result nobody is waiting
            # for.  The real response stays recorded above, so an
            # idempotent retry under the same id replays it.
            self.deadline_expired_post += 1
            return encode_frame(refusal_response(
                request_id, "DeadlineExceededError",
                f"deadline {deadline:g} expired before response write",
                phase="response_write"))
        return frame

    def _on_brownout_transition(self, old: int, new: int,
                                pressure: float) -> None:
        """Announce every brownout tier change on the ``server`` topic."""
        data = {"state": "brownout", "from_level": old, "to_level": new,
                "pressure": round(pressure, 4), "at": self.clock.now()}
        try:
            asyncio.get_running_loop()
        except RuntimeError:  # pragma: no cover - no loop (direct use)
            return
        asyncio.ensure_future(self.broadcast("server", data))

    async def _dispatch(self, peer: PeerInfo, request_id: str, method: str,
                        params: Mapping[str, Any]) -> dict[str, Any]:
        handler = self._methods.get(method)
        if handler is None and method != "shutdown":
            return error_response(request_id, "ProtocolError",
                                  f"unknown method {method!r}")
        spans = None
        try:
            if method == "shutdown":
                # Respond first, then drain: the requester must get its
                # acknowledgement before its connection is torn down.
                asyncio.get_running_loop().call_soon(
                    lambda: asyncio.ensure_future(
                        self.shutdown(str(params.get("reason", "client")))))
                result: Any = {"draining": True}
            elif method in ("mediate", "probe") and self._trace_decisions():
                with self.plane.obs.tracer.collect() as spans:
                    result = handler(peer, params)
            else:
                result = handler(peer, params)
            peer.requests += 1
            self.requests_served += 1
            response = ok_response(request_id, result)
        except ReproError as exc:
            response = error_response(request_id, type(exc).__name__,
                                      str(exc))
        except Exception as exc:  # deliberate: a handler bug must produce
            # a protocol-level error, never kill the connection task
            response = error_response(request_id, "InternalError",
                                      repr(exc))
        if method in ("mediate", "probe") and response.get("ok"):
            await self._broadcast_decision(peer, response["result"], spans)
        return response

    # -- built-in methods --------------------------------------------------

    def _on_hello(self, peer: PeerInfo,
                  params: Mapping[str, Any]) -> dict[str, Any]:
        peer.name = str(params.get("name", peer.peer_id))
        peer.role = str(params.get("role", "client"))
        return {"peer_id": peer.peer_id,
                "protocol_version": PROTOCOL_VERSION,
                "timescale": self.clock.timescale,
                "now": self.clock.now(),
                "heartbeat_interval": self.heartbeat_interval,
                "heartbeat_timeout": self.heartbeat_timeout}

    def _on_ping(self, peer: PeerInfo,
                 params: Mapping[str, Any]) -> dict[str, Any]:
        return {"pong": True, "now": self.clock.now()}

    def _on_subscribe(self, peer: PeerInfo,
                      params: Mapping[str, Any]) -> dict[str, Any]:
        topics = params.get("topics") or []
        unknown = [t for t in topics if t not in TOPICS]
        if unknown:
            raise ServeError(f"unknown topics: {', '.join(unknown)}")
        self._resubscribe(peer, peer.subscriptions | set(topics))
        return {"subscribed": sorted(peer.subscriptions)}

    def _on_unsubscribe(self, peer: PeerInfo,
                        params: Mapping[str, Any]) -> dict[str, Any]:
        self._resubscribe(peer, peer.subscriptions
                          - set(params.get("topics") or []))
        return {"subscribed": sorted(peer.subscriptions)}

    def _resubscribe(self, peer: PeerInfo, topics: set[str]) -> None:
        """Replace a peer's subscriptions, counting decision subscribers."""
        self._decision_subscribers += (("decision" in topics)
                                       - ("decision" in peer.subscriptions))
        peer.subscriptions = topics

    def _on_status(self, peer: PeerInfo,
                   params: Mapping[str, Any]) -> dict[str, Any]:
        brownout = self.admission.brownout
        return {
            "uptime": self.clock.now() - self.started_at,
            "draining": self.draining,
            "requests_served": self.requests_served,
            "duplicates_served": self.duplicates_served,
            "events_broadcast": self.events_broadcast,
            "events_shed": self.events_shed,
            "inflight": self._inflight,
            "admission": self.admission.snapshot(),
            "brownout": brownout.snapshot() if brownout else None,
            "deadlines": {
                "expired_pre_dispatch": self.deadline_expired_pre,
                "expired_before_write": self.deadline_expired_post,
            },
            "reply_cache": {
                "entries": sum(len(r) for r in self._replies.values()),
                "evictions": self.reply_cache_evictions,
                "limit": self.reply_cache_limit,
            },
            "peers": [p.to_dict() for p in self.registry.values()],
            "plane": self.plane.status(),
        }

    # -- pub/sub -----------------------------------------------------------

    def _trace_decisions(self) -> bool:
        """Whether a mediation now has a reader for its span tree."""
        brownout = self.admission.brownout
        return self._decision_subscribers > 0 and not (
            brownout is not None and brownout.shed_broadcast())

    async def _broadcast_decision(self, peer: PeerInfo,
                                  result: Mapping[str, Any],
                                  spans: list[Span] | None) -> None:
        brownout = self.admission.brownout
        if brownout is not None and brownout.shed_broadcast():
            # Brownout tier 1: span/event broadcasting is the first load to
            # go — counted, never silent.
            self.events_shed += 1
            return
        if spans is None:
            return  # nobody subscribed, so no tree was recorded
        correlation_id = result.get("correlation_id", "")
        await self.broadcast("decision", {
            "peer": peer.name or peer.peer_id,
            "allowed": result.get("allowed"),
            "stale": result.get("stale"),
            "user": result.get("user"),
            "operation": result.get("operation"),
            "correlation_id": correlation_id,
            # A breaker transition has a correlation of its own.
            "spans": spans_to_dicts(s for s in spans
                                    if s.correlation_id == correlation_id),
        })

    async def broadcast(self, topic: str,
                        data: Mapping[str, Any]) -> int:
        """Push one event to every live subscriber of ``topic``."""
        frame = encode_frame(make_event(topic, data))
        delivered = 0
        for peer_id, peer in list(self.registry.items()):
            if topic not in peer.subscriptions:
                continue
            writer = self._writers.get(peer_id)
            if writer is None:
                continue
            try:
                writer.write(frame)
                await writer.drain()
            except (ConnectionResetError, RuntimeError):
                peer.alive = False
                continue
            delivered += 1
        self.events_broadcast += delivered
        return delivered

    # -- liveness ----------------------------------------------------------

    def reap_once(self) -> list[str]:
        """Mark peers dead whose silence exceeds the allowed windows."""
        deadline = self.heartbeat_timeout * self.max_missed
        now = self.clock.now()
        reaped = []
        for peer in self.registry.values():
            if peer.alive and now - peer.last_seen > deadline:
                peer.alive = False
                reaped.append(peer.peer_id)
        return reaped

    async def _backfill_loop(self) -> None:
        """Freeze the heap, then run the checker's deferred signature
        checks a slice at a time whenever no request is in flight.

        It runs on the event loop, not in a thread: the checks are
        ``pow`` calls that hold the GIL, so a thread would stall handlers
        just the same, at moments the loop could not choose.  It waits on
        the drain's idle event while requests are in flight and yields
        between slices, so a new request waits behind one slice at most.
        With nothing pending it parks, with :attr:`backfill_idle` set,
        until the checker defers another check
        (:attr:`~repro.keynote.compliance.ComplianceChecker.on_deferred`:
        a credential added over the wire, say), so no check is left for a
        request or a ``probe`` to pay for inline.

        The heap is frozen before the first request: the trust store
        lives as long as the daemon, and a full collection would otherwise
        re-walk all of it.  Frozen objects are still freed by reference
        counting (a revoked entry leaves with its last reference); only
        cyclic garbage among them would stay.  There is deliberately no
        collection first: it would delay the first decision.
        """
        checker = self.plane.session.checker
        deferred = asyncio.Event()

        def wake() -> None:
            self.backfill_idle.clear()
            deferred.set()

        checker.on_deferred = wake
        gc.freeze()
        try:
            while True:
                if self._inflight:
                    await self._idle.wait()
                elif checker.verify_pending(BACKFILL_SLICE):
                    # A timer, not sleep(0): the loop queues I/O callbacks
                    # ahead of due timers, so a request that arrived during
                    # the slice is read (and ``_inflight`` raised) before
                    # this task resumes, instead of after one more slice.
                    await asyncio.sleep(BACKFILL_YIELD_S)
                else:
                    self.backfill_idle.set()
                    await deferred.wait()
                    deferred.clear()
        finally:
            checker.on_deferred = None

    async def _reap_loop(self) -> None:
        try:
            while True:
                await asyncio.sleep(self.heartbeat_interval)
                self.reap_once()
                if self.admission.brownout is not None:
                    # Idle cool-down: with no requests arriving the
                    # pressure window drains and tiers step back down.
                    self.admission.brownout.poll()
        except asyncio.CancelledError:  # pragma: no cover - shutdown path
            pass
