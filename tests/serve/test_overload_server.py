"""Overload behaviour of the daemon itself: admission refusals on the
wire, deadline propagation, brownout tiers, the bounded reply cache and
the reaper's interaction with in-flight work.

Real loopback sockets; planes run on the simulated clock wherever timing
matters, so every deadline and hysteresis assertion is exact.
"""

import asyncio

import pytest

from repro.keynote.credential import Credential
from repro.serve.admission import AdmissionController, BrownoutController
from repro.serve.client import ServeCallError, ServeClient
from repro.serve.plane import ServePolicyPlane
from repro.serve.protocol import decode_frame, encode_frame, make_request
from repro.serve.server import ReproServer
from repro.util.clock import SimulatedClock

MEDIATE = {"user": "alice", "user_key": "Kuser", "object_type": "graph",
           "operation": "run", "attributes": {"app_domain": "WebCom"}}


def _plane(clock=None, **kwargs):
    plane = ServePolicyPlane(clock=clock, **kwargs)
    plane.keystore.create("KWebCom")
    plane.keystore.create("Kuser")
    plane.session.add_policy(
        'Authorizer: POLICY\nLicensees: "Kuser"\n'
        'Conditions: app_domain=="WebCom" && op=="run";')
    return plane


async def _boot(plane, **server_kwargs):
    server = await ReproServer(plane, **server_kwargs).start()
    client = await ServeClient("t").connect(server.host, server.port)
    return server, client


def _escalate(server, level):
    """Feed sustained synthetic pressure until the brownout reaches
    ``level`` (simulated clock only)."""
    brownout = server.admission.brownout
    clock = brownout.clock
    while brownout.level < level:
        for _ in range(10):
            brownout.record(shed=True, utilization=1.0)
        clock.advance(0.2)
        brownout.poll()


class TestAdmissionOnTheWire:
    def test_overloaded_mediate_is_refused_but_control_is_not(self):
        async def scenario():
            clock = SimulatedClock()
            plane = _plane(clock=clock)
            admission = AdmissionController(clock=clock, max_inflight=0)
            server, client = await _boot(plane, admission=admission)
            outcomes = {}
            try:
                await client.call("mediate", MEDIATE)
            except ServeCallError as exc:
                outcomes["error_type"] = exc.error_type
                outcomes["retry_after"] = exc.retry_after
                outcomes["retryable"] = exc.retryable
            outcomes["ping"] = (await client.call("ping"))["pong"]
            status = await client.call("status")
            outcomes["shed"] = status["admission"]["shed"]
            await client.close()
            await server.shutdown()
            return outcomes

        outcomes = asyncio.run(scenario())
        assert outcomes["error_type"] == "OverloadedError"
        assert outcomes["retry_after"] > 0
        assert outcomes["retryable"]
        assert outcomes["ping"] is True  # CONTROL rides through
        assert outcomes["shed"]["overloaded"] == 1
        assert outcomes["shed"]["by_priority"]["control"] == 0

    def test_rate_limited_peer_gets_hint_and_other_peer_rides(self):
        async def scenario():
            clock = SimulatedClock()
            plane = _plane(clock=clock)
            admission = AdmissionController(clock=clock, max_inflight=16,
                                            peer_rate=1.0, peer_burst=1.0)
            server, client = await _boot(plane, admission=admission)
            other = await ServeClient("o").connect(server.host, server.port)
            first = await client.call("mediate", MEDIATE)
            with pytest.raises(ServeCallError) as excinfo:
                await client.call("mediate", MEDIATE)
            fresh_peer = await other.call("mediate", MEDIATE)
            await client.close()
            await other.close()
            await server.shutdown()
            return first, excinfo.value, fresh_peer

        first, error, fresh_peer = asyncio.run(scenario())
        assert first["allowed"] and fresh_peer["allowed"]
        assert error.error_type == "RateLimitedError"
        assert error.retry_after == pytest.approx(1.0)

    def test_refusals_are_not_cached_for_replay(self):
        async def scenario():
            clock = SimulatedClock()
            plane = _plane(clock=clock)
            admission = AdmissionController(clock=clock, max_inflight=16,
                                            peer_rate=1.0, peer_burst=1.0)
            server, client = await _boot(plane, admission=admission)
            await client.call("mediate", MEDIATE)
            request_id = client.next_request_id()
            refused = None
            try:
                await client.call("mediate", MEDIATE,
                                  request_id=request_id)
            except ServeCallError as exc:
                refused = exc.error_type
            # The bucket refills; the *same id* must be re-admitted and
            # executed, not replayed from the reply cache as a refusal.
            clock.advance(2.0)
            retried = await client.call("mediate", MEDIATE,
                                        request_id=request_id)
            duplicates = server.duplicates_served
            await client.close()
            await server.shutdown()
            return refused, retried, duplicates

        refused, retried, duplicates = asyncio.run(scenario())
        assert refused == "RateLimitedError"
        assert retried["allowed"]
        assert duplicates == 0


class TestDeadlinePropagation:
    def test_expired_deadline_is_dropped_before_dispatch(self):
        async def scenario():
            clock = SimulatedClock(start=100.0)
            plane = _plane(clock=clock)
            server, client = await _boot(plane)
            mediations_before = plane.mediations
            with pytest.raises(ServeCallError) as excinfo:
                await client.call("mediate", MEDIATE, deadline=99.0)
            status = await client.call("status")
            await client.close()
            await server.shutdown()
            return (excinfo.value, plane.mediations - mediations_before,
                    status["deadlines"])

        error, mediations, deadlines = asyncio.run(scenario())
        assert error.error_type == "DeadlineExceededError"
        assert mediations == 0  # never dispatched
        assert deadlines["expired_pre_dispatch"] == 1
        assert deadlines["expired_before_write"] == 0

    def test_deadline_passing_mid_dispatch_refuses_but_caches_result(self):
        async def scenario():
            clock = SimulatedClock(start=0.0)
            plane = _plane(clock=clock)
            server, client = await _boot(plane)
            # A handler that takes 10 simulated seconds to run.
            server._methods["slow"] = (
                lambda peer, p: {"done": clock.advance(10.0) > 0})
            request_id = client.next_request_id()
            refused = None
            try:
                await client.call("slow", {}, request_id=request_id,
                                  deadline=5.0)
            except ServeCallError as exc:
                refused = exc.error_type
            # An idempotent retry under the same id replays the *real*
            # recorded response — the work was done, only its first
            # delivery was refused.
            replay = await client.call("slow", {}, request_id=request_id)
            status = await client.call("status")
            await client.close()
            await server.shutdown()
            return refused, replay, status["deadlines"]

        refused, replay, deadlines = asyncio.run(scenario())
        assert refused == "DeadlineExceededError"
        assert replay == {"done": True}
        assert deadlines["expired_before_write"] == 1
        assert deadlines["expired_pre_dispatch"] == 0

    def test_fresh_deadline_is_honoured(self):
        async def scenario():
            clock = SimulatedClock(start=100.0)
            plane = _plane(clock=clock)
            server, client = await _boot(plane)
            result = await client.call("mediate", MEDIATE, deadline=200.0)
            await client.close()
            await server.shutdown()
            return result

        assert asyncio.run(scenario())["allowed"]


class TestBrownoutOnTheServer:
    def test_tier1_sheds_decision_broadcasts_counted(self):
        async def scenario():
            clock = SimulatedClock()
            plane = _plane(clock=clock)
            admission = AdmissionController(
                clock=clock, max_inflight=64,
                brownout=BrownoutController(clock=clock, window=1.0,
                                            sustain=0.5, cool=1.0))
            server, client = await _boot(plane, admission=admission)
            observer = await ServeClient("obs").connect(server.host,
                                                        server.port)
            await observer.subscribe("decision", "server")
            before = await client.call("mediate", MEDIATE)
            decision_event = await observer.next_event(timeout=5.0)
            _escalate(server, 1)
            await client.call("mediate",
                              {**MEDIATE, "attributes":
                               {"app_domain": "WebCom", "n": "2"}})
            # The brownout transition itself is announced on "server".
            server_event = await observer.next_event(timeout=5.0)
            status = await client.call("status")
            await client.close()
            await observer.close()
            await server.shutdown()
            return before, decision_event, server_event, status

        before, decision_event, server_event, status = asyncio.run(scenario())
        assert before["allowed"]
        assert decision_event["event"] == "decision"
        assert server_event["event"] == "server"
        assert server_event["data"]["state"] == "brownout"
        assert server_event["data"]["to_level"] == 1
        assert status["events_shed"] >= 1
        assert status["brownout"]["level"] == 1

    def test_tier2_fresh_hit_is_audited_traced_and_counted(self):
        """Brownout changes nothing about how a decision is served: at the
        top tier a trust-management cache hit writes its one
        ``stack.mediate`` audit record (and no ``keynote.query`` one) and
        bumps the verdict counter like any other mediation.  With no
        ``decision`` subscriber it records no span."""
        async def scenario():
            clock = SimulatedClock()
            plane = _plane(clock=clock)
            admission = AdmissionController(
                clock=clock, max_inflight=64,
                brownout=BrownoutController(clock=clock, window=1.0,
                                            sustain=0.5, cool=1.0))
            server, client = await _boot(plane, admission=admission)
            await client.call("mediate", MEDIATE)
            _escalate(server, 2)
            hit = await client.call("mediate", MEDIATE)
            await client.close()
            await server.shutdown()
            return hit, plane

        hit, plane = asyncio.run(scenario())
        assert hit["allowed"] and not hit["stale"]
        records = plane.audit.find(category="stack.mediate")
        assert len(records) == 2
        assert records[-1].detail["cached"] is True
        assert records[-1].detail["stale"] is False
        assert len(plane.audit.find(category="keynote.query")) == 1
        assert "spans" not in hit
        assert plane.obs.tracer.spans == []
        assert plane.obs.metrics.counter("stack.mediate.allow").value == 2
        assert plane.session.checker.cache_hits == 1

    def test_tier2_never_serves_a_revoked_allow(self):
        """Brownout never forgives a revocation: once the credential an
        ALLOW rested on is revoked, the top tier mediates for real instead
        of serving the earlier ALLOW."""
        async def scenario():
            clock = SimulatedClock()
            plane = ServePolicyPlane(clock=clock)
            plane.keystore.create("Kalice")
            plane.keystore.create("Kproxy")
            plane.session.add_policy(
                'Authorizer: POLICY\nLicensees: "Kalice"\n'
                'Conditions: app_domain=="WebCom";')
            delegation = Credential.build(
                "Kalice", '"Kproxy"', 'app_domain=="WebCom" && op=="run"',
            ).sign(plane.keystore.pair("Kalice").private)
            plane.session.add_credential(delegation)
            admission = AdmissionController(
                clock=clock, max_inflight=64,
                brownout=BrownoutController(clock=clock, window=1.0,
                                            sustain=0.5, cool=1.0))
            server, client = await _boot(plane, admission=admission)
            request = {**MEDIATE, "user_key": "Kproxy"}
            before = await client.call("mediate", request)
            revoked = await client.call("revoke",
                                        {"text": delegation.to_text()})
            _escalate(server, 2)
            after = await client.call("mediate", request)
            status = await client.call("status")
            await client.close()
            await server.shutdown()
            return before, revoked, after, status

        before, revoked, after, status = asyncio.run(scenario())
        assert before["allowed"] and not before["stale"]
        assert revoked["revoked"]
        assert not after["allowed"] and not after["stale"]
        assert after["denied_by"] == "TRUST_MANAGEMENT"
        assert status["plane"]["stale_mediations"] == 0
        assert status["plane"]["cache"]["misses"] == 2

    def test_tier2_sheds_bulk_but_not_data(self):
        async def scenario():
            clock = SimulatedClock()
            plane = _plane(clock=clock)
            admission = AdmissionController(
                clock=clock, max_inflight=64,
                brownout=BrownoutController(clock=clock, window=1.0,
                                            sustain=0.5, cool=1.0))
            server, client = await _boot(plane, admission=admission)
            _escalate(server, 2)
            bulk_error = None
            try:
                await client.call("translate", {"credentials": []})
            except ServeCallError as exc:
                bulk_error = exc
            data = await client.call("mediate", MEDIATE)
            await client.close()
            await server.shutdown()
            return bulk_error, data

        bulk_error, data = asyncio.run(scenario())
        assert bulk_error is not None
        assert bulk_error.error_type == "OverloadedError"
        assert bulk_error.retry_after > 0
        assert data["allowed"]  # DATA still served at tier 2


class TestReplyCacheBound:
    def test_lru_eviction_keeps_recent_ids_replayable(self):
        async def scenario():
            plane = _plane(clock=SimulatedClock())
            server, client = await _boot(plane, reply_cache_limit=3)
            ids = [client.next_request_id() for _ in range(4)]
            for request_id in ids:
                await client.call("ping", {}, request_id=request_id)
            # The three newest ids replay from the cache...
            for request_id in ids[1:]:
                await client.call("ping", {}, request_id=request_id)
            replayed = server.duplicates_served
            # ...but the evicted oldest id is re-executed, not replayed.
            await client.call("ping", {}, request_id=ids[0])
            replayed_after_evicted = server.duplicates_served
            status = await client.call("status")
            await client.close()
            await server.shutdown()
            return replayed, replayed_after_evicted, status["reply_cache"]

        replayed, after, cache = asyncio.run(scenario())
        assert replayed == 3
        assert after == 3  # the evicted id was handled fresh
        assert cache["limit"] == 3
        assert cache["evictions"] >= 2
        assert cache["entries"] <= 3

    def test_reply_cache_limit_validated(self):
        with pytest.raises(Exception):
            ReproServer(_plane(clock=SimulatedClock()), reply_cache_limit=0)


class TestReplyFrames:
    """The reply cache keeps the frame the server wrote: a replayed id
    gets the same bytes, and no reply is encoded twice."""

    def test_a_replayed_request_id_returns_the_identical_line(
            self, monkeypatch):
        import repro.serve.server as server_module

        encoded = []
        encode = server_module.encode_frame

        def counting(message):
            encoded.append(message.get("id"))
            return encode(message)

        monkeypatch.setattr(server_module, "encode_frame", counting)

        async def scenario():
            plane = _plane(clock=SimulatedClock())
            server = await ReproServer(plane).start()
            reader, writer = await asyncio.open_connection(server.host,
                                                           server.port)
            lines = []
            for request_id in ("same", "same", "other", "same"):
                writer.write(encode_frame(make_request(
                    request_id, "mediate", MEDIATE)))
                await writer.drain()
                lines.append(await reader.readline())
            writer.close()
            encodes = list(encoded)
            await server.shutdown()
            return lines, server.duplicates_served, encodes

        lines, duplicates, encodes = asyncio.run(scenario())
        first, replay, other, again = lines
        assert replay == first and again == first
        assert decode_frame(first)["result"]["allowed"]
        assert decode_frame(other)["id"] == "other"
        assert duplicates == 2
        assert encodes == ["same", "other"]


class TestReaperVersusInflight:
    def test_dead_marked_peer_still_gets_responses(self):
        async def scenario():
            clock = SimulatedClock()
            plane = _plane(clock=clock)
            server, client = await _boot(plane, heartbeat_timeout=1.0,
                                         max_missed=2)
            await client.hello()
            # Silence long past the allowed windows: the reaper marks the
            # peer dead...
            clock.advance(10.0)
            reaped = server.reap_once()
            dead = {p.peer_id: p.alive for p in server.registry.values()}
            # ...but an in-flight request from that very peer must still
            # be answered (a response, never a torn socket), and answering
            # proves liveness again.
            result = await client.call("mediate", MEDIATE)
            alive = {p.peer_id: p.alive for p in server.registry.values()}
            await client.close()
            await server.shutdown()
            return reaped, dead, result, alive

        reaped, dead, result, alive = asyncio.run(scenario())
        assert len(reaped) == 1
        assert dead[reaped[0]] is False
        assert result["allowed"]
        assert alive[reaped[0]] is True

    def test_reconnect_does_not_resurrect_old_reply_cache(self):
        async def scenario():
            clock = SimulatedClock()
            plane = _plane(clock=clock)
            server = await ReproServer(plane).start()
            first = await ServeClient("t").connect(server.host, server.port)
            await first.call("ping", {}, request_id="shared-id")
            await first.close()
            await asyncio.sleep(0.05)  # let the disconnect finalise
            stale_caches = len(server._replies)
            # A new connection re-using the same request id is a *new*
            # request for a new peer — the old peer's cache (and its
            # admission bucket) died with its connection.
            second = await ServeClient("t").connect(server.host, server.port)
            await second.call("ping", {}, request_id="shared-id")
            duplicates = server.duplicates_served
            await second.close()
            await server.shutdown()
            return stale_caches, duplicates

        stale_caches, duplicates = asyncio.run(scenario())
        assert stale_caches == 0
        assert duplicates == 0
