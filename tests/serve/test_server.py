"""The serve daemon: registry, dispatch, dedup, pub/sub, drain, liveness.

Tests drive a real asyncio server over real loopback sockets (the harness
has no pytest-asyncio; each test wraps its scenario in ``asyncio.run``).
"""

import asyncio

import pytest

from repro.errors import AlreadyRunningError
from repro.keynote.credential import Credential
from repro.serve.client import ServeCallError, ServeClient
from repro.serve.plane import ServePolicyPlane
from repro.serve.server import ReproServer
from repro.store.durable import DurablePolicyNode
from repro.middleware.corba import CorbaOrb
from repro.translate.to_keynote import membership_conditions
from repro.util.clock import SimulatedClock

TRUST_ROOT = ('Authorizer: POLICY\nLicensees: "KWebCom"\n'
              'Conditions: app_domain=="WebCom";')


def _plane(**kwargs):
    plane = ServePolicyPlane(**kwargs)
    plane.keystore.create("KWebCom")
    plane.keystore.create("Kuser")
    return plane


def _grant(plane, operations=("run",)):
    plane.session.add_policy(
        'Authorizer: POLICY\nLicensees: "Kuser"\n'
        'Conditions: app_domain=="WebCom" && ('
        + " || ".join(f'op=="{op}"' for op in operations) + ');')


MEDIATE = {"user": "alice", "user_key": "Kuser", "object_type": "graph",
           "operation": "run", "attributes": {"app_domain": "WebCom"}}


async def _boot(plane, **server_kwargs):
    server = await ReproServer(plane, **server_kwargs).start()
    client = await ServeClient("t").connect(server.host, server.port)
    return server, client


class TestServerCore:
    def test_hello_registers_and_status_reports(self):
        async def scenario():
            server, client = await _boot(_plane())
            hello = await client.hello(role="tester")
            status = await client.call("status")
            await client.close()
            await server.shutdown()
            return hello, status

        hello, status = asyncio.run(scenario())
        assert hello["protocol_version"] == 1
        assert hello["timescale"] == "wall"
        peers = {p["name"]: p for p in status["peers"]}
        assert peers["t"]["role"] == "tester"
        assert status["plane"]["durable"] is False

    def test_mediate_allows_and_denies_per_policy(self):
        async def scenario():
            plane = _plane()
            _grant(plane)
            server, client = await _boot(plane)
            allowed = await client.call("mediate", MEDIATE)
            denied = await client.call("mediate",
                                       {**MEDIATE, "operation": "drop"})
            await client.close()
            await server.shutdown()
            return allowed, denied

        allowed, denied = asyncio.run(scenario())
        assert allowed["allowed"] and not denied["allowed"]
        assert denied["denied_by"] == "TRUST_MANAGEMENT"
        assert allowed["correlation_id"]

    def test_probe_agrees_with_oracle_both_ways(self):
        async def scenario():
            plane = _plane()
            _grant(plane)
            server, client = await _boot(plane)
            results = [await client.call("probe", MEDIATE),
                       await client.call("probe",
                                         {**MEDIATE, "operation": "drop"})]
            await client.close()
            await server.shutdown()
            return results

        allow, deny = asyncio.run(scenario())
        assert allow["agree"] and allow["allowed"] and allow["oracle_allowed"]
        assert deny["agree"] and not deny["allowed"] \
            and not deny["oracle_allowed"]

    def test_malformed_and_unknown_requests_get_error_responses(self):
        async def scenario():
            server, client = await _boot(_plane())
            outcomes = {}
            try:
                await client.call("frobnicate")
            except ServeCallError as exc:
                outcomes["unknown"] = exc.error_type
            try:
                await client.call("mediate", {"user": "alice"})
            except ServeCallError as exc:
                outcomes["missing"] = exc.error_type
            # The connection survived both errors.
            outcomes["alive"] = (await client.call("ping"))["pong"]
            await client.close()
            await server.shutdown()
            return outcomes

        outcomes = asyncio.run(scenario())
        assert outcomes["unknown"] == "ProtocolError"
        assert outcomes["missing"] == "ServeError"
        assert outcomes["alive"] is True

    @pytest.mark.parametrize("attributes", [
        {"app_domain": ["WebCom"]},
        {"app_domain": {"nested": "WebCom"}},
        {"app_domain": 7},
        {"app_domain": None},
        {"app_domain": True},
        ["app_domain", "WebCom"],
        "app_domain=WebCom",
    ])
    def test_non_string_attributes_are_refused(self, attributes):
        async def scenario():
            plane = _plane()
            _grant(plane)
            server, client = await _boot(plane)
            errors = []
            for method in ("mediate", "probe"):
                try:
                    await client.call(method, {**MEDIATE,
                                               "attributes": attributes})
                except ServeCallError as exc:
                    errors.append(exc.error_type)
            # The refusal leaves the plane serving well-formed requests.
            allowed = (await client.call("mediate", MEDIATE))["allowed"]
            await client.close()
            await server.shutdown()
            return errors, allowed

        errors, allowed = asyncio.run(scenario())
        assert errors == ["ServeError", "ServeError"]
        assert allowed

    def test_decision_events_carry_span_trees(self):
        async def scenario():
            plane = _plane()
            _grant(plane)
            server, client = await _boot(plane)
            observer = await ServeClient("obs").connect(server.host,
                                                        server.port)
            await observer.hello(role="observer")
            await observer.subscribe("decision")
            await client.call("mediate", MEDIATE)
            event = await observer.next_event()
            await observer.close()
            await client.close()
            await server.shutdown()
            return event

        event = asyncio.run(scenario())
        assert event["event"] == "decision"
        assert event["data"]["allowed"] is True
        names = {span["name"] for span in event["data"]["spans"]}
        assert "stack.mediate" in names
        assert any(name.startswith("stack.layer.") for name in names)


class TestSelectiveInvalidationOverTheWire:
    def test_unrelated_revocation_keeps_warm_mediations(self):
        """PR 10, over the serve plane: revoking one principal's credential
        evicts exactly that principal's warm trust-management decision;
        other clients keep their L2 cache hits and nobody is ever served a
        stale ALLOW."""

        async def scenario():
            plane = _plane()
            plane.keystore.create("Kother")
            plane.session.add_policy(TRUST_ROOT)
            signer = plane.keystore.pair("KWebCom").private
            # Bob's credential first: his fixpoint short-circuits at max
            # before reading Alice's, so her revocation is outside his cone.
            plane.session.add_credential(Credential.build(
                "KWebCom", '"Kother"',
                'app_domain=="WebCom" && op=="run"').sign(signer))
            alice_cred = Credential.build(
                "KWebCom", '"Kuser"',
                'app_domain=="WebCom" && op=="run"').sign(signer)
            plane.session.add_credential(alice_cred)
            server, client = await _boot(plane)
            bob = {**MEDIATE, "user": "bob", "user_key": "Kother"}
            first_bob = await client.call("mediate", bob)
            first_alice = await client.call("mediate", MEDIATE)
            before = await client.call("status")
            revoked = await client.call("revoke",
                                        {"text": alice_cred.to_text()})
            warm_bob = await client.call("mediate", bob)
            cold_alice = await client.call("mediate", MEDIATE)
            status = await client.call("status")
            await client.close()
            await server.shutdown()
            return (first_bob, first_alice, before, revoked, warm_bob,
                    cold_alice, status)

        (first_bob, first_alice, before, revoked, warm_bob, cold_alice,
         status) = asyncio.run(scenario())
        assert first_bob["allowed"] and first_alice["allowed"]
        assert revoked["revoked"]
        assert warm_bob["allowed"]
        assert not cold_alice["allowed"]
        assert cold_alice["denied_by"] == "TRUST_MANAGEMENT"
        cache = status["plane"]["cache"]
        # Bob's TM decision outlived the churn and served the one
        # post-churn hit; Alice's was evicted, so hers ran the fixpoint.
        assert cache["hits"] - before["plane"]["cache"]["hits"] == 1
        assert cache["misses"] - before["plane"]["cache"]["misses"] == 1
        tm_cache = status["plane"]["tm_cache"]
        assert tm_cache["selective_evictions"] >= 1
        assert tm_cache["full_flushes"] == 0
        assert tm_cache["entries"] == 2


class TestRequestIdDedup:
    def test_duplicate_update_is_replayed_not_reapplied(self):
        async def scenario():
            plane = _plane()
            plane.session.add_policy(TRUST_ROOT)
            membership = Credential.build(
                "KWebCom", '"Kuser"',
                membership_conditions(plane.middleware.domain, "Clerk"),
            ).sign(plane.keystore.pair("KWebCom").private)
            server, client = await _boot(plane)
            params = {"user": "alice", "user_key": "Kuser",
                      "domain": plane.middleware.domain, "role": "Clerk",
                      "credentials": [membership.to_text()],
                      "request_id": "install-1"}
            first = await client.call("update", params,
                                      request_id="wire-1")
            # The retry reuses the *wire* id: the server must replay the
            # recorded response without re-executing the handler.
            second = await client.call("update", params,
                                       request_id="wire-1")
            await client.close()
            await server.shutdown()
            return first, second, server, plane

        first, second, server, plane = asyncio.run(scenario())
        assert first == second
        assert server.duplicates_served == 1
        assert len(plane.keycom.processed) == 1

    def test_application_level_request_id_also_dedups(self):
        async def scenario():
            plane = _plane()
            plane.session.add_policy(TRUST_ROOT)
            membership = Credential.build(
                "KWebCom", '"Kuser"',
                membership_conditions(plane.middleware.domain, "Clerk"),
            ).sign(plane.keystore.pair("KWebCom").private)
            server, client = await _boot(plane)
            params = {"user": "alice", "user_key": "Kuser",
                      "domain": plane.middleware.domain, "role": "Clerk",
                      "credentials": [membership.to_text()],
                      "request_id": "install-1"}
            # Distinct wire ids (a reconnecting client), same KeyCom
            # request id: the service's idempotency layer catches it.
            first = await client.call("update", params)
            second = await client.call("update", params)
            await client.close()
            await server.shutdown()
            return first, second, plane

        first, second, plane = asyncio.run(scenario())
        assert first["applied"] and second["applied"]
        assert not first["duplicate"] and second["duplicate"]
        assert plane.keycom.duplicates == 1


class TestKeyComPolicySmuggling:
    def test_presented_policy_assertion_is_refused(self, tmp_path):
        """A remote ``update`` presenting an unsigned POLICY assertion that
        licenses the caller's own key is a malformed request: it must not
        reach the ORB, the WAL or the applied-id set."""

        async def scenario():
            plane = _plane(root=tmp_path)
            plane.session.add_policy(TRUST_ROOT)
            mallory = plane.keystore.create("Kmallory").public.encode()
            before = plane.middleware.extract_rbac()
            server, client = await _boot(plane)
            smuggled = (f'Authorizer: POLICY\nLicensees: "{mallory}"\n'
                        'Conditions: app_domain=="WebCom";\n')
            try:
                await client.call("update", {
                    "user": "mallory", "user_key": mallory,
                    "domain": plane.middleware.domain, "role": "admin",
                    "credentials": [smuggled], "request_id": "r1"})
                error_type = None
            except ServeCallError as exc:
                error_type = exc.error_type
            status = await client.call("status")
            # Read the log before shutdown compacts it into a snapshot.
            kinds = [record["kind"]
                     for _lsn, record in plane.node.store.wal.records()]
            await client.close()
            await server.shutdown()
            return error_type, status, kinds, before, plane

        error_type, status, kinds, before, plane = asyncio.run(scenario())
        assert error_type == "KeyComError"
        assert plane.middleware.extract_rbac() == before
        assert "keycom.apply" not in kinds
        assert status["plane"]["keycom"]["applied_ids"] == 0


class TestDurabilityAndDrain:
    def test_shutdown_drains_and_flushes_the_wal(self, tmp_path):
        async def scenario():
            plane = _plane(root=tmp_path)
            _grant(plane)
            server, client = await _boot(plane)
            await client.call("add_credential", {"text": Credential.build(
                "Kuser", '"Kuser"', "false").sign(
                    plane.keystore.pair("Kuser").private).to_text()})
            await client.call("mediate", MEDIATE)
            ack = await client.call("shutdown", {"reason": "test"})
            report = await server.serve_until_shutdown()
            await client.close()
            return ack, report

        ack, report = asyncio.run(scenario())
        assert ack["draining"] is True
        assert report["wal_flushed"] is True
        assert report["inflight_after_drain"] == 0
        assert report["snapshot"]
        # The daemon's acknowledged trust state survives a restart.
        node = DurablePolicyNode.recover(
            tmp_path, keycom_middleware=CorbaOrb("serve", "orb"),
            verify_signatures=False)
        try:
            assert len(node.session.policies) == 1
            assert len(node.session.credentials) == 1
        finally:
            node.close()

    def test_draining_server_refuses_new_work(self):
        async def scenario():
            plane = _plane()
            _grant(plane)
            server, client = await _boot(plane)
            server.draining = True
            try:
                await client.call("mediate", MEDIATE)
                refused = None
            except ServeCallError as exc:
                refused = str(exc)
            status = await client.call("status")
            await client.close()
            server.draining = False
            await server.shutdown()
            return refused, status

        refused, status = asyncio.run(scenario())
        assert refused is not None and "draining" in refused
        assert status["draining"] is True

    def test_shutdown_mid_wave_loses_no_call(self, tmp_path):
        """A contended drain: every call already in flight when
        ``shutdown`` lands completes or gets a "draining" refusal — none is
        lost to a torn-down connection or a timeout."""
        async def scenario():
            plane = _plane(root=tmp_path)
            _grant(plane)
            server, control = await _boot(plane)
            await control.hello(role="control")
            wave = [await ServeClient(f"wave-{n}").connect(server.host,
                                                           server.port)
                    for n in range(32)]
            calls = [asyncio.create_task(client.call("mediate", MEDIATE))
                     for client in wave]
            ack = await control.call("shutdown", {"reason": "mid-wave"})
            outcomes = await asyncio.gather(*calls, return_exceptions=True)
            report = await server.serve_until_shutdown()
            for client in wave + [control]:
                await client.close()
            return ack, outcomes, report

        ack, outcomes, report = asyncio.run(scenario())
        completed = [o for o in outcomes if isinstance(o, dict)]
        refused = [o for o in outcomes if isinstance(o, ServeCallError)
                   and "draining" in str(o)]
        assert len(completed) + len(refused) == len(outcomes) == 32
        assert all(result["allowed"] for result in completed)
        assert ack["draining"] is True
        assert report["wal_flushed"] is True
        assert report["inflight_after_drain"] == 0

    def test_pidfile_blocks_a_second_daemon(self, tmp_path):
        pidfile = tmp_path / "serve.pid"
        pidfile.write_text("1\n")  # PID 1: alive, not us

        async def scenario():
            server = ReproServer(_plane(), pidfile=str(pidfile))
            with pytest.raises(AlreadyRunningError):
                await server.start()

        asyncio.run(scenario())


class TestLiveness:
    def test_simulated_clock_plane_heartbeats_at_simulated_scale(self):
        async def scenario():
            clock = SimulatedClock()
            plane = _plane(clock=clock)
            server, client = await _boot(plane)
            await client.hello()
            # Defaults resolved from the simulated clock's schedule.
            assert server.heartbeat_interval == 15.0
            assert server.heartbeat_timeout == 5.0
            peer = next(iter(server.registry.values()))
            assert peer.alive
            # Silence past timeout x max_missed: the reaper marks it dead.
            clock.advance(16.0)
            reaped = server.reap_once()
            assert reaped == [peer.peer_id]
            assert not peer.alive
            # Any request revives it.
            await client.call("ping")
            assert peer.alive
            await client.close()
            await server.shutdown()

        asyncio.run(scenario())

    def test_wall_clock_plane_resolves_subsecond_defaults(self):
        async def scenario():
            server, client = await _boot(_plane())
            hello = await client.hello()
            await client.close()
            await server.shutdown()
            return hello, server

        hello, server = asyncio.run(scenario())
        assert server.heartbeat_interval == 5.0
        assert server.heartbeat_timeout == 1.0
        assert hello["heartbeat_interval"] == 5.0

    def test_closed_connections_leave_the_registry(self):
        async def scenario():
            server, client = await _boot(_plane())
            await client.hello(role="stays")
            for n in range(50):
                visitor = await ServeClient(f"v{n}").connect(server.host,
                                                             server.port)
                assert (await visitor.call("ping"))["pong"]
                await visitor.close()
            # The server sees each close when its read loop wakes.
            for _ in range(100):
                if len(server.registry) == 1:
                    break
                await asyncio.sleep(0.01)
            status = await client.call("status")
            await client.close()
            await server.shutdown()
            return server, status

        server, status = asyncio.run(scenario())
        assert [peer["role"] for peer in status["peers"]] == ["stays"]
        assert server.registry == {}


class TestTranslateApi:
    def test_translate_comprehends_credentials_over_the_wire(self):
        async def scenario():
            plane = _plane()
            membership = Credential.build(
                "KWebCom", '"Kuser"',
                membership_conditions("Payroll", "Clerk"),
            ).sign(plane.keystore.pair("KWebCom").private)
            server, client = await _boot(plane)
            result = await client.call(
                "translate", {"credentials": [membership.to_text()]})
            await client.close()
            await server.shutdown()
            return result

        result = asyncio.run(scenario())
        assert result["assignments"] == 1
        assert result["policy"]["user_assignment"]
