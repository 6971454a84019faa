"""Span trees only for a reader.

The daemon's spans have one reader, a ``decision`` event.  A mediation
records its span tree only while some peer is subscribed to ``decision``
(and brownout is not shedding broadcasts), and the tree goes straight into
the event: the plane keeps no span buffer, and a mediation nobody watches
opens no span and formats no metric name.
"""

import asyncio

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve.client import ServeCallError, ServeClient
from repro.util.clock import SimulatedClock
from repro.webcom.health import BreakerState
from repro.webcom.stack import Layer

from tests.serve.test_server import MEDIATE, _boot, _grant, _plane


def _miss(n):
    """A request no earlier one shares a decision with (a denied op)."""
    return {**MEDIATE, "operation": f"op{n}"}


@pytest.fixture
def registry_lookups(monkeypatch):
    """Names asked of any metrics registry from now on."""
    names = []
    lookup = MetricsRegistry._get

    def spy(self, name, kind):
        names.append(name)
        return lookup(self, name, kind)

    monkeypatch.setattr(MetricsRegistry, "_get", spy)
    return names


class TestUnwatchedDecisions:
    def test_an_unsubscribed_daemon_records_no_span(self):
        async def scenario():
            plane = _plane()
            _grant(plane)
            server, client = await _boot(plane)
            watcher = await ServeClient("w").connect(server.host,
                                                     server.port)
            await watcher.subscribe("server")  # not "decision"
            replies = [await client.call("mediate", MEDIATE)
                       for _ in range(3)]
            replies += [await client.call("mediate", _miss(n))
                        for n in range(3)]
            replies.append(await client.call("probe", MEDIATE))
            await watcher.close()
            await client.close()
            await server.shutdown()
            return plane, replies

        plane, replies = asyncio.run(scenario())
        assert [r["allowed"] for r in replies] == [True] * 3 + [False] * 3 \
            + [True]
        # The first request and the three misses ran the fixpoint.
        assert len(plane.audit.find(category="keynote.query")) == 4
        assert not any("spans" in reply for reply in replies)
        assert plane.obs.tracer.spans == []

    def test_hits_and_misses_format_no_metric_name(self, registry_lookups):
        plane = _plane()
        _grant(plane)
        # Bind every counter these paths use once.
        plane.mediate(MEDIATE)
        plane.mediate(_miss(0))
        plane.mediate(MEDIATE)
        registry_lookups.clear()
        for _ in range(5):
            assert plane.mediate(MEDIATE)["allowed"]
        assert registry_lookups == []
        for n in range(1, 6):
            assert not plane.mediate(_miss(n))["allowed"]
        # The checker's instruments are bound once too.
        assert registry_lookups == []
        assert plane.obs.metrics.counter("keynote.cache.miss").value == 7
        assert plane.stack.cache_info()["hits"] == 6
        assert plane.obs.metrics.counter("stack.mediate.allow").value == 7
        assert plane.obs.metrics.counter(
            "stack.layer.TRUST_MANAGEMENT.deny").value == 6
        assert plane.obs.tracer.spans == []

    def test_a_breaker_trip_records_no_span(self, monkeypatch,
                                            registry_lookups):
        plane = _plane(clock=SimulatedClock())
        _grant(plane)
        assert plane.mediate(MEDIATE)["allowed"]

        def down(*_args, **_kwargs):
            raise RuntimeError("trust-management backend down")

        monkeypatch.setattr(plane.session, "decision_fingerprint", down)
        tripped = [plane.mediate(MEDIATE) for _ in range(3)]
        breaker = plane.stack.breaker(Layer.TRUST_MANAGEMENT)
        assert breaker.state is BreakerState.OPEN
        # The first open-breaker request binds its degraded-mode counter.
        plane.mediate(MEDIATE)
        registry_lookups.clear()
        refused = [plane.mediate(MEDIATE) for _ in range(3)]
        assert registry_lookups == []
        assert not any(r["allowed"] for r in tripped + refused)
        assert all(r["degraded"] == ["TRUST_MANAGEMENT"] for r in refused)
        assert plane.audit.find(category="health.breaker")
        assert plane.obs.tracer.spans == []


class TestWatchedDecisions:
    def test_each_event_carries_exactly_its_own_tree(self):
        async def scenario():
            plane = _plane()
            _grant(plane)
            server, first = await _boot(plane)
            second = await ServeClient("t2").connect(server.host,
                                                     server.port)
            observer = await ServeClient("obs").connect(server.host,
                                                        server.port)
            await observer.subscribe("decision")

            async def run(client, requests):
                return [await client.call("mediate", request)
                        for request in requests]

            replies = await asyncio.gather(
                run(first, [MEDIATE] * 4),
                run(second, [_miss(n) for n in range(4)]))
            replies = [reply for batch in replies for reply in batch]
            events = [await observer.next_event() for _ in replies]
            for client in (observer, first, second):
                await client.close()
            await server.shutdown()
            return plane, replies, events

        plane, replies, events = asyncio.run(scenario())
        assert sorted(e["data"]["correlation_id"] for e in events) == \
            sorted(r["correlation_id"] for r in replies)
        misses = 0
        for event in events:
            spans = event["data"]["spans"]
            assert {s["correlation_id"] for s in spans} == \
                {event["data"]["correlation_id"]}
            (root,) = [s for s in spans if s["parent_id"] is None]
            assert root["name"] == "stack.mediate"
            (layer,) = [s for s in spans if s["parent_id"] == root["span_id"]]
            assert layer["name"] == "stack.layer.TRUST_MANAGEMENT"
            queries = [s for s in spans if s["parent_id"] == layer["span_id"]]
            if root["attributes"]["cached"]:
                assert queries == []
            else:
                misses += 1
                assert [q["name"] for q in queries] == ["keynote.query"]
            assert len(spans) == 2 + len(queries)
        assert misses == 5  # the first MEDIATE and the four distinct ops
        assert plane.obs.tracer.spans == []

    def test_subscriber_count_follows_subscriptions_and_disconnects(self):
        async def scenario():
            plane = _plane()
            _grant(plane)
            server, client = await _boot(plane)
            observer = await ServeClient("obs").connect(server.host,
                                                        server.port)
            counts = []
            await observer.subscribe("decision")
            counts.append(server._decision_subscribers)
            await observer.subscribe("decision", "server")
            counts.append(server._decision_subscribers)
            await observer.call("unsubscribe", {"topics": ["decision"]})
            counts.append(server._decision_subscribers)
            untraced = await client.call("mediate", MEDIATE)
            await observer.subscribe("decision")
            counts.append(server._decision_subscribers)
            await observer.close()
            for _ in range(100):
                if not server._decision_subscribers:
                    break
                await asyncio.sleep(0.01)
            counts.append(server._decision_subscribers)
            await client.close()
            await server.shutdown()
            return counts, untraced

        counts, untraced = asyncio.run(scenario())
        assert counts == [1, 1, 0, 1, 0]
        assert "spans" not in untraced

    def test_spans_is_no_longer_a_method(self):
        async def scenario():
            server, client = await _boot(_plane())
            try:
                await client.call("spans", {"correlation_id": "corr-1"})
            except ServeCallError as exc:
                error = exc
            await client.close()
            await server.shutdown()
            return error

        error = asyncio.run(scenario())
        assert error.error_type == "ProtocolError"
        assert "unknown method" in str(error)
