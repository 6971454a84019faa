"""Metrics instruments, the registry and the export renderers."""

import json
import math
import random

import pytest

from repro.obs import Observability
from repro.obs.export import (
    export_bundle,
    export_json,
    metrics_to_dict,
    render_metrics,
    render_trace,
)
from repro.obs.metrics import (
    PERCENTILE_ERROR,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.util.clock import SimulatedClock


class TestCounter:
    def test_inc_accumulates(self):
        c = Counter("hits")
        assert c.inc() == 1
        assert c.inc(4) == 5
        assert c.value == 5

    def test_cannot_decrease(self):
        with pytest.raises(ValueError):
            Counter("hits").inc(-1)

    def test_updates_are_timestamped(self):
        clock = SimulatedClock()
        c = Counter("hits", clock)
        assert c.updated_at is None
        clock.advance(3.0)
        c.inc()
        assert c.updated_at == 3.0


class TestGauge:
    def test_set_and_add(self):
        g = Gauge("queue.depth")
        g.set(4)
        assert g.add(-1.5) == 2.5
        assert g.as_dict()["value"] == 2.5


class TestHistogram:
    def test_summary_statistics(self):
        h = Histogram("latency")
        for v in (4.0, 1.0, 3.0, 2.0):
            h.observe(v)
        assert h.count == 4
        assert h.total() == 10.0
        assert (h.minimum(), h.maximum(), h.mean()) == (1.0, 4.0, 2.5)
        assert h.percentile(50) == 2.0
        assert h.percentile(100) == 4.0
        summary = h.as_dict()
        assert summary["p95"] == 4.0
        assert summary["p99"] == 4.0

    def test_empty_histogram_is_nan(self):
        h = Histogram("latency")
        assert math.isnan(h.mean())
        assert math.isnan(h.percentile(95))
        assert h.as_dict() == {"type": "histogram", "name": "latency",
                               "count": 0}

    def test_percentile_range_checked(self):
        with pytest.raises(ValueError):
            Histogram("latency").percentile(101)

    def test_observations_stamp_the_last_update(self):
        clock = SimulatedClock()
        h = Histogram("latency", clock)
        assert h.updated_at is None
        h.observe(1.0)
        clock.advance(2.0)
        h.observe(3.0)
        assert h.updated_at == 2.0
        assert h.as_dict()["updated_at"] == 2.0
        assert "samples" not in h.as_dict()

    def test_constant_memory_and_bounded_percentile_error(self):
        rng = random.Random(3)
        values = [rng.lognormvariate(0.0, 2.0) for _ in range(20000)]
        h = Histogram("latency")
        for n, value in enumerate(values, 1):
            h.observe(value)
            if n == 10000:
                buckets = len(h._buckets)
        # The second 10000 draws from the same range add few buckets.
        assert len(h._buckets) < buckets + 50 < 600
        ordered = sorted(values)
        assert (h.count, h.minimum(), h.maximum()) == \
            (20000, ordered[0], ordered[-1])
        assert h.total() == sum(values)
        for p in (1, 10, 50, 90, 95, 99, 99.9):
            exact = ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]
            assert abs(h.percentile(p) / exact - 1) <= PERCENTILE_ERROR
        assert h.percentile(0) == ordered[0]
        assert h.percentile(100) == ordered[-1]

    def test_zero_negative_and_repeated_values(self):
        h = Histogram("delta")
        for value in (0.0, -2.0, 5.0, 5.0, -2.0, 0.0):
            h.observe(value)
        assert [h.percentile(p) for p in (1, 34, 50, 67, 100)] == \
            [-2.0, 0.0, 0.0, 5.0, 5.0]
        assert len(h._buckets) == 3


class TestRegistry:
    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_timer_observes_simulated_duration(self):
        clock = SimulatedClock()
        registry = MetricsRegistry(clock)
        with registry.time("op.latency"):
            clock.advance(4.0)
        with registry.time("op.latency"):
            pass  # nothing advanced the clock
        latency = registry.histogram("op.latency")
        assert (latency.count, latency.minimum(), latency.maximum()) == \
            (2, 0.0, 4.0)
        assert latency.updated_at == 4.0

    def test_names_snapshot_and_reset(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.gauge("a").set(1)
        assert registry.names() == ["a", "b"]
        assert len(registry) == 2
        snap = registry.snapshot()
        assert list(snap) == ["a", "b"]
        assert snap["b"]["type"] == "counter"
        registry.reset()
        assert len(registry) == 0


def observed_run() -> Observability:
    """A tiny two-correlation run to exercise the renderers."""
    obs = Observability()
    with obs.tracer.span("master.schedule", node="n0") as schedule:
        obs.clock.advance(1.0)
        obs.tracer.record("net.execute", 0.0, 1.0,
                          correlation_id=schedule.correlation_id,
                          parent_id=schedule.span_id)
        with obs.tracer.span("stack.mediate") as mediate:
            mediate.status = "deny"
    with obs.tracer.span("unrelated"):
        pass
    obs.metrics.counter("stack.mediate.deny").inc()
    obs.metrics.histogram("net.latency").observe(1.0)
    return obs


class TestRenderTrace:
    def test_tree_structure_per_correlation(self):
        obs = observed_run()
        text = render_trace(obs.tracer.spans)
        assert text.count("trace corr-") == 2
        # Children are indented under the schedule root.
        root_line = next(l for l in text.splitlines()
                         if "master.schedule" in l)
        child_line = next(l for l in text.splitlines()
                          if "stack.mediate" in l)
        assert child_line.index("stack.mediate") > \
               root_line.index("master.schedule")
        assert "deny" in child_line

    def test_correlation_filter(self):
        obs = observed_run()
        corr = obs.tracer.spans[0].correlation_id
        text = render_trace(obs.tracer.spans, corr)
        assert "unrelated" not in text
        assert "master.schedule" in text

    def test_orphans_become_roots_not_dropped(self):
        obs = observed_run()
        only_net = [s for s in obs.tracer.spans if s.name == "net.execute"]
        text = render_trace(only_net)
        assert "net.execute" in text

    def test_no_spans(self):
        assert render_trace([]) == "(no spans)"


class TestRenderMetrics:
    def test_table_has_one_row_per_instrument(self):
        obs = observed_run()
        text = render_metrics(obs.metrics)
        assert "stack.mediate.deny" in text
        assert "net.latency" in text
        assert "histogram" in text

    def test_empty_registry(self):
        assert render_metrics(MetricsRegistry()) == "(no metrics)"


class TestJsonExport:
    def test_bundle_round_trips_through_json(self):
        obs = observed_run()
        bundle = json.loads(export_json(obs))
        assert bundle == export_bundle(obs)
        assert bundle["clock"] == 1.0
        assert len(bundle["trace"]) == len(obs.tracer.spans)
        by_name = {s["name"]: s for s in bundle["trace"]}
        assert by_name["net.execute"]["duration"] == 1.0
        assert by_name["stack.mediate"]["status"] == "deny"
        assert bundle["metrics"] == metrics_to_dict(obs.metrics)
        assert bundle["metrics"]["stack.mediate.deny"]["value"] == 1

    def test_observability_reset(self):
        obs = observed_run()
        obs.reset()
        assert len(obs.tracer) == 0
        assert len(obs.metrics) == 0
        assert obs.clock.now() == 1.0  # the clock runs on
