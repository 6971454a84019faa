"""End-to-end acceptance for the unified observability layer.

One Figure-3 run must yield ONE correlated trace: the master's schedule
decision, the network flights, the client-side L0-L3 stack mediation (with
per-layer spans, real simulated timestamps and the TM query) and any
fault-injected retries all share the run's correlation id.
"""

import pytest

from repro.crypto.keys import KeyPair
from repro.crypto.keystore import SIGNATURE_CACHE
from repro.webcom.scenario import (run_observed_scenario,
                                   run_policy_chaos_scenario)


@pytest.fixture(scope="module")
def clean_run():
    return run_observed_scenario(depth=4, n_clients=2, faults=False)


@pytest.fixture(scope="module")
def faulted_run():
    return run_observed_scenario(depth=4, n_clients=2, faults=True, seed=7)


class TestCorrelatedTrace:
    def test_pipeline_still_computes(self, clean_run):
        assert clean_run.result == 4

    def test_one_story_one_correlation(self, clean_run):
        corr = clean_run.correlation_id
        assert corr is not None
        tracer = clean_run.obs.tracer
        for name in ("master.run_graph", "master.schedule", "engine.fire",
                     "net.execute", "net.result", "client.execute",
                     "stack.mediate", "stack.layer.TRUST_MANAGEMENT",
                     "keynote.query"):
            spans = tracer.find(name, corr)
            assert spans, f"no {name} span in the run correlation"
            assert all(s.correlation_id == corr for s in spans)

    def test_schedule_spans_one_per_stage(self, clean_run):
        schedules = clean_run.obs.tracer.find("master.schedule",
                                              clean_run.correlation_id)
        assert len(schedules) == 4
        assert {s.status for s in schedules} == {"ok"}
        assert {s.attributes["node"] for s in schedules} == \
               {"n000", "n001", "n002", "n003"}

    def test_remote_spans_parent_onto_the_schedule(self, clean_run):
        tracer = clean_run.obs.tracer
        corr = clean_run.correlation_id
        schedule_ids = {s.span_id
                        for s in tracer.find("master.schedule", corr)}
        for flight in tracer.find("net.execute", corr):
            assert flight.parent_id in schedule_ids
        for execute in tracer.find("client.execute", corr):
            assert execute.parent_id in schedule_ids

    def test_mediation_nests_under_client_execute(self, clean_run):
        tracer = clean_run.obs.tracer
        corr = clean_run.correlation_id
        execute_ids = {s.span_id for s in tracer.find("client.execute", corr)}
        mediations = tracer.find("stack.mediate", corr)
        assert mediations
        for mediate in mediations:
            assert mediate.parent_id in execute_ids
            assert mediate.status == "allow"
            layer = tracer.find("stack.layer.TRUST_MANAGEMENT", corr)
            assert any(s.parent_id == mediate.span_id for s in layer)

    def test_timestamps_are_real_simulated_time(self, clean_run):
        corr = clean_run.correlation_id
        spans = clean_run.obs.tracer.find(correlation_id=corr)
        root = clean_run.obs.tracer.find("master.run_graph", corr)[0]
        assert root.duration > 0
        for span in spans:
            assert root.start <= span.start <= span.end <= root.end
        # Network flights actually take simulated time.
        flights = clean_run.obs.tracer.find("net.execute", corr)
        assert all(f.duration > 0 for f in flights)


class TestMetrics:
    def test_decision_counters(self, clean_run):
        metrics = clean_run.obs.metrics
        assert metrics.counter("master.schedule.ok").value == 4
        assert metrics.counter("engine.fired").value == 4
        assert metrics.counter("stack.mediate.allow").value > 0
        assert metrics.counter("stack.mediate.deny").value == 0
        assert metrics.counter(
            "stack.layer.TRUST_MANAGEMENT.allow").value > 0

    def test_keynote_profile_is_mirrored(self, clean_run):
        metrics = clean_run.obs.metrics
        assert metrics.counter("keynote.queries").value > 0
        assert metrics.counter("keynote.memo.miss").value > 0
        assert metrics.histogram("keynote.fixpoint_depth").count > 0

    def test_latency_histograms(self, clean_run):
        metrics = clean_run.obs.metrics
        assert metrics.histogram("net.latency").count > 0
        assert metrics.histogram("engine.node_latency").count == 4
        assert metrics.histogram("master.schedule_latency").count == 4

    def test_batched_nodes_are_timed_one_sample_each(self):
        run = run_observed_scenario(fan=6, batch=True)
        metrics = run.obs.metrics
        latency = metrics.histogram("engine.node_latency")
        assert latency.count == metrics.counter("engine.fired").value == 7
        assert metrics.counter("master.batch.flights").value > 0
        assert latency.as_dict()["max"] > 0  # the flight's round trip

    def test_audit_timestamps_use_the_clock(self, clean_run):
        audit = clean_run.env.audit
        assert len(audit) > 0
        # The seed bug stamped every mediation at t=0.0; mediations now
        # happen at real simulated times, strictly after the handshake.
        mediations = audit.find(category="stack.mediate")
        assert mediations
        assert all(r.timestamp > 0 for r in mediations)
        assert clean_run.obs.metrics.counter(
            "audit.stack.mediate.allow").value == len(mediations)


class TestFaultedRun:
    def test_retries_happen_and_stay_in_correlation(self, faulted_run):
        assert faulted_run.result == 4
        metrics = faulted_run.obs.metrics
        retries = metrics.counter("master.retries").value
        assert retries > 0
        assert metrics.counter("net.dropped").value > 0
        corr = faulted_run.correlation_id
        tracer = faulted_run.obs.tracer
        dropped = [s for s in tracer.find(correlation_id=corr)
                   if s.status == "dropped"]
        assert dropped, "dropped flights must stay inside the run trace"
        # Re-sends show up as extra execute flights in the same correlation.
        flights = tracer.find("net.execute", corr)
        assert len(flights) > 4

    def test_faulted_trace_is_still_one_story(self, faulted_run):
        corr = faulted_run.correlation_id
        tracer = faulted_run.obs.tracer
        in_corr = tracer.find(correlation_id=corr)
        # Everything after the registration handshake belongs to the run:
        # the handshake spans are the only other correlations.
        assert len(in_corr) > len(tracer.spans) / 2

    def test_determinism_same_seed_same_trace(self, faulted_run):
        again = run_observed_scenario(depth=4, n_clients=2, faults=True,
                                      seed=7)
        assert again.result == faulted_run.result
        assert [(s.name, s.start, s.end, s.status)
                for s in again.obs.tracer.spans] == \
               [(s.name, s.start, s.end, s.status)
                for s in faulted_run.obs.tracer.spans]
        assert again.obs.metrics.snapshot() == \
               faulted_run.obs.metrics.snapshot()


class TestFinishedRunsLetGoOfTheSignatureCache:
    @pytest.mark.parametrize("scenario", [
        lambda: run_observed_scenario(depth=2, n_clients=1),
        lambda: run_policy_chaos_scenario(0, rounds=5, updates=2),
    ], ids=["observed", "policy-chaos"])
    def test_later_signature_checks_leave_the_run_metrics_alone(
            self, scenario):
        """The signature cache is process-wide; a finished run's metrics
        count none of the checks made after it."""
        run = scenario()
        before = run.obs.metrics.snapshot()
        pair = KeyPair.generate("checked after the run")
        message = b"an unrelated signature check"
        assert SIGNATURE_CACHE.verify(pair.public, message,
                                      pair.sign(message))
        assert run.obs.metrics.snapshot() == before
