"""Cross-cutting observability: tracing, metrics and export.

The stacked-authorisation story of the paper (Section 5, Figure 10) is only
operationally credible when every decision is attributable: which layer
denied, under which credentials, at what simulated time, at what cost.  This
package provides the pieces the rest of the framework threads through
its decision paths:

- :mod:`repro.obs.trace` — spans with parent/child structure and correlation
  ids, so a master-side scheduling decision, the network delivery and the
  client-side stack mediation it triggered share one trace;
- :mod:`repro.obs.metrics` — counters, gauges and histograms keyed on the
  simulated clock (memo hits, per-layer verdicts, node firing latency);
- :mod:`repro.obs.export` — JSON and flamegraph-style text export;
- :mod:`repro.obs.observability` — one tracer and one metrics registry
  over one clock, the object the rest of the framework is handed.

Everything is driven by the :class:`~repro.util.clock.SimulatedClock`, so
traces are deterministic and replayable, exactly like the network they
observe.  Components share one :class:`Observability`:

>>> from repro.obs import Observability
>>> obs = Observability()
>>> with obs.tracer.span("demo"):
...     _ = obs.metrics.counter("demo.events").inc()
>>> obs.metrics.counter("demo.events").value
1
"""

from repro._lazy import lazy_facade

#: public name -> the submodule defining it, imported on first read
_EXPORTS = {
    "Counter": "metrics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "MetricsRegistry": "metrics",
    "Observability": "observability",
    "Span": "trace",
    "Tracer": "trace",
    "export_bundle": "export",
    "export_json": "export",
    "metrics_to_dict": "export",
    "render_metrics": "export",
    "render_trace": "export",
    "spans_to_dicts": "trace",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_facade(__name__, _EXPORTS)
