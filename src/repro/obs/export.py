"""Trace and metrics export: JSON bundles and flamegraph-style text.

The JSON form is what CI archives per commit (perf trajectory); the text
form is what ``repro trace`` prints — one indented tree per correlation id,
each line showing the span's interval on the simulated clock, its duration,
verdict and attributes, e.g.::

    trace corr-1
    └─ master.run_graph                   [0.00 → 12.00]  12.00s ok
       └─ master.schedule                 [0.00 →  4.00]   4.00s ok node=n000
          ├─ net.execute                  [0.00 →  1.00]   1.00s ok
          ├─ client.execute               [1.00 →  1.00]   0.00s ok
          │  └─ stack.mediate             [1.00 →  1.00]   0.00s allow
          └─ net.result                   [1.00 →  2.00]   1.00s ok
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Iterable

from repro.obs.trace import Span, spans_to_dicts
from repro.util.text import format_table

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability
    from repro.obs.metrics import MetricsRegistry


def metrics_to_dict(registry: "MetricsRegistry") -> dict[str, Any]:
    """Serialise a metrics registry (sorted by instrument name)."""
    return registry.snapshot()


def export_bundle(obs: "Observability") -> dict[str, Any]:
    """The full observability state of one run as plain data."""
    return {
        "clock": obs.clock.now(),
        "trace": spans_to_dicts(obs.tracer.spans),
        "metrics": metrics_to_dict(obs.metrics),
    }


def export_json(obs: "Observability", indent: int = 2) -> str:
    """The bundle as a JSON document."""
    return json.dumps(export_bundle(obs), indent=indent, sort_keys=False)


# -- text rendering --------------------------------------------------------


def _format_attributes(span: Span) -> str:
    parts = [f"{key}={value}" for key, value in span.attributes.items()]
    return " ".join(parts)


def _render_span(span: Span, children: dict[str | None, list[Span]],
                 prefix: str, is_last: bool, lines: list[str]) -> None:
    connector = "└─ " if is_last else "├─ "
    end = span.end if span.end is not None else span.start
    duration = span.duration if span.duration is not None else 0.0
    label = f"{prefix}{connector}{span.name}"
    timing = (f"[{span.start:.2f} → {end:.2f}] "
              f"{duration:7.2f}s {span.status}")
    attrs = _format_attributes(span)
    lines.append(f"{label:<44} {timing}" + (f" {attrs}" if attrs else ""))
    child_prefix = prefix + ("   " if is_last else "│  ")
    kids = children.get(span.span_id, [])
    for index, child in enumerate(kids):
        _render_span(child, children, child_prefix,
                     index == len(kids) - 1, lines)


def render_trace(spans: Iterable[Span],
                 correlation_id: str | None = None) -> str:
    """Render spans as one indented tree per correlation id.

    Spans whose parent is unknown locally (remote parents whose side of the
    trace was filtered out) are promoted to roots of their correlation
    group rather than dropped.
    """
    spans = [s for s in spans
             if correlation_id is None or s.correlation_id == correlation_id]
    if not spans:
        return "(no spans)"
    known = {s.span_id for s in spans}
    children: dict[str | None, list[Span]] = {}
    for span in sorted(spans, key=lambda s: (s.start, s.span_id)):
        parent = span.parent_id if span.parent_id in known else None
        children.setdefault(parent, []).append(span)
    lines: list[str] = []
    by_correlation: dict[str, list[Span]] = {}
    for root in children.get(None, []):
        by_correlation.setdefault(root.correlation_id, []).append(root)
    for corr, roots in by_correlation.items():
        lines.append(f"trace {corr}")
        for index, root in enumerate(roots):
            _render_span(root, children, "", index == len(roots) - 1, lines)
    return "\n".join(lines)


def render_metrics(registry: "MetricsRegistry") -> str:
    """Render a registry as a table: one row per instrument."""
    rows = []
    for instrument in registry:
        data = instrument.as_dict()
        if data["type"] == "histogram":
            if data["count"]:
                value = (f"n={data['count']} mean={data['mean']:.3f} "
                         f"p95={data['p95']:.3f} max={data['max']:.3f}")
            else:
                value = "n=0"
        else:
            value = str(data["value"])
        rows.append((data["name"], data["type"], value))
    if not rows:
        return "(no metrics)"
    return format_table(["Metric", "Type", "Value"], rows)
