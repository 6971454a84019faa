"""Per-layer profile of one traced run.

Turns the launch shim's span dump, the generator's round-trip times, two
``status`` snapshots and process counters into the ``per_layer`` metrics.
Only spans wholly inside the timed window count.  A span's self time is its
duration minus the time its direct child spans cover (mediation is
synchronous, so children never overlap); ``share`` is a function's total
self time over the summed duration of all top-level spans, i.e. of the
daemon time the spans account for.
"""

from __future__ import annotations

from daemon import TRACED

#: traced functions reported as calls/latency/share (recovery runs before
#: the window and is reported as a set-up time instead)
FUNCTIONS = [name for _m, _p, name in TRACED
             if name != "store.durable.recover"]

FUNCTION_STATS = [("calls_per_req", "1/req"), ("us_p50", "us"),
                  ("self_us_p50", "us"), ("share", "ratio")]

EXTRA = [
    ("serve.wire.us_p50", "us", "lower"),
    ("webcom.stack.cache.hit_ratio", "ratio", "higher"),
    ("webcom.stack.cache.invalidated", "count", "lower"),
    ("webcom.stack.cache.entries", "count", "lower"),
    ("keynote.compliance.cache.hit_ratio", "ratio", "higher"),
    ("keynote.compliance.cache.entries", "count", "lower"),
    ("keynote.compliance.cache.selective_evictions", "count", "lower"),
    ("keynote.compliance.cache.full_flushes", "count", "lower"),
    ("crypto.sigverify.misses", "count", "lower"),
    ("process.cpu_us_per_req", "us/req", "lower"),
    ("process.gc.pause_ms_max", "ms", "lower"),
    ("process.gc.pause_ms_total", "ms", "lower"),
    ("process.loop_lag_ms_p99", "ms", "lower"),
    ("generator.cpu_share", "ratio", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("setup.recover_ms", "ms", "lower"),
    ("setup.checker_build_ms", "ms", "lower"),
]

#: (name, unit, better) of every per-layer metric, in output order
CATALOGUE = [(f"{fn}.{stat}", unit, "lower")
             for fn in FUNCTIONS for stat, unit in FUNCTION_STATS] + EXTRA


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(dump: dict, window: tuple[int, int], rtt: dict[str, int],
                  status: tuple[dict, dict], daemon_cpu_ns: int,
                  generator_share: float) -> dict[str, float]:
    """Every :data:`CATALOGUE` metric from one traced run."""
    t0, t1 = window
    spans = dump["spans"]
    child = [0] * len(spans)
    for name, start, end, parent, _req in spans:
        if parent >= 0:
            child[parent] += end - start
    durations: dict[str, list[int]] = {fn: [] for fn in FUNCTIONS}
    selfs: dict[str, list[int]] = {fn: [] for fn in FUNCTIONS}
    top_total = 0
    in_window = 0
    plane_span: dict[str, int] = {}
    for index, (name, start, end, parent, req) in enumerate(spans):
        if start < t0 or end > t1 or name not in durations:
            continue
        in_window += 1
        durations[name].append(end - start)
        selfs[name].append(end - start - child[index])
        if parent < 0:
            top_total += end - start
        if name == "serve.plane.mediate" and req is not None:
            plane_span[req] = end - start
    requests = max(1, len(durations["serve.protocol.decode_frame"]))
    metrics: dict[str, float] = {}
    for fn in FUNCTIONS:
        metrics[f"{fn}.calls_per_req"] = len(durations[fn]) / requests
        metrics[f"{fn}.us_p50"] = percentile(durations[fn], 0.5) / 1e3
        metrics[f"{fn}.self_us_p50"] = percentile(selfs[fn], 0.5) / 1e3
        metrics[f"{fn}.share"] = _ratio(sum(selfs[fn]), top_total)
    wire = [rtt[req] - plane for req, plane in plane_span.items()
            if req in rtt]
    metrics["serve.wire.us_p50"] = percentile(wire, 0.5) / 1e3

    before, after = status
    stack0, stack1 = before["plane"]["cache"], after["plane"]["cache"]
    tm0 = before["plane"]["tm_cache"] or {}
    tm1 = after["plane"]["tm_cache"] or {}

    def delta(a: dict, b: dict, key: str) -> int:
        return b.get(key, 0) - a.get(key, 0)

    metrics["webcom.stack.cache.hit_ratio"] = _ratio(
        delta(stack0, stack1, "hits"),
        delta(stack0, stack1, "hits") + delta(stack0, stack1, "misses"))
    metrics["webcom.stack.cache.invalidated"] = delta(stack0, stack1,
                                                      "invalidated")
    metrics["webcom.stack.cache.entries"] = stack1["entries"]
    metrics["keynote.compliance.cache.hit_ratio"] = _ratio(
        delta(tm0, tm1, "hits"),
        delta(tm0, tm1, "hits") + delta(tm0, tm1, "misses"))
    metrics["keynote.compliance.cache.entries"] = tm1.get("entries", 0)
    metrics["keynote.compliance.cache.selective_evictions"] = delta(
        tm0, tm1, "selective_evictions")
    metrics["keynote.compliance.cache.full_flushes"] = delta(
        tm0, tm1, "full_flushes")
    metrics["crypto.sigverify.misses"] = sum(
        1 for at in dump["sig_misses"] if t0 <= at <= t1)

    metrics["process.cpu_us_per_req"] = daemon_cpu_ns / 1e3 / requests
    pauses = [end - start for start, end in dump["gc"]
              if start >= t0 and end <= t1]
    metrics["process.gc.pause_ms_max"] = max(pauses, default=0) / 1e6
    metrics["process.gc.pause_ms_total"] = sum(pauses) / 1e6
    metrics["process.loop_lag_ms_p99"] = percentile(
        [lag for at, lag in dump["lag"] if t0 <= at <= t1], 0.99) / 1e6
    metrics["generator.cpu_share"] = generator_share
    metrics["trace.overhead_pct"] = 100.0 * _ratio(
        in_window * dump["span_cost_ns"], daemon_cpu_ns)

    recover = [end - start for name, start, end, _p, _r in spans
               if name == "store.durable.recover"]
    builds = [end - start for name, start, end, _p, _r in spans
              if name == "keynote.compliance.__init__"]
    metrics["setup.recover_ms"] = recover[0] / 1e6 if recover else 0.0
    metrics["setup.checker_build_ms"] = builds[0] / 1e6 if builds else 0.0
    return metrics
