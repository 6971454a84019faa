"""One tracer and one metrics registry over one simulated clock."""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.util.clock import SimulatedClock


class Observability:
    """One tracer + one metrics registry over one simulated clock.

    This is the object the WebCom environment, network, master, clients and
    sessions all share: because they observe through the same instance, their
    spans interleave into one correlated trace.
    """

    def __init__(self, clock: SimulatedClock | None = None) -> None:
        self.clock = clock or SimulatedClock()
        self.tracer = Tracer(self.clock)
        self.metrics = MetricsRegistry(self.clock)

    def reset(self) -> None:
        """Drop all recorded spans and metric values (the clock runs on)."""
        self.tracer.reset()
        self.metrics.reset()
