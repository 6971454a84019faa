"""Counters, gauges and histograms on the simulated clock.

Instruments are named (dotted names, e.g. ``keynote.memo.hit``) and created
lazily through a :class:`MetricsRegistry`.  Every update is stamped with the
registry clock's current simulated time, so the metrics line up with trace
spans and audit records from the same run.  Every instrument takes constant
memory however long it is fed: a histogram keeps fixed logarithmic buckets,
not its samples.
"""

from __future__ import annotations

import math
from typing import Any, Iterator

from repro.util.clock import SimulatedClock


class Counter:
    """A monotonically increasing count.

    >>> c = Counter("requests")
    >>> _ = c.inc(); _ = c.inc(2)
    >>> c.value
    3
    """

    def __init__(self, name: str, clock: SimulatedClock | None = None) -> None:
        self.name = name
        self.clock = clock or SimulatedClock()
        self.value = 0
        self.updated_at: float | None = None

    def inc(self, amount: int = 1) -> int:
        """Add ``amount`` (must be non-negative); returns the new value."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount
        self.updated_at = self.clock.now()
        return self.value

    def as_dict(self) -> dict[str, Any]:
        return {"type": "counter", "name": self.name, "value": self.value,
                "updated_at": self.updated_at}


class Gauge:
    """A value that can move both ways (pool sizes, queue depths)."""

    def __init__(self, name: str, clock: SimulatedClock | None = None) -> None:
        self.name = name
        self.clock = clock or SimulatedClock()
        self.value: float = 0.0
        self.updated_at: float | None = None

    def set(self, value: float) -> float:
        self.value = float(value)
        self.updated_at = self.clock.now()
        return self.value

    def add(self, delta: float) -> float:
        return self.set(self.value + delta)

    def as_dict(self) -> dict[str, Any]:
        return {"type": "gauge", "name": self.name, "value": self.value,
                "updated_at": self.updated_at}


#: logarithmic histogram buckets per doubling of the observed value
BUCKETS_PER_OCTAVE = 16
#: the relative error bound of a histogram percentile: a bucket spans a
#: factor of ``2 ** (1 / BUCKETS_PER_OCTAVE)``
PERCENTILE_ERROR = 2 ** (1 / BUCKETS_PER_OCTAVE) - 1
#: shifts the bucket index of every finite non-zero float above 0, so
#: bucket keys sort as their values do (negative values mirror below 0)
_KEY_OFFSET = 20000
#: the bucket of infinite (and NaN) observations, beyond every finite one
_OVERFLOW_KEY = 2 * _KEY_OFFSET


def _bucket_key(value: float) -> int:
    """The sortable key of ``value``'s bucket: 0 for zero, positive above
    it and negative below, :data:`BUCKETS_PER_OCTAVE` buckets a doubling."""
    if value == 0:
        return 0
    if math.isfinite(value):
        key = (math.floor(math.log2(abs(value)) * BUCKETS_PER_OCTAVE)
               + _KEY_OFFSET)
    else:
        key = _OVERFLOW_KEY
    return key if value > 0 else -key


class Histogram:
    """A distribution of observations in constant memory.

    The count, total, minimum and maximum are exact.  Each observation also
    lands in a fixed logarithmic bucket (:data:`BUCKETS_PER_OCTAVE` per
    doubling; zero and negative values have buckets of their own) that
    keeps a count and a sum, and a percentile is the mean of the bucket
    holding its nearest rank.  That is exact when the bucket holds one
    distinct value (small integers such as depths or batch sizes always
    do), and otherwise lies within the bucket: less than
    :data:`PERCENTILE_ERROR` (4.4%) from the exact nearest-rank value.
    Memory grows with the number of buckets in use, which the range of
    the values bounds, never with the number of observations.
    ``updated_at`` is the clock time of the last observation.

    >>> h = Histogram("latency")
    >>> for v in (1.0, 2.0, 3.0):
    ...     _ = h.observe(v)
    >>> h.count, h.mean(), h.percentile(50)
    (3, 2.0, 2.0)
    """

    def __init__(self, name: str, clock: SimulatedClock | None = None) -> None:
        self.name = name
        self.clock = clock or SimulatedClock()
        self.count = 0
        self._total = 0.0
        self._min = math.nan
        self._max = math.nan
        #: bucket key -> [observations, their sum]
        self._buckets: dict[int, list] = {}
        self.updated_at: float | None = None

    def observe(self, value: float) -> float:
        number = float(value)
        if not self.count or number < self._min:
            self._min = number
        if not self.count or number > self._max:
            self._max = number
        self.count += 1
        self._total += number
        key = _bucket_key(number)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [1, number]
        else:
            bucket[0] += 1
            bucket[1] += number
        self.updated_at = self.clock.now()
        return value

    def total(self) -> float:
        return self._total

    def minimum(self) -> float:
        return self._min

    def maximum(self) -> float:
        return self._max

    def mean(self) -> float:
        if not self.count:
            return math.nan
        return self._total / self.count

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``0 <= p <= 100``, read from the
        buckets (see the class docstring for its error)."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self.count:
            return math.nan
        rank = max(1, math.ceil(p / 100 * self.count))
        seen = 0
        for key in sorted(self._buckets):
            observations, total = self._buckets[key]
            seen += observations
            if seen >= rank:
                # The mean of a bucket lies within it; clamping keeps the
                # extreme ranks exact.
                return min(self._max, max(self._min, total / observations))
        return self._max  # pragma: no cover - the ranks sum to count

    def as_dict(self) -> dict[str, Any]:
        summary = {"type": "histogram", "name": self.name,
                   "count": self.count}
        if self.count:
            summary.update(
                total=self.total(), min=self.minimum(), max=self.maximum(),
                mean=self.mean(), p50=self.percentile(50),
                p95=self.percentile(95), p99=self.percentile(99),
                updated_at=self.updated_at)
        return summary


class MetricsRegistry:
    """Lazily creates and holds named instruments over one clock.

    Asking for an existing name returns the existing instrument; asking for
    a name already held by a *different* instrument kind raises, so
    ``keynote.memo.hit`` can never silently be both a counter and a gauge.
    """

    def __init__(self, clock: SimulatedClock | None = None) -> None:
        self.clock = clock or SimulatedClock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind: type) -> Any:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(name, self.clock)
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {kind.__name__}")
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def time(self, name: str):
        """Context manager observing the block's simulated duration into
        histogram ``name`` (zero when nothing advanced the clock)."""
        return _HistogramTimer(self.histogram(name), self.clock)

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def get(self, name: str) -> "Counter | Gauge | Histogram | None":
        return self._instruments.get(name)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Name -> serialised instrument, sorted by name."""
        return {name: self._instruments[name].as_dict()
                for name in self.names()}

    def reset(self) -> None:
        """Forget every instrument (callers re-create them lazily)."""
        self._instruments.clear()

    def __iter__(self) -> Iterator["Counter | Gauge | Histogram"]:
        return iter(self._instruments[name] for name in self.names())

    def __len__(self) -> int:
        return len(self._instruments)


class _HistogramTimer:
    def __init__(self, histogram: Histogram, clock: SimulatedClock) -> None:
        self.histogram = histogram
        self.clock = clock
        self.started_at: float | None = None

    def __enter__(self) -> "_HistogramTimer":
        self.started_at = self.clock.now()
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        assert self.started_at is not None
        self.histogram.observe(self.clock.now() - self.started_at)
