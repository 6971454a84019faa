"""Audit trail.

Every security decision in the framework (trust-management queries, middleware
access checks, KeyCOM updates, scheduling decisions) can be recorded in an
:class:`AuditLog`.  The log is append-only and queryable, which the
integration tests and the Figure-9 benchmark use to assert *which* layer made
each decision.  A log built with a ``capacity`` keeps only that many of the
newest records in memory; listeners still see every record.
"""

from __future__ import annotations

from collections import deque
from types import MappingProxyType
from typing import Any, Callable, Iterator, Mapping, NamedTuple


class AuditRecord(NamedTuple):
    """A single audit event (immutable).

    A named tuple rather than a dataclass: one object per record, cheap to
    build and to free, which a windowed log does once per record.

    :param timestamp: simulated time of the event.
    :param category: event family, e.g. ``"keynote.query"`` or ``"keycom.update"``.
    :param subject: principal or key the event concerns.
    :param outcome: short outcome string, e.g. ``"allow"`` / ``"deny"``.
    :param detail: free-form structured payload.
    """

    timestamp: float
    category: str
    subject: str
    outcome: str
    detail: Mapping[str, Any] = MappingProxyType({})

    def matches(self, *, category: str | None = None, subject: str | None = None,
                outcome: str | None = None) -> bool:
        """Return True if the record matches every given filter."""
        if category is not None and self.category != category:
            return False
        if subject is not None and self.subject != subject:
            return False
        if outcome is not None and self.outcome != outcome:
            return False
        return True


#: builds a record without the named tuple's Python-level ``__new__``
#: (``AuditRecord._make`` does the same): the daemon writes one record per
#: decision
_new_record = tuple.__new__


class AuditLog:
    """Append-only audit log with simple filtering.

    :param capacity: how many of the newest records to keep in memory
        (None, the default, keeps every one).  Every record is still
        written: listeners see each one and :attr:`recorded` counts them
        all; only the queryable window is bounded.

    Readers iterate a snapshot of the window, so a record appended by
    another thread mid-scan cannot break the scan.
    """

    def __init__(self, capacity: int | None = None) -> None:
        self._records: deque[AuditRecord] = deque(maxlen=capacity)
        self._listeners: list[Callable[[AuditRecord], None]] = []
        #: every record ever written, including those the window dropped
        self.recorded = 0

    def record(self, timestamp: float, category: str, subject: str, outcome: str,
               **detail: Any) -> AuditRecord:
        """Append a record and notify listeners."""
        rec = _new_record(AuditRecord, (timestamp, category, subject,
                                        outcome, detail))
        self._records.append(rec)
        self.recorded += 1
        for listener in self._listeners:
            listener(rec)
        return rec

    def subscribe(self, listener: Callable[[AuditRecord], None]) -> None:
        """Register a callback invoked for every new record."""
        self._listeners.append(listener)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[AuditRecord]:
        return iter(tuple(self._records))

    def find(self, *, category: str | None = None, subject: str | None = None,
             outcome: str | None = None) -> list[AuditRecord]:
        """Return all records matching the given filters."""
        return [r for r in tuple(self._records)
                if r.matches(category=category, subject=subject, outcome=outcome)]

    def last(self, *, category: str | None = None) -> AuditRecord | None:
        """Return the most recent record (optionally of a category)."""
        for rec in reversed(tuple(self._records)):
            if category is None or rec.category == category:
                return rec
        return None

    def bind_metrics(self, metrics) -> None:
        """Mirror every future record into ``audit.<category>.<outcome>``
        counters on a :class:`~repro.obs.metrics.MetricsRegistry`.

        This turns the append-only log into live rates: how many denials
        per layer, how many scheduling losses, without re-scanning records.
        """
        def count(record: AuditRecord) -> None:
            metrics.counter(f"audit.{record.category}.{record.outcome}").inc()

        self.subscribe(count)

    def to_dicts(self) -> list[dict[str, Any]]:
        """Serialise all records (for the JSON observability export)."""
        return [{
            "timestamp": r.timestamp,
            "category": r.category,
            "subject": r.subject,
            "outcome": r.outcome,
            "detail": dict(r.detail),
        } for r in tuple(self._records)]

    def clear(self) -> None:
        """Drop all records (listeners stay subscribed; :attr:`recorded`
        keeps counting from where it was)."""
        self._records.clear()
