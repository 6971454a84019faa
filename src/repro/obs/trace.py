"""Spans and tracers.

A :class:`Span` is one timed operation on the simulated clock; spans nest
through ``parent_id`` and group into end-to-end stories through
``correlation_id``.  The :class:`Tracer` keeps an active-span stack so that
code deep inside a decision path (a compliance-checker query inside a stack
mediation inside a client execute) parents itself correctly without any
plumbing: whatever span is currently open is the implicit parent, and its
correlation id is inherited.

Remote parenting is explicit: WebCom messages carry ``correlation_id`` and
``span_id`` in their payload, and the receiving side opens its span with
those as ``correlation_id=`` / ``parent_id=``, stitching the two processes'
work into one trace even though (in a real deployment) they would not share
an active-span stack.

Ids are deterministic (per-prefix counters), so traces are byte-for-byte
reproducible — the same property the simulated network guarantees.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.util.clock import SimulatedClock
from repro.util.ids import IdGenerator


@dataclass
class Span:
    """One timed, attributed operation.

    :param span_id: unique id of this span.
    :param name: operation name, e.g. ``"stack.layer.TRUST_MANAGEMENT"``.
    :param correlation_id: groups every span of one end-to-end story.
    :param parent_id: the enclosing span, or None for a root.
    :param start: simulated time the operation began.
    :param end: simulated time it finished (None while open).
    :param status: ``"ok"`` / ``"error"`` / free-form verdicts.
    :param attributes: structured payload (verdicts, node ids, op names...).
    """

    span_id: str
    name: str
    correlation_id: str
    parent_id: str | None
    start: float
    end: float | None = None
    status: str = "ok"
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float | None:
        """Elapsed simulated seconds, or None while the span is open."""
        if self.end is None:
            return None
        return self.end - self.start

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes; returns self for chaining."""
        self.attributes.update(attributes)
        return self


class Tracer:
    """Creates, nests and stores spans on a simulated clock.

    >>> tracer = Tracer()
    >>> with tracer.span("outer") as outer:
    ...     with tracer.span("inner") as inner:
    ...         pass
    >>> inner.parent_id == outer.span_id
    True
    >>> inner.correlation_id == outer.correlation_id
    True
    """

    def __init__(self, clock: SimulatedClock | None = None) -> None:
        self.clock = clock or SimulatedClock()
        self.spans: list[Span] = []
        #: off for a tracer nobody reads back (the serve daemon's): callers
        #: then open no spans, and only :meth:`collect` keeps any
        self.recording = True
        self._ids = IdGenerator()
        self._stack: list[Span] = []

    # -- context ----------------------------------------------------------

    def current(self) -> Span | None:
        """The innermost open span, or None outside any span."""
        return self._stack[-1] if self._stack else None

    def new_correlation_id(self) -> str:
        """Mint a fresh correlation id for a new end-to-end story."""
        return self._ids.next("corr")

    # -- span lifecycle ---------------------------------------------------

    def start(self, name: str, *, correlation_id: str | None = None,
              parent_id: str | None = None, **attributes: Any) -> Span:
        """Open a span (manual lifecycle; prefer :meth:`span`).

        The parent defaults to the currently open span and the correlation
        id to the parent's (or a fresh one for a root).  Pass both
        explicitly to parent onto a *remote* span carried in a message
        payload.
        """
        parent = self.current()
        if parent_id is None and parent is not None:
            parent_id = parent.span_id
        if correlation_id is None:
            correlation_id = (parent.correlation_id if parent is not None
                              else self.new_correlation_id())
        span = Span(span_id=self._ids.next("span"), name=name,
                    correlation_id=correlation_id, parent_id=parent_id,
                    start=self.clock.now(), attributes=dict(attributes))
        if self.recording:
            self.spans.append(span)
        self._stack.append(span)
        return span

    def finish(self, span: Span, status: str | None = None) -> Span:
        """Close a span (stamps ``end``; pops it if it is the innermost)."""
        span.end = self.clock.now()
        if status is not None:
            span.status = status
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        return span

    @contextmanager
    def span(self, name: str, *, correlation_id: str | None = None,
             parent_id: str | None = None,
             **attributes: Any) -> Iterator[Span]:
        """Open a span for the duration of a ``with`` block.

        An escaping exception marks the span ``status="error"`` with the
        exception's repr attached.
        """
        opened = self.start(name, correlation_id=correlation_id,
                            parent_id=parent_id, **attributes)
        try:
            yield opened
        except BaseException as exc:
            opened.status = "error"
            opened.attributes.setdefault("error", repr(exc))
            raise
        finally:
            self.finish(opened, status=opened.status)

    def record(self, name: str, start: float, end: float, *,
               correlation_id: str | None = None,
               parent_id: str | None = None, status: str = "ok",
               **attributes: Any) -> Span:
        """Record an already-elapsed span retroactively.

        The simulated network uses this: a message's flight time is only
        known at delivery, so the ``net.*`` span is recorded after the fact
        with ``start=sent_at`` / ``end=arrives_at``.
        """
        span = Span(span_id=self._ids.next("span"), name=name,
                    correlation_id=correlation_id or self.new_correlation_id(),
                    parent_id=parent_id, start=start, end=end, status=status,
                    attributes=dict(attributes))
        if self.recording:
            self.spans.append(span)
        return span

    @contextmanager
    def collect(self) -> Iterator[list[Span]]:
        """Record the block's spans, even while not :attr:`recording`, into
        a fresh list the caller owns; :attr:`spans` is left as it was."""
        saved = self.spans, self.recording
        self.spans, self.recording = [], True
        try:
            yield self.spans
        finally:
            self.spans, self.recording = saved

    # -- queries ----------------------------------------------------------

    def find(self, name: str | None = None,
             correlation_id: str | None = None) -> list[Span]:
        """Spans matching every given filter, in start order."""
        return [s for s in self.spans
                if (name is None or s.name == name)
                and (correlation_id is None
                     or s.correlation_id == correlation_id)]

    def correlations(self) -> list[str]:
        """Distinct correlation ids, in first-seen order."""
        seen: dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.correlation_id)
        return list(seen)

    def reset(self) -> None:
        """Drop recorded spans (open spans on the stack are kept live)."""
        self.spans = list(self._stack)

    def __len__(self) -> int:
        return len(self.spans)


def spans_to_dicts(spans: Iterable[Span]) -> list[dict[str, Any]]:
    """Serialise spans (start order preserved)."""
    return [{
        "span_id": s.span_id,
        "name": s.name,
        "correlation_id": s.correlation_id,
        "parent_id": s.parent_id,
        "start": s.start,
        "end": s.end,
        "duration": s.duration,
        "status": s.status,
        "attributes": dict(s.attributes),
    } for s in spans]
