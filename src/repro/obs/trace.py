"""Deterministic structured tracing: spans, events, and the collector.

The serving stack spans request -> router -> iteration scheduler ->
sharded engine -> the four ``stage.*`` spans of one noisy
:meth:`~repro.core.dptc.DPTC.matmul`, and "where did the p99 go" needs
one request followed across all of them.  :class:`Tracer` emits nested
:class:`Span` trees with attributes and timestamped events; every
timestamp comes from an injected clock, so under a
:class:`~repro.serving.clock.SimulatedClock` the whole tree — ids,
parent links, times, event order — is a pure function of the workload
and therefore byte-for-byte reproducible across reruns.

Design rules that keep the layer big-but-safe:

* **Disabled by default, one code path.**  Every instrumented call
  site reads the ambient tracer (:func:`current_tracer`) or its
  constructor-wired one, which is the :data:`NULL_TRACER` singleton
  unless a real tracer was activated or passed in.  Instrumented layers
  have a single body that always calls its tracer: the null tracer
  hands out the inert, shared :data:`NULL_SPAN` (also its own no-op
  context manager), so disabled tracing costs a few method calls per
  instrumented operation and never changes what is computed.
* **The null tracer never shadows a real one.**
  ``NULL_TRACER.activate()`` leaves the ambient tracer and span in
  place, so a :class:`Tracer` activated around an untraced engine still
  records the sharded-core and stage spans beneath it.
* **Caller-thread id assignment.**  Span ids are allocated sequentially
  under the tracer lock.  Single-threaded regimes (manual-mode engines,
  sharded engines in their default core-order schedule) therefore
  produce identical id sequences on every run; the export layer
  additionally sorts by id, so dumps are stable wherever creation order
  is.
* **Explicit parents cross threads.**  The ambient current span is a
  ``contextvars`` binding, which does not follow work onto pool
  threads; instrumentation that fans out (a ``parallel=True`` sharded
  engine's cores) captures the parent span on the caller thread and
  passes it explicitly (``tracer.span(..., parent=span)`` or
  :meth:`Tracer.activate`).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass(frozen=True)
class SpanEvent:
    """One timestamped point event inside a span."""

    name: str
    time: float
    attrs: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"name": self.name, "time": self.time, "attrs": dict(self.attrs)}


class Span:
    """One timed operation in the trace tree.

    Spans are mutable while open (attributes and events accumulate) and
    frozen by convention once :meth:`Tracer.end` stamps ``end``.  The
    tracer reference exists so :meth:`add_event` can read the injected
    clock; it is not part of the serialized form.
    """

    __slots__ = (
        "span_id", "parent_id", "name", "start", "end", "attrs", "events",
        "_tracer",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        name: str,
        start: float,
        tracer: "Tracer",
        attrs: dict[str, Any] | None = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: float | None = None
        self.attrs: dict[str, Any] = dict(attrs) if attrs else {}
        self.events: list[SpanEvent] = []
        self._tracer = tracer

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def add_event(self, name: str, **attrs: Any) -> None:
        """Record a point event at the tracer clock's current instant."""
        self.events.append(SpanEvent(name, self._tracer.now(), attrs))

    def as_dict(self) -> dict:
        """JSON-able form (stable key order for byte-stable dumps)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end if self.end is not None else self.start,
            "attrs": dict(self.attrs),
            "events": [event.as_dict() for event in self.events],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.span_id}, {self.name!r}, parent={self.parent_id})"


class _NullSpan:
    """Inert span handle: every write is a no-op, safely shareable."""

    __slots__ = ()
    span_id = -1
    parent_id = None
    name = "null"
    start = 0.0
    end = 0.0
    attrs: dict[str, Any] = {}
    events: list[SpanEvent] = []

    def set_attr(self, key: str, value: Any) -> None:
        pass

    def add_event(self, name: str, **attrs: Any) -> None:
        pass

    def as_dict(self) -> dict:
        return {}

    # The null span doubles as the null tracer's ``span()`` context.
    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


NULL_SPAN = _NullSpan()


class SpanCollector:
    """Thread-safe in-memory sink of finished (and still-open) spans.

    Spans register at *creation* so an un-ended span (crash, abandoned
    handle) is still visible in the dump.  :meth:`spans` returns them
    sorted by span id — creation order under the tracer lock — so the
    export is stable even when pool threads finished out of order.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: list[Span] = []

    def add(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def on_end(self, span: Span) -> None:
        """Called by the tracer when a span's end is first stamped.

        A no-op here (the collector already holds the span); streaming
        sinks (:class:`~repro.obs.stream.StreamingSpanWriter`) override
        it to serialize the finished span and drop it from memory.
        """

    def spans(self) -> list[Span]:
        with self._lock:
            return sorted(self._spans, key=lambda span: span.span_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def roots(self) -> list[Span]:
        """Spans with no parent, in id order."""
        return [span for span in self.spans() if span.parent_id is None]

    def children_of(self, span_id: int) -> list[Span]:
        return [span for span in self.spans() if span.parent_id == span_id]

    def find(self, name: str) -> list[Span]:
        """Spans with the given name, in id order."""
        return [span for span in self.spans() if span.name == name]


class _MonotonicClock:
    """Fallback clock when none is injected (wall-clock tracing)."""

    real = True

    @staticmethod
    def now() -> float:
        return time.monotonic()


class Tracer:
    """Clock-injected span factory reporting into a collector.

    Args:
        clock: any object with ``now() -> float`` (the engine's
            :class:`~repro.serving.clock.SimulatedClock` for
            deterministic traces); wall-clock monotonic time by default.
        collector: sink for created spans; a fresh
            :class:`SpanCollector` by default.
    """

    def __init__(self, clock=None, collector: SpanCollector | None = None) -> None:
        self.clock = clock if clock is not None else _MonotonicClock()
        self.collector = collector if collector is not None else SpanCollector()
        self._lock = threading.Lock()
        self._next_id = 0

    def now(self) -> float:
        return self.clock.now()

    def start_span(
        self,
        name: str,
        *,
        parent: Span | None = None,
        **attrs: Any,
    ) -> Span:
        """Open a span (caller ends it via :meth:`end`).

        The parent defaults to the ambient current span of *this
        context* — pass ``parent=`` explicitly when crossing threads.
        """
        if parent is None:
            parent = _current_span.get()
        parent_id = parent.span_id if isinstance(parent, Span) else None
        start = self.clock.now()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(span_id, parent_id, name, start, self, attrs)
        self.collector.add(span)
        return span

    def end(self, span: Span) -> None:
        """Stamp the span's end time (idempotent keeps the first stamp).

        The first stamp also notifies the collector (``on_end``), the
        hook streaming sinks flush on; repeated ends stay no-ops so a
        span is never exported twice.
        """
        if isinstance(span, Span) and span.end is None:
            span.end = self.clock.now()
            on_end = getattr(self.collector, "on_end", None)
            if on_end is not None:
                on_end(span)

    @contextmanager
    def span(
        self,
        name: str,
        *,
        parent: Span | None = None,
        **attrs: Any,
    ) -> Iterator[Span]:
        """Context manager: open a span and make it the ambient current.

        Nested :meth:`span`/:meth:`start_span` calls in the same context
        parent under it automatically; the previous current span is
        restored on exit.
        """
        span = self.start_span(name, parent=parent, **attrs)
        token = _current_span.set(span)
        try:
            yield span
        finally:
            _current_span.reset(token)
            self.end(span)

    def event(self, name: str, **attrs: Any) -> None:
        """Add an event to the ambient current span (no-op without one)."""
        span = _current_span.get()
        if isinstance(span, Span):
            span.add_event(name, **attrs)

    @contextmanager
    def activate(self, parent: Span | None = None) -> Iterator["Tracer"]:
        """Make this tracer (and optionally ``parent``) ambient.

        Instrumented layers that are not constructor-wired (the sharded
        engine, the DPTC stages) discover the tracer through
        :func:`current_tracer`; this is how an engine or a CLI verb
        turns tracing on for everything beneath it — including pool
        threads, where the caller re-activates with the captured parent.
        """
        tracer_token = _current_tracer.set(self)
        span_token = _current_span.set(parent) if parent is not None else None
        try:
            yield self
        finally:
            if span_token is not None:
                _current_span.reset(span_token)
            _current_tracer.reset(tracer_token)


class NullTracer:
    """The default no-op tracer: tracing off, near-zero overhead.

    Shares the interface of :class:`Tracer`; every span it hands out is
    the inert :data:`NULL_SPAN` and nothing is recorded.  :meth:`span`
    and :meth:`activate` return shared no-op context objects (no
    generator frame per call), and :meth:`activate` leaves whatever
    tracer is already ambient in place.
    """

    collector = None

    def now(self) -> float:
        return 0.0

    def start_span(self, name: str, *, parent=None, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def end(self, span) -> None:
        pass

    def span(self, name: str, *, parent=None, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def activate(self, parent=None) -> "NullTracer":
        """A no-op context: an already-active ambient tracer stays."""
        return self

    def __enter__(self) -> "NullTracer":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


#: The process-wide default: tracing disabled.
NULL_TRACER = NullTracer()

_current_tracer: ContextVar["Tracer | NullTracer"] = ContextVar(
    "repro_obs_tracer", default=NULL_TRACER
)
_current_span: ContextVar[Span | None] = ContextVar(
    "repro_obs_span", default=None
)


def current_tracer() -> "Tracer | NullTracer":
    """The ambient tracer (:data:`NULL_TRACER` unless activated)."""
    return _current_tracer.get()


def current_span() -> Span | None:
    """The ambient current span, if any."""
    return _current_span.get()
