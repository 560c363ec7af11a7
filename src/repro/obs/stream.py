"""Streaming span export with deterministic head-based trace sampling.

The in-memory :class:`~repro.obs.trace.SpanCollector` keeps every span
until the run ends — fine for a 12-request demo, unbounded for a
long-lived fleet.  :class:`StreamingSpanWriter` is the bounded-memory
alternative: it implements the collector sink interface (``add`` +
``on_end``), serializes each span's canonical JSONL line the moment the
tracer stamps its end, and drops the span — peak residency is the
number of *open* spans, not the total span count.

Sampling is **head-based and deterministic**: the keep/drop decision is
made once per trace, at its root span, from a stable hash of the root
(``crc32(f"{name}:{span_id}") % rate``) — never from ``hash()``, whose
value changes per process under ``PYTHONHASHSEED``.  Every span of a
kept trace is written; spans of dropped traces are written anyway when
they carry *incident* markers (error/doom/failover/eviction events or
an ``error`` attribute), so sampling can thin a healthy run's bulk
without ever losing the spans a postmortem needs.

Because sampling only filters the emitted lines — span ids, times, and
contents are produced by the tracer exactly as in an unsampled run —
a sampled dump is a strict, deterministic subset of the unsampled dump
of the same seed (``tests/obs/test_stream.py`` pins this).
"""

from __future__ import annotations

import threading
import zlib
from pathlib import Path
from typing import IO

from repro.obs.export import span_line
from repro.obs.trace import Span, SpanCollector

__all__ = [
    "INCIDENT_EVENTS",
    "FanoutSink",
    "StreamingSpanWriter",
    "TraceSampler",
    "is_incident",
    "sampled_lines",
]

#: Span event names that mark a span as incident-bearing: sampling
#: never drops these (they are exactly the events the serving/cluster
#: layers emit on failures, dooms, failovers, and evictions).
INCIDENT_EVENTS = frozenset(
    {
        "abandoned",
        "doom",
        "doomed",
        "evicted",
        "failed",
        "failover",
        "preempt",
        "rejected",
        "replica_failed",
        "retry",
    }
)


def is_incident(span: Span) -> bool:
    """Does this span carry an error/doom/failover marker?"""
    if "error" in span.attrs:
        return True
    return any(event.name in INCIDENT_EVENTS for event in span.events)


class TraceSampler:
    """Deterministic head-based sampling: keep 1-in-``rate`` traces.

    The decision is a pure function of the trace root's identity
    (name and span id), so equal workloads sample identically across
    processes and reruns — no RNG, no ``PYTHONHASHSEED`` sensitivity.
    ``rate=1`` keeps everything.
    """

    def __init__(self, rate: int = 1) -> None:
        if rate < 1:
            raise ValueError(f"sampling rate must be >= 1, got {rate}")
        self.rate = rate

    def keep_trace(self, root: Span) -> bool:
        """Keep the trace rooted at ``root``?"""
        if self.rate == 1:
            return True
        digest = zlib.crc32(f"{root.name}:{root.span_id}".encode())
        return digest % self.rate == 0


class StreamingSpanWriter:
    """Collector-compatible sink that writes spans out as they end.

    Plug it into a tracer (``Tracer(collector=StreamingSpanWriter(...))``)
    and every finished span is immediately serialized to its canonical
    JSONL line and released — the writer retains only the open spans
    plus per-live-trace sampling state.  Output order is *end order*
    (deterministic under a :class:`~repro.serving.clock.SimulatedClock`),
    versus the batch dump's id order; sort lines to compare dumps.

    Args:
        sink: a path (opened for writing, truncated) or a file-like
            object with ``write`` (not closed on :meth:`close` unless
            the writer opened it).
        sampler: optional :class:`TraceSampler`; without one every
            span is written.

    Stats: ``spans_seen`` / ``spans_written`` / ``spans_dropped`` count
    lifetime spans, ``open_spans`` / ``peak_open`` expose the residency
    bound ``tests/obs/test_stream.py`` pins.
    """

    def __init__(
        self,
        sink: str | Path | IO[str],
        *,
        sampler: TraceSampler | None = None,
    ) -> None:
        if hasattr(sink, "write"):
            self._handle: IO[str] = sink  # type: ignore[assignment]
            self._owns_handle = False
            self.path: Path | None = None
        else:
            self.path = Path(sink)
            self._handle = open(self.path, "w")
            self._owns_handle = True
        self.sampler = sampler
        self._lock = threading.Lock()
        self._open: dict[int, Span] = {}
        #: span id -> its trace root's span id, for every live trace.
        self._root_of: dict[int, int] = {}
        #: root id -> member span ids (pruned when the trace finishes).
        self._members: dict[int, list[int]] = {}
        #: root id -> open span count of the trace.
        self._open_in_trace: dict[int, int] = {}
        #: root id -> keep decision (made once, at the root).
        self._keep: dict[int, bool] = {}
        self._ended_roots: set[int] = set()
        self.spans_seen = 0
        self.spans_written = 0
        self.spans_dropped = 0
        self.peak_open = 0
        self._closed = False

    # -- sink interface -------------------------------------------------------
    def add(self, span: Span) -> None:
        """Register an opened span (called by the tracer at creation)."""
        with self._lock:
            self.spans_seen += 1
            # Per-trace bookkeeping only pays off when a sampler needs
            # the root decision; the everything-kept path skips it so
            # streaming costs barely more than collecting (the 1.10x
            # ceiling of tests_nightly/test_wallclock_floors.py).
            if self.sampler is not None:
                root = span.span_id
                if span.parent_id is not None:
                    # A parent outside any live trace (already pruned,
                    # or foreign) orphans the span: it anchors its own
                    # trace.
                    root = self._root_of.get(span.parent_id, span.span_id)
                self._root_of[span.span_id] = root
                self._members.setdefault(root, []).append(span.span_id)
                self._open_in_trace[root] = (
                    self._open_in_trace.get(root, 0) + 1
                )
                if root == span.span_id:
                    self._keep[root] = self.sampler.keep_trace(span)
            self._open[span.span_id] = span
            if len(self._open) > self.peak_open:
                self.peak_open = len(self._open)

    def on_end(self, span: Span) -> None:
        """Serialize and release a finished span (tracer callback)."""
        with self._lock:
            if self._open.pop(span.span_id, None) is None:
                return  # never added here, or already flushed
            self._emit_locked(span)
            if self.sampler is None:
                return
            root = self._root_of[span.span_id]
            if root == span.span_id:
                self._ended_roots.add(root)
            self._open_in_trace[root] -= 1
            if self._open_in_trace[root] == 0 and root in self._ended_roots:
                self._prune_trace_locked(root)

    # -- internals ------------------------------------------------------------
    def _emit_locked(self, span: Span) -> None:
        if self.sampler is None:
            keep = True
        else:
            keep = self._keep.get(self._root_of.get(span.span_id, -1), True)
        if keep or is_incident(span):
            self._handle.write(span_line(span) + "\n")
            self.spans_written += 1
        else:
            self.spans_dropped += 1

    def _prune_trace_locked(self, root: int) -> None:
        for span_id in self._members.pop(root, ()):
            self._root_of.pop(span_id, None)
        self._open_in_trace.pop(root, None)
        self._keep.pop(root, None)
        self._ended_roots.discard(root)

    # -- lifecycle ------------------------------------------------------------
    @property
    def open_spans(self) -> int:
        """Spans currently held (started but not yet ended)."""
        with self._lock:
            return len(self._open)

    def flush(self) -> None:
        with self._lock:
            self._handle.flush()

    def close(self) -> None:
        """Flush still-open spans (in id order) and release the sink.

        Un-ended spans at close (a crash, an abandoned handle) are
        written in their current state — ``end`` serializes as
        ``start`` — so the streamed file loses nothing the in-memory
        collector would have kept.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for span_id in sorted(self._open):
                self._emit_locked(self._open[span_id])
            self._open.clear()
            self._handle.flush()
            if self._owns_handle:
                self._handle.close()

    def __enter__(self) -> "StreamingSpanWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class FanoutSink:
    """Tee one tracer into several collector sinks.

    Composes the in-memory :class:`SpanCollector`, a
    :class:`StreamingSpanWriter`, and a
    :class:`~repro.obs.recorder.FlightRecorder` behind one tracer.
    Reads (``spans``/``__len__``) delegate to the first sink that
    supports them, so exports over the fanout keep working.
    """

    def __init__(self, *sinks) -> None:
        if not sinks:
            raise ValueError("FanoutSink needs at least one sink")
        self.sinks = tuple(sinks)

    def add(self, span: Span) -> None:
        for sink in self.sinks:
            sink.add(span)

    def on_end(self, span: Span) -> None:
        for sink in self.sinks:
            on_end = getattr(sink, "on_end", None)
            if on_end is not None:
                on_end(span)

    def spans(self) -> list[Span]:
        for sink in self.sinks:
            if isinstance(sink, SpanCollector):
                return sink.spans()
        raise TypeError("no SpanCollector among the fanout sinks")

    def __len__(self) -> int:
        for sink in self.sinks:
            if isinstance(sink, SpanCollector):
                return len(sink)
        return 0


def sampled_lines(
    collector: SpanCollector, sampler: TraceSampler
) -> list[str]:
    """The sampled JSONL lines of a finished in-memory collector.

    Applies the same per-trace keep decision and incident override as
    a :class:`StreamingSpanWriter` configured with ``sampler``, over
    spans in id order — so the result is the sorted-line equal of a
    streamed sampled dump and a strict subset of
    :func:`~repro.obs.export.span_lines` for ``rate > 1`` workloads
    with multiple traces.
    """
    spans = collector.spans()
    by_id = {span.span_id: span for span in spans}
    keep: dict[int, bool] = {}
    lines = []
    for span in spans:
        root = span
        while root.parent_id is not None and root.parent_id in by_id:
            root = by_id[root.parent_id]
        decision = keep.get(root.span_id)
        if decision is None:
            decision = sampler.keep_trace(root)
            keep[root.span_id] = decision
        if decision or is_incident(span):
            lines.append(span_line(span))
    return lines
