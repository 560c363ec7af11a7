"""Flight recorder: a bounded ring of recent telemetry + postmortems.

Production incidents are diagnosed from what happened *just before*
the failure, but streaming export may have sampled those spans away
and the full collector may be unbounded.  :class:`FlightRecorder`
keeps a fixed-size ring buffer (``collections.deque(maxlen=...)``) of
the most recent finished spans and annotated events, costing O(capacity)
memory forever, and freezes a **postmortem bundle** — recent spans,
recent events, an optional :class:`~repro.obs.registry.MetricsRegistry`
snapshot, and caller context — whenever a failure trigger fires.

The serving stack wires the triggers in: a doomed session or a
:class:`~repro.serving.request.ServingError` inside
:class:`~repro.serving.engine.ServingEngine`, and a failed replica in
:class:`~repro.cluster.cluster.ServingCluster` (``fail_replica()`` —
fault injection is a first-class observability scenario).  Everything
is clock-injected, so under a
:class:`~repro.serving.clock.SimulatedClock` the bundle contents are a
deterministic function of the workload.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from pathlib import Path
from typing import Any

from repro.obs.trace import Span, _MonotonicClock

__all__ = ["FlightRecorder"]


class FlightRecorder:
    """Fixed-capacity ring of recent spans/events with bundle dumps.

    The recorder is a collector sink (``add``/``on_end``) so it can ride
    behind a tracer via :class:`~repro.obs.stream.FanoutSink`, *and* a
    standalone event log (:meth:`note`) for layers that run untraced —
    the engine and cluster call ``note`` directly, so postmortems work
    with tracing off.

    Args:
        capacity: ring size for spans and events (each).
        clock: ``now() -> float`` time source; wall monotonic default.
        dump_dir: when set, every :meth:`trigger` also writes
            ``postmortem-<seq>.json`` here (directory created lazily).
    """

    def __init__(
        self,
        *,
        capacity: int = 256,
        clock=None,
        dump_dir: str | Path | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.clock = clock if clock is not None else _MonotonicClock()
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self._lock = threading.Lock()
        self._spans: deque[dict] = deque(maxlen=capacity)
        self._events: deque[dict] = deque(maxlen=capacity)
        #: Every frozen bundle, in trigger order.
        self.bundles: list[dict] = []
        #: Paths of bundles written to ``dump_dir``.
        self.dumped: list[Path] = []

    # -- collector sink interface ---------------------------------------------
    def add(self, span: Span) -> None:
        """Span creation: nothing to record until it finishes."""

    def on_end(self, span: Span) -> None:
        """Ring-buffer the finished span's serialized form."""
        snapshot = span.as_dict()
        with self._lock:
            self._spans.append(snapshot)

    # -- event log ------------------------------------------------------------
    def note(self, name: str, **attrs: Any) -> None:
        """Record one annotated event at the clock's current instant."""
        event = {"name": name, "time": self.clock.now(), "attrs": attrs}
        with self._lock:
            self._events.append(event)

    # -- postmortems ----------------------------------------------------------
    def trigger(
        self,
        reason: str,
        *,
        registry=None,
        snapshot: dict | None = None,
        **context: Any,
    ) -> dict:
        """Freeze a postmortem bundle (and dump it, when configured).

        Args:
            reason: what fired (``"replica_failed"``, ``"doomed_session"``,
                ``"serving_error"``, ...).
            registry: optional :class:`MetricsRegistry` whose
                ``snapshot()`` is embedded.
            snapshot: optional extra state dict (e.g. the cluster's
                fleet snapshot).
            context: free-form JSON-able details (ids, error names).
        """
        with self._lock:
            sequence = len(self.bundles)
            bundle = {
                "reason": reason,
                "time": self.clock.now(),
                "sequence": sequence,
                "context": dict(context),
                "spans": list(self._spans),
                "events": list(self._events),
                "registry": registry.snapshot() if registry is not None else None,
                "snapshot": snapshot,
            }
            self.bundles.append(bundle)
        if self.dump_dir is not None:
            self.dump_dir.mkdir(parents=True, exist_ok=True)
            path = self.dump_dir / f"postmortem-{sequence:03d}.json"
            path.write_text(json.dumps(bundle, indent=2, sort_keys=True))
            with self._lock:
                self.dumped.append(path)
        return bundle

    # -- introspection --------------------------------------------------------
    def recent_spans(self) -> list[dict]:
        with self._lock:
            return list(self._spans)

    def recent_events(self) -> list[dict]:
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        """Drop ring contents (bundles already frozen are kept)."""
        with self._lock:
            self._spans.clear()
            self._events.clear()

    def attach(self, tracer) -> None:
        """Tee this recorder behind an existing tracer's collector."""
        from repro.obs.stream import FanoutSink

        tracer.collector = FanoutSink(tracer.collector, self)
