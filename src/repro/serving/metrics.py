"""Serving observability: throughput, latency percentiles, occupancy.

Every number is derived from request timestamps stamped by the engine's
clock, so under a simulated clock the whole snapshot — including the
p50/p95/p99 latencies — is bit-deterministic and testable without a
single sleep.

:class:`Metrics` sits on the unified
:class:`~repro.obs.registry.MetricsRegistry` substrate: counts,
occupancy series, and latency distributions are registry instruments
(shared naming, JSON snapshot, Prometheus exposition via
:meth:`Metrics.to_prometheus`), while raw :class:`RequestRecord` rows
are kept alongside so percentiles and span throughput stay *exact* —
registry histograms bucket, records don't.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.obs.registry import MetricsRegistry
from repro.serving.request import RequestHandle

#: Percentiles of the latency summaries.
PERCENTILES = (50.0, 95.0, 99.0)


@dataclass(frozen=True)
class RequestRecord:
    """Timing of one completed request."""

    arrival: float
    started: float
    finished: float
    batch_size: int
    cache_hit: bool

    @property
    def latency(self) -> float:
        return self.finished - self.arrival

    @property
    def queue_wait(self) -> float:
        return self.started - self.arrival


def summarize(values: list[float]) -> dict[str, float]:
    """mean/p50/p95/p99 of a latency series (zeros when empty).

    The one summary shape every layer shares: per-engine latency and
    queue-wait summaries here, and the fleet-level aggregates in
    :mod:`repro.cluster.metrics`, so percentiles are always computed the
    same way from raw per-request records.
    """
    if not values:
        return {"mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
    arr = np.asarray(values, dtype=float)
    p50, p95, p99 = np.percentile(arr, PERCENTILES)
    return {
        "mean": float(arr.mean()),
        "p50": float(p50),
        "p95": float(p95),
        "p99": float(p99),
    }


def span_throughput(records) -> float:
    """Completed requests per second of observed span.

    ``records`` need ``arrival`` and ``finished`` attributes; the span
    runs from the earliest arrival to the latest completion, and a
    degenerate span (single instant) reports 0.  Shared by the
    per-engine recorder and the fleet-level
    :class:`repro.cluster.metrics.ClusterMetrics`, so "throughput"
    means the same thing at every layer.
    """
    if not records:
        return 0.0
    span = max(r.finished for r in records) - min(r.arrival for r in records)
    if span <= 0:
        return 0.0
    return len(records) / span


class Metrics:
    """Thread-safe recorder the :class:`ServingEngine` reports into.

    Counts and distributions live in a
    :class:`~repro.obs.registry.MetricsRegistry` (pass one in to share
    it across recorders; a private one is built by default); exact
    per-request rows live in ``_records``.  Exact occupancy histograms
    are labelled counter series (``size="4"``), which keeps them
    lossless across merges.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._lock = threading.Lock()
        self._records: list[RequestRecord] = []
        self.registry = registry if registry is not None else MetricsRegistry()
        self._completed_c = self.registry.counter(
            "serving_requests_completed_total", "Resolved requests"
        )
        self._failed_c = self.registry.counter(
            "serving_requests_failed_total", "Failed requests"
        )
        self._cache_hits_c = self.registry.counter(
            "serving_cache_hits_total", "Requests served from cache"
        )
        self._latency_h = self.registry.histogram(
            "serving_request_latency_seconds", "End-to-end request latency"
        )
        self._queue_wait_h = self.registry.histogram(
            "serving_queue_wait_seconds", "Admission-to-execution wait"
        )

    def _occupancy_counter(self, name: str, size: int):
        return self.registry.counter(
            name, "Exact occupancy histogram (labelled counter)", size=size
        )

    # -- engine side ---------------------------------------------------------
    def record_request(self, handle: RequestHandle) -> None:
        """Record a resolved (successful) request from its handle."""
        record = RequestRecord(
            arrival=handle.arrival,
            started=handle.started if handle.started is not None else handle.arrival,
            finished=handle.finished
            if handle.finished is not None
            else handle.arrival,
            batch_size=handle.batch_size or 0,
            cache_hit=handle.cache_hit,
        )
        self.record(record)

    def record_batch(self, size: int) -> None:
        """Record one executed batch's occupancy."""
        counter = self._occupancy_counter("serving_batches_total", size)
        with self._lock:
            counter.inc()

    def record_iteration(self, active: int) -> None:
        """Record one scheduler iteration's active-session count
        (sessionless fill-in requests count as one lane each)."""
        counter = self._occupancy_counter("serving_iterations_total", active)
        with self._lock:
            counter.inc()

    def record_failures(self, count: int = 1) -> None:
        with self._lock:
            self._failed_c.inc(count)

    def record(self, record: RequestRecord) -> None:
        """Record one already-built :class:`RequestRecord` (merging path)."""
        with self._lock:
            self._records.append(record)
            self._completed_c.inc()
            if record.cache_hit:
                self._cache_hits_c.inc()
            self._latency_h.observe(record.latency)
            self._queue_wait_h.observe(record.queue_wait)

    # -- read side -----------------------------------------------------------
    def records(self) -> list[RequestRecord]:
        """Copy of every completed-request record (aggregation hook)."""
        with self._lock:
            return list(self._records)

    @classmethod
    def merged(cls, parts: "list[Metrics] | tuple[Metrics, ...]") -> "Metrics":
        """One recorder holding every part's records, batches, failures.

        The cluster layer merges per-replica recorders with this to get
        fleet-wide latency and queue-wait percentiles computed from the
        raw records — not averaged from per-replica summaries, which
        would be wrong for percentiles.  Registry families merge too
        (counters and labelled occupancy series sum, so batch *and*
        iteration occupancy histograms are preserved exactly), and the
        edge cases hold: no parts yields an empty recorder, and parts
        holding only failures contribute their failure counts.
        """
        out = cls()
        for part in parts:
            with part._lock:
                out._records.extend(part._records)
                out.registry.merge_from(part.registry)
        return out

    @property
    def completed(self) -> int:
        with self._lock:
            return len(self._records)

    @property
    def failed(self) -> int:
        with self._lock:
            return int(self._failed_c.value)

    @property
    def cache_hits(self) -> int:
        with self._lock:
            return int(self._cache_hits_c.value)

    def throughput(self) -> float:
        """Completed requests per second (see :func:`span_throughput`)."""
        with self._lock:
            records = list(self._records)
        return span_throughput(records)

    def latency_summary(self) -> dict[str, float]:
        with self._lock:
            values = [record.latency for record in self._records]
        return summarize(values)

    def queue_wait_summary(self) -> dict[str, float]:
        with self._lock:
            values = [record.queue_wait for record in self._records]
        return summarize(values)

    def _occupancy_series(self, name: str) -> dict[int, int]:
        series = self.registry.counter_series(name, "size")
        return {
            size: count
            for size, count in sorted(
                (int(value), int(total)) for value, total in series.items()
            )
        }

    def batch_occupancy(self) -> dict[int, int]:
        """Histogram: batch size -> number of batches executed."""
        return self._occupancy_series("serving_batches_total")

    def mean_occupancy(self) -> float:
        occupancy = self.batch_occupancy()
        total = sum(size * n for size, n in occupancy.items())
        batches = sum(occupancy.values())
        return total / batches if batches else 0.0

    def iteration_occupancy(self) -> dict[int, int]:
        """Histogram: active lanes -> scheduler iterations executed.

        The iteration-level counterpart of :meth:`batch_occupancy`.
        Every executed batch is one iteration in both scheduler modes,
        so the two agree unless a batch fails.
        """
        return self._occupancy_series("serving_iterations_total")

    def mean_iteration_occupancy(self) -> float:
        occupancy = self.iteration_occupancy()
        total = sum(size * n for size, n in occupancy.items())
        iterations = sum(occupancy.values())
        return total / iterations if iterations else 0.0

    def to_prometheus(self) -> str:
        """Prometheus text exposition of the registry instruments."""
        return self.registry.to_prometheus()

    def snapshot(self) -> dict:
        """JSON-able summary of everything recorded so far."""
        return {
            "completed": self.completed,
            "failed": self.failed,
            "cache_hits": self.cache_hits,
            "throughput_rps": self.throughput(),
            "latency_s": self.latency_summary(),
            "queue_wait_s": self.queue_wait_summary(),
            "batch_occupancy": {
                str(size): count for size, count in self.batch_occupancy().items()
            },
            "mean_batch_occupancy": self.mean_occupancy(),
            "iteration_occupancy": {
                str(size): count
                for size, count in self.iteration_occupancy().items()
            },
            "mean_iteration_occupancy": self.mean_iteration_occupancy(),
        }
