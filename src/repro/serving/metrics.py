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
registry histograms bucket, records don't.  The request half of that
bookkeeping is :class:`RequestLedger`, which the fleet-level
:class:`repro.cluster.metrics.ClusterMetrics` is built on too.
"""

from __future__ import annotations

import threading
from typing import NamedTuple

import numpy as np

from repro.obs.registry import Counter, MetricsRegistry

#: Percentiles of the latency summaries.
PERCENTILES = (50.0, 95.0, 99.0)


class RequestRecord(NamedTuple):
    """Timing of one completed request (a tuple: built once per token)."""

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

    The one summary shape every layer shares: the engine and fleet
    :class:`RequestLedger` summaries and the load generators' handle
    statistics, so percentiles are always computed the same way.
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


class RequestLedger:
    """Thread-safe ledger of resolved requests, shared by the
    per-engine :class:`Metrics` and the fleet-level
    :class:`repro.cluster.metrics.ClusterMetrics`.

    Counts and latency distributions are instruments of a
    :class:`~repro.obs.registry.MetricsRegistry` (pass one in to share
    it across recorders; a private one is built by default) named
    ``{FAMILY}_*``; exact per-request rows live in ``_records``, the
    source of the percentile and throughput reads.  A subclass sets the
    family prefix as the class attribute ``FAMILY``.

    Recording a request only appends its row.  The completed and
    cache-hit counters and the latency and queue-wait histograms hold
    nothing the rows do not, so they are folded from the rows not yet
    counted whenever the registry is read (its collector hook), in
    record order: every read sees exactly what observing each row as it
    came would have built.
    """

    FAMILY: str

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        # Reentrant: a registry read under the lock (see merged) folds
        # through the collector, which takes it again.
        self._lock = threading.RLock()
        self._records: list[RequestRecord] = []
        self._folded = 0  # rows already in the registry instruments
        self.registry = registry if registry is not None else MetricsRegistry()
        family = self.FAMILY
        self._completed_c = self.registry.counter(
            f"{family}_requests_completed_total", "Resolved requests"
        )
        self._failed_c = self.registry.counter(
            f"{family}_requests_failed_total", "Failed requests"
        )
        self._cache_hits_c = self.registry.counter(
            f"{family}_cache_hits_total", "Requests served from cache"
        )
        self._latency_h = self.registry.histogram(
            f"{family}_request_latency_seconds", "End-to-end request latency"
        )
        self._queue_wait_h = self.registry.histogram(
            f"{family}_queue_wait_seconds", "Admission-to-execution wait"
        )
        self.registry.add_collector(self._fold)

    # -- write side ----------------------------------------------------------
    def record(self, record: RequestRecord) -> None:
        """Record one resolved (successful) request's timing row."""
        with self._lock:
            self._records.append(record)

    def _fold(self) -> None:
        """Count the rows recorded since the last fold into the registry."""
        with self._lock:
            completed, hits = self._completed_c, self._cache_hits_c
            latency, queue_wait = self._latency_h, self._queue_wait_h
            for arrival, started, finished, _, cache_hit in self._records[self._folded :]:
                completed.inc()
                if cache_hit:
                    hits.inc()
                latency.observe(finished - arrival)
                queue_wait.observe(started - arrival)
            self._folded = len(self._records)

    def record_failures(self, count: int = 1) -> None:
        with self._lock:
            self._failed_c.inc(count)

    # -- read side -----------------------------------------------------------
    def records(self) -> list[RequestRecord]:
        """Copy of every completed-request record (aggregation hook)."""
        with self._lock:
            return list(self._records)

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
            self._fold()
            return int(self._cache_hits_c.value)

    def throughput(self) -> float:
        """Completed requests per second of observed span: earliest
        arrival to latest completion (0 for a degenerate span)."""
        with self._lock:
            records = list(self._records)
        if not records:
            return 0.0
        span = max(r.finished for r in records) - min(r.arrival for r in records)
        if span <= 0:
            return 0.0
        return len(records) / span

    def latency_summary(self) -> dict[str, float]:
        with self._lock:
            values = [record.latency for record in self._records]
        return summarize(values)

    def queue_wait_summary(self) -> dict[str, float]:
        with self._lock:
            values = [record.queue_wait for record in self._records]
        return summarize(values)

    def to_prometheus(self) -> str:
        """Prometheus text exposition of the registry instruments."""
        return self.registry.to_prometheus()


class Metrics(RequestLedger):
    """Thread-safe recorder the :class:`ServingEngine` reports into.

    The :class:`RequestLedger` under the ``serving_*`` families, plus
    batch and iteration occupancy.  Exact occupancy histograms are
    labelled counter series (``size="4"``), which keeps them lossless
    across merges.
    """

    FAMILY = "serving"

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        super().__init__(registry)
        # Occupancy counters bound once per size: the registry hands
        # out the same instrument for the same labels, so a hit here
        # skips only the labelled lookup.
        self._batch_counters: dict[int, Counter] = {}
        self._iteration_counters: dict[int, Counter] = {}

    def _occupancy_counter(
        self, bound: dict[int, Counter], name: str, size: int
    ) -> Counter:
        counter = bound.get(size)
        if counter is None:
            counter = bound[size] = self.registry.counter(
                name, "Exact occupancy histogram (labelled counter)", size=size
            )
        return counter

    # -- engine side ---------------------------------------------------------
    def record_batch(self, size: int) -> None:
        """Record one executed batch's occupancy."""
        counter = self._occupancy_counter(
            self._batch_counters, "serving_batches_total", size
        )
        with self._lock:
            counter.inc()

    def record_iteration(self, active: int) -> None:
        """Record one scheduler iteration's active-session count
        (sessionless fill-in requests count as one lane each)."""
        counter = self._occupancy_counter(
            self._iteration_counters, "serving_iterations_total", active
        )
        with self._lock:
            counter.inc()

    # -- read side -----------------------------------------------------------
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
                out.registry.merge_from(part.registry)  # folds the part first
                out._records.extend(part._records)
                out._folded = len(out._records)  # the merged instruments hold them
        return out

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
