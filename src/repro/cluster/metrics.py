"""Fleet observability: aggregated metrics and the cluster event log.

:class:`ClusterMetrics` records three kinds of facts:

* **Per-request records** stamped by the cluster (virtual service-model
  times under a simulated clock, engine times otherwise) — the source
  of fleet throughput and p50/p95/p99 latency/queue-wait percentiles,
  computed from raw records with the same
  :func:`repro.serving.metrics.summarize` the per-engine recorders use.
* **Routing counters** — per-replica/per-tenant dispatches, affinity
  hits and misses, KV migrations (count + bytes), failovers, retries,
  re-homed sessions.
* **The event log** — every lifecycle transition (scale-up, drain,
  retire, failure) as a timestamped :class:`ClusterEvent`.  Under a
  :class:`~repro.serving.clock.SimulatedClock` the log is
  bit-deterministic, which is exactly what ``bench_cluster.py`` gates.

Like the per-engine :class:`~repro.serving.metrics.Metrics`, the
counters sit on a :class:`~repro.obs.registry.MetricsRegistry`
(``cluster_*`` families, Prometheus exposition via
:meth:`ClusterMetrics.to_prometheus`) while raw records and the event
log stay exact.  The legacy attribute reads (``metrics.failovers`` and
friends) are properties over the registry instruments.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import asdict, dataclass

from repro.obs.registry import MetricsRegistry
from repro.serving.metrics import Metrics, span_throughput, summarize


@dataclass(frozen=True)
class ClusterRecord:
    """Timing and placement of one completed cluster request."""

    arrival: float
    started: float
    finished: float
    replica_id: int
    batch_size: int
    cache_hit: bool
    tenant: str | None = None

    @property
    def latency(self) -> float:
        return self.finished - self.arrival

    @property
    def queue_wait(self) -> float:
        return self.started - self.arrival


@dataclass(frozen=True)
class ClusterEvent:
    """One lifecycle transition (autoscaler action or failure)."""

    time: float
    kind: str  #: "scale_up" | "drain" | "retire" | "replica_failed"
    replica_id: int
    fleet_size: int  #: healthy replicas *after* the transition
    reason: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


class ClusterMetrics:
    """Thread-safe recorder the :class:`ServingCluster` reports into."""

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._lock = threading.Lock()
        self._records: list[ClusterRecord] = []
        self.registry = registry if registry is not None else MetricsRegistry()
        counter = self.registry.counter
        self._completed_c = counter(
            "cluster_requests_completed_total", "Resolved cluster requests"
        )
        self._failed_c = counter(
            "cluster_requests_failed_total", "Failed cluster requests"
        )
        self._cache_hits_c = counter(
            "cluster_cache_hits_total", "Requests served from cache"
        )
        self._affinity_hits_c = counter(
            "cluster_affinity_total", "Session-affinity routing", outcome="hit"
        )
        self._affinity_misses_c = counter(
            "cluster_affinity_total", "Session-affinity routing", outcome="miss"
        )
        self._sessions_placed_c = counter(
            "cluster_sessions_placed_total", "New sessions placed"
        )
        self._migrations_c = counter(
            "cluster_migrations_total", "KV session migrations"
        )
        self._migrated_bytes_c = counter(
            "cluster_migrated_bytes_total", "KV bytes migrated"
        )
        self._rehomed_c = counter(
            "cluster_sessions_rehomed_total", "Sessions re-homed on failure"
        )
        self._failovers_c = counter(
            "cluster_failovers_total", "Requests re-dispatched on failover"
        )
        self._retries_c = counter(
            "cluster_retries_total", "Requests retried after errors"
        )
        self._prefix_shared_c = counter(
            "cluster_prefix_adoptions_total", "Prefix forks", shared="true"
        )
        self._prefix_private_c = counter(
            "cluster_prefix_adoptions_total", "Prefix forks", shared="false"
        )
        self._latency_h = self.registry.histogram(
            "cluster_request_latency_seconds", "End-to-end cluster latency"
        )
        self._queue_wait_h = self.registry.histogram(
            "cluster_queue_wait_seconds", "Admission-to-execution wait"
        )
        self.events: list[ClusterEvent] = []

    # -- write side ----------------------------------------------------------
    def record_dispatch(
        self,
        replica_id: int,
        *,
        tenant: str | None = None,
        affinity_hit: bool | None = None,
        new_session: bool = False,
    ) -> None:
        dispatch = self.registry.counter(
            "cluster_dispatches_total", "Dispatches per replica",
            replica=replica_id,
        )
        tenant_c = (
            self.registry.counter(
                "cluster_tenant_dispatches_total", "Dispatches per tenant",
                tenant=tenant,
            )
            if tenant is not None
            else None
        )
        with self._lock:
            dispatch.inc()
            if tenant_c is not None:
                tenant_c.inc()
            if affinity_hit is True:
                self._affinity_hits_c.inc()
            elif affinity_hit is False:
                self._affinity_misses_c.inc()
            if new_session:
                self._sessions_placed_c.inc()

    def record_migration(self, nbytes: int) -> None:
        with self._lock:
            self._migrations_c.inc()
            self._migrated_bytes_c.inc(int(nbytes))

    def record_rehome(self, count: int = 1) -> None:
        with self._lock:
            self._rehomed_c.inc(count)

    def record_failover(self, count: int = 1) -> None:
        with self._lock:
            self._failovers_c.inc(count)

    def record_retry(self) -> None:
        with self._lock:
            self._retries_c.inc()

    def record_prefix_adoption(self, *, shared: bool) -> None:
        """One session opened from a registered prefix — adopting the
        tier's shared chain, or privately materializing its pages."""
        with self._lock:
            if shared:
                self._prefix_shared_c.inc()
            else:
                self._prefix_private_c.inc()

    def record_request(self, record: ClusterRecord) -> None:
        with self._lock:
            self._records.append(record)
            self._completed_c.inc()
            if record.cache_hit:
                self._cache_hits_c.inc()
            self._latency_h.observe(record.latency)
            self._queue_wait_h.observe(record.queue_wait)

    def record_failure(self, count: int = 1) -> None:
        with self._lock:
            self._failed_c.inc(count)

    def record_event(self, event: ClusterEvent) -> None:
        with self._lock:
            self.events.append(event)

    # -- read side -----------------------------------------------------------
    @property
    def completed(self) -> int:
        with self._lock:
            return len(self._records)

    @property
    def failed(self) -> int:
        with self._lock:
            return int(self._failed_c.value)

    @property
    def affinity_hits(self) -> int:
        return int(self._affinity_hits_c.value)

    @property
    def affinity_misses(self) -> int:
        return int(self._affinity_misses_c.value)

    @property
    def sessions_placed(self) -> int:
        return int(self._sessions_placed_c.value)

    @property
    def migrations(self) -> int:
        return int(self._migrations_c.value)

    @property
    def migrated_bytes(self) -> int:
        return int(self._migrated_bytes_c.value)

    @property
    def sessions_rehomed(self) -> int:
        return int(self._rehomed_c.value)

    @property
    def failovers(self) -> int:
        return int(self._failovers_c.value)

    @property
    def retries(self) -> int:
        return int(self._retries_c.value)

    @property
    def prefix_adoptions_shared(self) -> int:
        return int(self._prefix_shared_c.value)

    @property
    def prefix_adoptions_private(self) -> int:
        return int(self._prefix_private_c.value)

    def records(self) -> list[ClusterRecord]:
        with self._lock:
            return list(self._records)

    def latencies_since(self, index: int) -> tuple[list[float], int]:
        """Latencies of records from ``index`` on, plus the new index.

        The autoscaler's SLO signal: each evaluation reads only the
        window of completions since the previous one.
        """
        with self._lock:
            window = self._records[index:]
            return [r.latency for r in window], len(self._records)

    def affinity_hit_rate(self) -> float:
        """Owner-routed fraction of steps with an existing session owner."""
        with self._lock:
            total = self.affinity_hits + self.affinity_misses
            return self.affinity_hits / total if total else 0.0

    def cache_hit_rate(self) -> float:
        """Fleet-wide memo hit fraction of completed requests — the
        hit-rate ledger ``bench_cache_tier.py`` gates (tier hits and
        replica-private hits both count; the denominator is every
        completed request)."""
        with self._lock:
            completed = len(self._records)
            return self._cache_hits_c.value / completed if completed else 0.0

    def dispatch_counts(self) -> dict[int, int]:
        series = self.registry.counter_series(
            "cluster_dispatches_total", "replica"
        )
        return {
            rid: count
            for rid, count in sorted(
                (int(rid), int(count)) for rid, count in series.items()
            )
        }

    def tenant_counts(self) -> dict[str, int]:
        series = self.registry.counter_series(
            "cluster_tenant_dispatches_total", "tenant"
        )
        return {tenant: int(count) for tenant, count in sorted(series.items())}

    def to_prometheus(self) -> str:
        """Prometheus text exposition of the registry instruments."""
        return self.registry.to_prometheus()

    def throughput(self) -> float:
        """Fleet requests per second (same definition as per-engine
        :meth:`~repro.serving.metrics.Metrics.throughput`)."""
        with self._lock:
            records = list(self._records)
        return span_throughput(records)

    def latency_summary(self) -> dict[str, float]:
        with self._lock:
            values = [r.latency for r in self._records]
        return summarize(values)

    def queue_wait_summary(self) -> dict[str, float]:
        with self._lock:
            values = [r.queue_wait for r in self._records]
        return summarize(values)

    def snapshot(self, replica_metrics: "dict[int, Metrics] | None" = None) -> dict:
        """JSON-able fleet summary.

        ``replica_metrics`` (id -> per-engine :class:`Metrics`) adds the
        engine-side view: per-replica snapshots plus a fleet-merged
        occupancy histogram and queue-wait summary computed from the raw
        per-engine records via :meth:`Metrics.merged`.
        """
        with self._lock:
            events = [event.as_dict() for event in self.events]
        snapshot = {
            "completed": self.completed,
            "failed": self.failed,
            "throughput_rps": self.throughput(),
            "latency_s": self.latency_summary(),
            "queue_wait_s": self.queue_wait_summary(),
            "dispatches": {
                str(rid): count for rid, count in self.dispatch_counts().items()
            },
            "tenants": self.tenant_counts(),
            "affinity": {
                "hits": self.affinity_hits,
                "misses": self.affinity_misses,
                "hit_rate": self.affinity_hit_rate(),
                "sessions_placed": self.sessions_placed,
            },
            "migrations": {
                "count": self.migrations,
                "bytes": self.migrated_bytes,
                "sessions_rehomed": self.sessions_rehomed,
            },
            "cache": {
                "hit_rate": self.cache_hit_rate(),
                "hits": int(self._cache_hits_c.value),
            },
            "prefixes": {
                "shared_adoptions": self.prefix_adoptions_shared,
                "private_adoptions": self.prefix_adoptions_private,
            },
            "failovers": self.failovers,
            "retries": self.retries,
            "events": events,
        }
        if replica_metrics is not None:
            merged = Metrics.merged(list(replica_metrics.values()))
            occupancy: Counter[int] = Counter()
            for metrics in replica_metrics.values():
                occupancy.update(metrics.batch_occupancy())
            snapshot["engines"] = {
                "per_replica": {
                    str(rid): metrics.snapshot()
                    for rid, metrics in sorted(replica_metrics.items())
                },
                "batch_occupancy": {
                    str(size): count
                    for size, count in sorted(occupancy.items())
                },
                "queue_wait_s": merged.queue_wait_summary(),
            }
        return snapshot
