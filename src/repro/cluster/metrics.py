"""Fleet observability: aggregated metrics and the cluster event log.

:class:`ClusterMetrics` records three kinds of facts:

* **Per-request records** stamped by the cluster (virtual service-model
  times under a simulated clock, engine times otherwise) — the source
  of fleet throughput and p50/p95/p99 latency/queue-wait percentiles.
  They live in the :class:`~repro.serving.metrics.RequestLedger` the
  per-engine :class:`~repro.serving.metrics.Metrics` recorders are
  built on, under the ``cluster_*`` families: the same
  :class:`~repro.serving.metrics.RequestRecord` rows, counters,
  histograms and summaries, from the same code.
* **Routing counters** — per-replica/per-tenant dispatches, affinity
  hits and misses, KV migrations (count + bytes), failovers, retries,
  re-homed sessions.
* **The event log** — every lifecycle transition (scale-up, drain,
  retire, failure) as a timestamped :class:`ClusterEvent`.  Under a
  :class:`~repro.serving.clock.SimulatedClock` the log is
  bit-deterministic, which is exactly what
  ``tests/cluster/test_autoscaler.py::TestDeterminism`` gates.

The routing counters sit on the ledger's
:class:`~repro.obs.registry.MetricsRegistry` (Prometheus exposition via
:meth:`ClusterMetrics.to_prometheus`); the ledger's raw records and the
event log stay exact.  The legacy attribute reads
(``metrics.failovers`` and friends) are properties over the registry
instruments.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.obs.registry import Counter, MetricsRegistry
from repro.serving.metrics import Metrics, RequestLedger


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


class ClusterMetrics(RequestLedger):
    """Thread-safe recorder the :class:`ServingCluster` reports into:
    the request ledger plus routing counters and the event log."""

    FAMILY = "cluster"

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        super().__init__(registry)
        counter = self.registry.counter
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
        self.events: list[ClusterEvent] = []
        # Labelled dispatch counters bound once per replica and tenant
        # (the registry returns the same instrument for the same labels).
        self._dispatch_c: dict[int, Counter] = {}
        self._tenant_c: dict[str, Counter] = {}

    # -- write side ----------------------------------------------------------
    def record_dispatch(
        self,
        replica_id: int,
        *,
        tenant: str | None = None,
        affinity_hit: bool | None = None,
        new_session: bool = False,
    ) -> None:
        dispatch = self._dispatch_c.get(replica_id)
        if dispatch is None:
            dispatch = self._dispatch_c[replica_id] = self.registry.counter(
                "cluster_dispatches_total", "Dispatches per replica",
                replica=replica_id,
            )
        tenant_c = None
        if tenant is not None:
            tenant_c = self._tenant_c.get(tenant)
            if tenant_c is None:
                tenant_c = self._tenant_c[tenant] = self.registry.counter(
                    "cluster_tenant_dispatches_total", "Dispatches per tenant",
                    tenant=tenant,
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

    def record_event(self, event: ClusterEvent) -> None:
        with self._lock:
            self.events.append(event)

    # -- read side -----------------------------------------------------------
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
        hit-rate ledger ``tests/cluster/test_cache_tier.py::TestFleetMemo::
        test_shared_tier_recovers_the_affinity_hit_rate`` gates (tier hits and
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
                "hits": self.cache_hits,
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
            snapshot["engines"] = {
                "per_replica": {
                    str(rid): metrics.snapshot()
                    for rid, metrics in sorted(replica_metrics.items())
                },
                "batch_occupancy": {
                    str(size): count
                    for size, count in merged.batch_occupancy().items()
                },
                "queue_wait_s": merged.queue_wait_summary(),
            }
        return snapshot
