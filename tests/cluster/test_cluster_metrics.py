"""Tests for fleet metrics aggregation and the cluster event log."""

import json
from pathlib import Path

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterEvent,
    ClusterMetrics,
    ServingCluster,
)
from repro.serving import (
    DecodeServable,
    EngineConfig,
    IterationCost,
    Metrics,
    RequestHandle,
    RequestRecord,
    SimulatedClock,
    decode_payload,
)
from repro.workloads.llm import DecoderConfig


def record(arrival, started, finished, cache_hit=False):
    return RequestRecord(
        arrival=arrival,
        started=started,
        finished=finished,
        batch_size=1,
        cache_hit=cache_hit,
    )


def engine_metrics(waits):
    """A per-engine recorder with the given queue waits (1 ms service)."""
    metrics = Metrics()
    for i, wait in enumerate(waits):
        handle = RequestHandle(i, float(i))
        handle._resolve(
            None, started=i + wait, finished=i + wait + 1e-3, batch_size=2
        )
        metrics.record_request(handle)
        metrics.record_batch(2)
    return metrics


class TestCounters:
    def test_affinity_hit_rate(self):
        metrics = ClusterMetrics()
        assert metrics.affinity_hit_rate() == 0.0
        metrics.record_dispatch(0, affinity_hit=True)
        metrics.record_dispatch(1, affinity_hit=False)
        metrics.record_dispatch(0, affinity_hit=True)
        metrics.record_dispatch(2, new_session=True)  # not a hit/miss
        assert metrics.affinity_hit_rate() == pytest.approx(2 / 3)
        assert metrics.sessions_placed == 1

    def test_dispatch_and_tenant_counts_sorted(self):
        metrics = ClusterMetrics()
        metrics.record_dispatch(2, tenant="b")
        metrics.record_dispatch(0, tenant="a")
        metrics.record_dispatch(2, tenant="a")
        assert metrics.dispatch_counts() == {0: 1, 2: 2}
        assert metrics.tenant_counts() == {"a": 2, "b": 1}

    def test_migration_and_failover_ledgers(self):
        metrics = ClusterMetrics()
        metrics.record_migration(128)
        metrics.record_migration(64)
        metrics.record_rehome(3)
        metrics.record_failover(2)
        metrics.record_retry()
        assert metrics.migrations == 2
        assert metrics.migrated_bytes == 192
        assert metrics.sessions_rehomed == 3
        assert metrics.failovers == 2
        assert metrics.retries == 1


class TestFleetSummaries:
    def test_throughput_spans_fleet_records(self):
        metrics = ClusterMetrics()
        metrics.record(record(0.0, 0.0, 1.0))
        metrics.record(record(1.0, 1.5, 2.0))
        assert metrics.throughput() == 1.0
        assert metrics.completed == 2

    def test_latency_and_wait_percentiles(self):
        metrics = ClusterMetrics()
        for i, wait in enumerate((1e-3, 2e-3, 3e-3)):
            metrics.record(record(i, i + wait, i + wait + 1e-3))
        assert metrics.latency_summary()["p50"] == pytest.approx(3e-3)
        assert metrics.queue_wait_summary()["p50"] == pytest.approx(2e-3)

    def test_latencies_since_windows(self):
        metrics = ClusterMetrics()
        metrics.record(record(0.0, 0.0, 1.0))
        window, index = metrics.latencies_since(0)
        assert window == [1.0] and index == 1
        window, index = metrics.latencies_since(index)
        assert window == [] and index == 1
        metrics.record(record(0.0, 0.0, 2.0))
        window, index = metrics.latencies_since(index)
        assert window == [2.0] and index == 2


class TestEventsAndSnapshot:
    def test_cluster_event_as_dict_round_trips(self):
        event = ClusterEvent(0.5, "replica_failed", 2, 1, "fault injection")
        payload = json.loads(json.dumps(event.as_dict()))
        assert payload == {
            "time": 0.5,
            "kind": "replica_failed",
            "replica_id": 2,
            "fleet_size": 1,
            "reason": "fault injection",
        }
        assert ClusterEvent(**payload) == event

    def test_prometheus_exposition(self):
        metrics = ClusterMetrics()
        metrics.record_dispatch(0, tenant="chat-a", affinity_hit=True)
        metrics.record_failover()
        text = metrics.to_prometheus()
        assert 'cluster_dispatches_total{replica="0"} 1' in text
        assert 'cluster_affinity_total{outcome="hit"} 1' in text
        assert "cluster_failovers_total 1" in text

    def test_event_log_round_trips_to_json(self):
        metrics = ClusterMetrics()
        metrics.record_event(ClusterEvent(1.0, "scale_up", 1, 2, "backlog"))
        metrics.record_event(ClusterEvent(2.0, "drain", 1, 1, "idle"))
        snapshot = metrics.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert [e["kind"] for e in snapshot["events"]] == ["scale_up", "drain"]

    def test_snapshot_merges_replica_engine_metrics(self):
        metrics = ClusterMetrics()
        per_replica = {
            0: engine_metrics([1e-3, 3e-3]),
            1: engine_metrics([2e-3, 4e-3]),
        }
        snapshot = metrics.snapshot(per_replica)
        engines = snapshot["engines"]
        # Occupancy histograms sum across replicas.
        assert engines["batch_occupancy"] == {"2": 4}
        # Queue-wait percentiles come from the merged raw records:
        # waits are 1/2/3/4 ms pooled, not averaged per replica.
        assert engines["queue_wait_s"]["p50"] == pytest.approx(2.5e-3)
        assert set(engines["per_replica"]) == {"0", "1"}
        assert json.loads(json.dumps(snapshot)) == snapshot


# -- golden fleet snapshot ---------------------------------------------------

#: ``golden_record(golden_fleet(*knobs))`` of every :data:`GOLDEN_FLEETS`
#: entry, recorded before the engine and fleet recorders shared one
#: request ledger; re-record it only for an intended snapshot change.
GOLDEN_PATH = Path(__file__).with_name("golden_fleet_snapshots.json")
DECODER = DecoderConfig("golden", depth=2, dim=8, heads=2, mlp_ratio=2.0)
PREFIX = "sys"


class FleetServable(DecodeServable):
    """Decodes session steps, doubles sessionless payloads, and fails
    its first ``fail_times`` batches (the retry path)."""

    def __init__(self, fail_times=0):
        super().__init__(DECODER, seed=0, block_size=2)
        self.fail_times = fail_times

    def execute(self, requests):
        if self.fail_times > 0:
            self.fail_times -= 1
            raise RuntimeError("photonic core fell over")
        decode = [r for r in requests if r.session_id is not None]
        outputs = iter(super().execute(decode) if decode else ())
        return [
            next(outputs) if r.session_id is not None else 2 * r.payload
            for r in requests
        ]


#: name -> (policy, shared tier, replica memo bytes)
GOLDEN_FLEETS = {
    "least_outstanding-memo": ("least_outstanding", False, 1 << 16),
    "cache_aware-tier": ("cache_aware", True, None),
    "round_robin-tier": ("round_robin", True, None),
}


def golden_fleet(policy, shared_cache, memo_bytes):
    """A seeded simulated-clock fleet run: tenants, memo hits, a failed
    batch that is retried, a mid-run replica failure, a scale-up and a
    drain.  Returns the finished cluster."""
    config = ClusterConfig(
        replicas=3,
        policy=policy,
        engine=EngineConfig(
            max_batch_size=4, max_wait_us=0.0, queue_depth=64, block_size=2
        ),
        service_model=IterationCost(base_s=2e-4, per_request_s=5e-5),
        shared_cache=shared_cache,
        memo_bytes=memo_bytes,
    )
    clock = SimulatedClock()
    cluster = ServingCluster(
        lambda rid: FleetServable(fail_times=1 if rid == 0 else 0),
        config=config,
        clock=clock,
    )
    cluster.register_prefix(PREFIX, 4)
    with cluster:
        for step in range(6):
            for s in range(4):
                cluster.submit(
                    decode_payload(7, s, step, DECODER.dim),
                    session_id=f"s{s}",
                    tenant="chat-a" if s % 2 else "chat-b",
                    prefix_id=PREFIX if s % 2 == 0 else None,
                )
            for key in range(2):
                cluster.submit(
                    decode_payload(7, 100 + key, 0, DECODER.dim),
                    cache_key=f"k{key}",
                    tenant="batch",
                )
            if step == 2:
                cluster.fail_replica(1)
            elif step == 3:
                cluster.add_replica("golden")
            elif step == 4:
                cluster.drain_replica(2, "golden")
            cluster.step(force=True)
            clock.advance(5e-4)
        cluster.run_until_idle()
    return cluster


def prometheus_samples(text):
    """Sample lines as ``{"name{labels}": value}`` (HELP/TYPE dropped)."""
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            series, value = line.rsplit(" ", 1)
            samples[series] = float(value)
    return samples


def golden_record(cluster):
    return {
        "snapshot": cluster.snapshot(),
        "prometheus": prometheus_samples(cluster.metrics.to_prometheus()),
    }


class TestGoldenFleetSnapshot:
    """The fleet snapshot and exposition of seeded simulated-clock runs
    are pinned byte for byte, so a metrics refactor cannot move them."""

    @pytest.mark.parametrize("fleet", sorted(GOLDEN_FLEETS))
    def test_snapshot_matches_golden(self, fleet):
        golden = json.loads(GOLDEN_PATH.read_text())[fleet]
        cluster = golden_fleet(*GOLDEN_FLEETS[fleet])
        record = golden_record(cluster)
        assert json.dumps(record["snapshot"], sort_keys=True) == json.dumps(
            golden["snapshot"], sort_keys=True
        )
        assert record["prometheus"] == golden["prometheus"]

    @pytest.mark.parametrize("fleet", sorted(GOLDEN_FLEETS))
    def test_replica_dispatched_reads_the_dispatch_ledger(self, fleet):
        cluster = golden_fleet(*GOLDEN_FLEETS[fleet])
        snapshot = cluster.snapshot()
        counts = cluster.metrics.dispatch_counts()
        assert snapshot["replicas"]["1"]["state"] == "failed"
        for rid, view in snapshot["replicas"].items():
            assert view["dispatched"] == counts.get(int(rid), 0)

    def test_golden_fleets_exercise_every_ledger(self):
        goldens = json.loads(GOLDEN_PATH.read_text())
        assert set(goldens) == set(GOLDEN_FLEETS)
        for fleet, golden in goldens.items():
            snapshot = golden["snapshot"]
            assert snapshot["cache"]["hits"] > 0, fleet
            assert snapshot["retries"] >= 1, fleet
            assert snapshot["failovers"] >= 1, fleet
            assert snapshot["migrations"]["sessions_rehomed"] >= 1, fleet
            assert set(snapshot["tenants"]) == {"batch", "chat-a", "chat-b"}
            kinds = [event["kind"] for event in snapshot["events"]]
            assert kinds == ["replica_failed", "scale_up", "drain", "retire"]
        assert any(
            golden["snapshot"]["migrations"]["bytes"] > 0
            for golden in goldens.values()
        )
