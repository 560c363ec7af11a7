"""Wall-clock cluster tests: worker threads + callback propagation."""

import numpy as np

from repro.cluster import STOPPED, ClusterConfig, ServingCluster
from repro.serving import DecodeServable, EngineConfig
from repro.workloads.llm import DecoderConfig


class EchoServable:
    name = "echo"

    def prepare(self, payload):
        return payload

    def execute(self, requests):
        return [2 * request.payload for request in requests]


def wall_cluster(factory, policy="round_robin", max_wait_us=200.0):
    """A two-replica wall-clock fleet batching up to 4 requests."""
    return ServingCluster(
        factory,
        config=ClusterConfig(
            replicas=2,
            policy=policy,
            engine=EngineConfig(max_batch_size=4, max_wait_us=max_wait_us),
            close_executors=False,
        ),
    )


class TestWallClock:
    def test_results_propagate_through_callbacks(self):
        cluster = wall_cluster(
            lambda rid: EchoServable(), policy="least_outstanding"
        )
        with cluster:
            handles = [cluster.submit(i) for i in range(16)]
            results = [handle.result(timeout=10.0) for handle in handles]
        assert results == [2 * i for i in range(16)]
        assert cluster.metrics.completed == 16
        assert sum(cluster.metrics.dispatch_counts().values()) == 16
        # Engine-side timing reached the cluster records.
        assert all(r.finished >= r.arrival for r in cluster.metrics.records())

    def test_decode_sessions_work_across_wall_clock_replicas(self):
        decoder = DecoderConfig("wall-decode", depth=1, dim=8, heads=2, mlp_ratio=2.0)
        rng = np.random.default_rng(0)
        cluster = wall_cluster(
            lambda rid: DecodeServable(decoder, seed=0), policy="session_affinity"
        )
        with cluster:
            for _ in range(3):
                handles = [
                    cluster.submit(rng.normal(size=8), session_id=f"s{s}")
                    for s in range(3)
                ]
                for handle in handles:
                    handle.result(timeout=10.0)
        # Every session's steps all landed on its owning replica.
        assert cluster.metrics.affinity_hit_rate() == 1.0
        for sid, owner in cluster.router.directory.items():
            cache = cluster.replicas[owner].session_cache
            assert cache.has_session(sid)
            assert cache.session(sid).context_len == 3

    def test_drain_finalizes_via_maintain(self):
        cluster = wall_cluster(lambda rid: EchoServable(), max_wait_us=100.0)
        with cluster:
            handles = [cluster.submit(i) for i in range(8)]
            for handle in handles:
                handle.result(timeout=10.0)
            cluster.drain_replica(1)
            cluster.maintain()
            assert cluster.replicas[1].state == STOPPED
            assert [e.kind for e in cluster.metrics.events] == ["drain", "retire"]
            late = cluster.submit(99)
            assert late.result(timeout=10.0) == 198
            assert late.replica_id == 0
