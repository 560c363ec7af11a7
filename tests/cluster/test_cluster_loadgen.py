"""Tests for the virtual-time cluster load drivers (zero sleeps)."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    ServingCluster,
    run_virtual_open_loop,
)
from repro.cluster.loadgen import run_virtual_schedule
from repro.serving import (
    EngineConfig,
    IterationCost,
    SimulatedClock,
    TenantSpec,
    multi_tenant_arrivals,
)


class EchoServable:
    name = "echo"

    def prepare(self, payload):
        return payload

    def execute(self, requests):
        return [2 * request.payload for request in requests]


def virtual_cluster(replicas=2):
    return ServingCluster(
        lambda rid: EchoServable(),
        config=ClusterConfig(
            replicas=replicas,
            engine=EngineConfig(max_batch_size=4, max_wait_us=500.0),
            service_model=IterationCost(base_s=1e-3, per_request_s=0.0),
            close_executors=False,
        ),
        clock=SimulatedClock(),
    )


class TestRunVirtualOpenLoop:
    def test_requires_manual_mode(self):
        cluster = ServingCluster(
            lambda rid: EchoServable(),
            config=ClusterConfig(replicas=1, close_executors=False),
        )
        with pytest.raises(ValueError, match="SimulatedClock"):
            run_virtual_open_loop(cluster, [1], [0.0])
        cluster.close()

    def test_mismatched_lengths_raise(self):
        with virtual_cluster() as cluster:
            with pytest.raises(ValueError, match="arrival gaps"):
                run_virtual_open_loop(cluster, [1, 2], [0.0])

    def test_report_shape_and_determinism(self):
        def run():
            rng = np.random.default_rng(0)
            gaps = rng.exponential(0.5e-3, size=16)
            with virtual_cluster() as cluster:
                report = run_virtual_open_loop(cluster, list(range(16)), gaps)
            handles = report.pop("handles")
            assert [h.result(timeout=0) for h in handles] == [
                2 * i for i in range(16)
            ]
            return report

        first, second = run(), run()
        assert first == second  # bit-deterministic, virtual time
        assert first["requests"] == first["completed"] == 16
        assert first["failed"] == 0
        assert first["throughput_rps"] > 0
        assert first["latency_p99_ms"] >= first["latency_p50_ms"]

    def test_more_replicas_raise_virtual_throughput(self):
        def throughput(replicas):
            rng = np.random.default_rng(1)
            gaps = rng.exponential(0.1e-3, size=32)
            with virtual_cluster(replicas=replicas) as cluster:
                return run_virtual_open_loop(
                    cluster, list(range(32)), gaps
                )["throughput_rps"]

        assert throughput(1) < throughput(2) < throughput(4)


class TestRunVirtualSchedule:
    def test_multi_tenant_mix_drives_sessions_and_tenants(self):
        tenants = (
            TenantSpec("batch", rate_rps=2000.0),
            TenantSpec("chat", rate_rps=2000.0, sessions=3),
        )
        arrivals = multi_tenant_arrivals(
            tenants, horizon_s=10e-3, rng=np.random.default_rng(0)
        )
        with virtual_cluster() as cluster:
            report = run_virtual_schedule(
                cluster, arrivals, lambda arrival: arrival.index
            )
        assert report["completed"] == len(arrivals)
        counts = cluster.metrics.tenant_counts()
        assert set(counts) == {"batch", "chat"}
        assert sum(counts.values()) == len(arrivals)
        # Session-shaped arrivals registered in the directory.
        assert set(cluster.router.directory) == {
            a.session for a in arrivals if a.session is not None
        }
