"""Tests for the virtual-time cluster load drivers (zero sleeps)."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    ServingCluster,
    run_virtual_open_loop,
)
from repro.serving import (
    EngineConfig,
    IterationCost,
    SimulatedClock,
    TenantSpec,
    arrival_gaps,
    multi_tenant_arrivals,
)
from tests.cluster.sim_gates import golden


class EchoServable:
    name = "echo"

    def prepare(self, payload):
        return payload

    def execute(self, requests):
        return [2 * request.payload for request in requests]


def virtual_cluster(
    replicas=2,
    policy="round_robin",
    service_model=IterationCost(base_s=1e-3, per_request_s=0.0),
    **engine,
):
    """An echo fleet in virtual time; ``engine`` overrides
    :class:`EngineConfig` fields (batches of 4, a 500 us window)."""
    return ServingCluster(
        lambda rid: EchoServable(),
        config=ClusterConfig(
            replicas=replicas,
            policy=policy,
            engine=EngineConfig(**{"max_batch_size": 4, "max_wait_us": 500.0, **engine}),
            service_model=service_model,
        ),
        clock=SimulatedClock(),
    )


class TestRunVirtualOpenLoop:
    def test_requires_manual_mode(self):
        cluster = ServingCluster(
            lambda rid: EchoServable(),
            config=ClusterConfig(replicas=1),
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
        """Fleet scaling: 64 open-loop Poisson arrivals (mean gap 0.05 ms,
        service-dominated) on 1, 2 and 4 replicas.  Replicas overlap in
        virtual time, so throughput rises strictly and 4 replicas serve
        at least 2x one."""
        rows = []
        for replicas in (1, 2, 4):
            gaps = np.random.default_rng(2).exponential(0.05e-3, size=64)
            with virtual_cluster(
                replicas,
                policy="least_outstanding",
                service_model=IterationCost(base_s=1e-3, per_request_s=0.25e-3),
                max_batch_size=8,
                queue_depth=128,
            ) as cluster:
                report = run_virtual_open_loop(cluster, list(range(64)), gaps)
            report.pop("handles")
            rows.append({**report, "replicas": replicas})
        throughputs = [row["throughput_rps"] for row in rows]
        assert throughputs[0] < throughputs[1] < throughputs[2]
        gain = throughputs[2] / throughputs[0]
        assert gain >= 2.0, f"fleet gain {gain:.2f}x below the 2.0x floor"
        assert rows == golden("cluster", "fleet_scaling")
        assert gain == golden("cluster", "fleet_gain")


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
            report = run_virtual_open_loop(
                cluster,
                [arrival.index for arrival in arrivals],
                arrival_gaps(arrivals),
                submit_kwargs=lambda i: {
                    "session_id": arrivals[i].session, "tenant": arrivals[i].tenant,
                },
            )
        assert report["completed"] == len(arrivals)
        counts = cluster.metrics.tenant_counts()
        assert set(counts) == {"batch", "chat"}
        assert sum(counts.values()) == len(arrivals)
        # Session-shaped arrivals registered in the directory.
        assert set(cluster.router.directory) == {
            a.session for a in arrivals if a.session is not None
        }
