"""Tests for SLO-driven autoscaling (deterministic, simulated clock)."""

import pytest

from repro.cluster import (
    AutoscalerPolicy,
    ClusterConfig,
    ServiceModel,
    ServingCluster,
)
from repro.serving import EngineConfig, SimulatedClock


class EchoServable:
    name = "echo"

    def prepare(self, payload):
        return payload

    def execute(self, requests):
        return [2 * request.payload for request in requests]


def scaled_cluster(
    policy: AutoscalerPolicy,
    *,
    clock=None,
    service_model=ServiceModel(base_s=1e-3, per_request_s=0.0),
):
    return ServingCluster(
        lambda rid: EchoServable(),
        config=ClusterConfig(
            replicas=policy.min_replicas,
            policy="least_outstanding",
            engine=EngineConfig(max_batch_size=2, max_wait_us=0.0),
            service_model=service_model,
            close_executors=False,
        ),
        clock=clock if clock is not None else SimulatedClock(),
        autoscaler=policy,
    )


class TestPolicyValidation:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="min_replicas"):
            AutoscalerPolicy(min_replicas=0)
        with pytest.raises(ValueError, match="max_replicas"):
            AutoscalerPolicy(min_replicas=3, max_replicas=2)
        with pytest.raises(ValueError, match="backlog"):
            AutoscalerPolicy(high_backlog=1.0, low_backlog=1.0)
        with pytest.raises(ValueError, match="cooldown"):
            AutoscalerPolicy(cooldown_s=-1.0)
        with pytest.raises(ValueError, match="latency_slo_s"):
            AutoscalerPolicy(latency_slo_s=0.0)


class TestScaleUp:
    def test_backlog_above_watermark_grows_the_fleet(self):
        policy = AutoscalerPolicy(min_replicas=1, max_replicas=3, high_backlog=2.0)
        with scaled_cluster(policy) as cluster:
            for i in range(6):  # backlog 6 on one replica
                cluster.submit(i)
            cluster.maintain()
            assert cluster.fleet_size == 2
            events = cluster.metrics.events
            assert [e.kind for e in events] == ["scale_up"]
            assert "backlog" in events[0].reason
            cluster.run_until_idle()

    def test_scale_up_respects_max_replicas_and_cooldown(self):
        clock = SimulatedClock()
        policy = AutoscalerPolicy(
            min_replicas=1, max_replicas=2, high_backlog=1.0, cooldown_s=10.0
        )
        with scaled_cluster(policy, clock=clock) as cluster:
            for i in range(8):
                cluster.submit(i)
            cluster.maintain()
            assert cluster.fleet_size == 2
            cluster.maintain()  # cooldown holds, and max reached anyway
            assert cluster.fleet_size == 2
            clock.advance(20.0)
            cluster.maintain()  # cooldown expired but max_replicas caps
            assert cluster.fleet_size == 2
            cluster.run_until_idle()

    def test_latency_slo_breach_triggers_scale_up(self):
        # Service takes 10 ms/batch but the SLO is 5 ms: backlog never
        # exceeds the watermark, yet p95 latency breaches.
        policy = AutoscalerPolicy(
            min_replicas=1,
            max_replicas=2,
            high_backlog=100.0,
            latency_slo_s=5e-3,
        )
        with scaled_cluster(
            policy, service_model=ServiceModel(base_s=10e-3, per_request_s=0.0)
        ) as cluster:
            cluster.submit(1)
            cluster.step()  # completes with latency 10 ms, then evaluates
            assert cluster.fleet_size == 2
            assert any(
                "SLO" in event.reason for event in cluster.metrics.events
            )


class TestScaleDown:
    def test_idle_fleet_drains_to_min(self):
        clock = SimulatedClock()
        policy = AutoscalerPolicy(
            min_replicas=1, max_replicas=3, high_backlog=2.0, low_backlog=0.5
        )
        with scaled_cluster(policy, clock=clock) as cluster:
            cluster.add_replica("test")
            cluster.add_replica("test")
            assert cluster.fleet_size == 3
            for _ in range(4):  # idle ticks: drain one per tick
                clock.advance(1.0)
                cluster.step()
            assert cluster.fleet_size == 1
            kinds = [e.kind for e in cluster.metrics.events]
            assert kinds.count("drain") == 2
            assert kinds.count("retire") == 2
            states = sorted(r.state for r in cluster.replicas.values())
            assert states == ["healthy", "stopped", "stopped"]

    def test_highest_id_replica_drains_first(self):
        clock = SimulatedClock()
        policy = AutoscalerPolicy(min_replicas=1, max_replicas=3, low_backlog=0.5)
        with scaled_cluster(policy, clock=clock) as cluster:
            cluster.add_replica("test")
            clock.advance(1.0)
            cluster.step()
            drain = next(
                e for e in cluster.metrics.events if e.kind == "drain"
            )
            assert drain.replica_id == 1


class TestDeterminism:
    def trajectory(self):
        clock = SimulatedClock()
        # Virtual-time regime: executed batches resolve at step time, so
        # queue depth stays flat — the latency SLO is the scale-up
        # signal (virtual latency grows as busy_until outruns arrivals).
        policy = AutoscalerPolicy(
            min_replicas=1,
            max_replicas=4,
            high_backlog=50.0,
            low_backlog=0.5,
            latency_slo_s=2e-3,
            cooldown_s=0.5e-3,
        )
        with scaled_cluster(policy, clock=clock) as cluster:
            # Burst: arrivals far faster than one replica serves.
            for i in range(24):
                clock.advance(0.1e-3)
                cluster.submit(i)
                cluster.step(force=False)
            cluster.run_until_idle()
            # Quiet tail: the fleet drains back down.
            for _ in range(6):
                clock.advance(5e-3)
                cluster.step()
            return (
                [(e.time, e.kind, e.replica_id, e.fleet_size) for e in cluster.metrics.events],
                cluster.fleet_size,
            )

    def test_scaling_trajectory_is_reproducible_and_complete(self):
        events_a, fleet_a = self.trajectory()
        events_b, fleet_b = self.trajectory()
        assert events_a == events_b
        assert fleet_a == fleet_b == 1
        kinds = [kind for _, kind, _, _ in events_a]
        assert "scale_up" in kinds and "drain" in kinds and "retire" in kinds


class FakeMonitor:
    """Stands in for an SLOMonitor: a scriptable firing() feed."""

    def __init__(self, alerting=()):
        self.alerting = list(alerting)
        self.ticks = []

    def firing(self):
        return list(self.alerting)

    def tick(self, now):
        self.ticks.append(now)
        return []


class TestSLOAlertSignal:
    def test_firing_alert_forces_scale_up(self):
        policy = AutoscalerPolicy(
            min_replicas=1, max_replicas=3, high_backlog=100.0
        )
        with scaled_cluster(policy) as cluster:
            cluster.autoscaler.slo_monitor = FakeMonitor(["p95-latency"])
            cluster.maintain()  # idle fleet, but the burn alert is firing
            assert cluster.fleet_size == 2
            (event,) = cluster.metrics.events
            assert event.kind == "scale_up"
            assert event.reason == "SLO burn-rate alert: p95-latency"

    def test_firing_alert_vetoes_drain(self):
        policy = AutoscalerPolicy(
            min_replicas=1, max_replicas=2, high_backlog=100.0
        )
        with scaled_cluster(policy) as cluster:
            monitor = FakeMonitor(["availability"])
            cluster.autoscaler.slo_monitor = monitor
            cluster.maintain()
            assert cluster.fleet_size == 2  # alert scaled the fleet up
            cluster.maintain()  # at max, idle — but draining is vetoed
            assert cluster.fleet_size == 2
            monitor.alerting.clear()
            cluster.maintain()  # alert resolved: the idle fleet drains
            kinds = [e.kind for e in cluster.metrics.events]
            assert kinds == ["scale_up", "drain", "retire"]

    def test_maintain_ticks_the_wired_monitor(self):
        policy = AutoscalerPolicy(min_replicas=1, high_backlog=100.0)
        clock = SimulatedClock()
        monitor = FakeMonitor()
        with scaled_cluster(policy, clock=clock) as cluster:
            cluster.slo_monitor = monitor
            cluster.maintain()
            clock.advance(1e-3)
            cluster.maintain()
        assert monitor.ticks == [0.0, 1e-3]
