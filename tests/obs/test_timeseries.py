"""Tests for windowed time series and multi-window SLO burn alerts."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ServingCluster, run_virtual_open_loop
from repro.obs import (
    BurnWindow,
    MetricsRegistry,
    SLObjective,
    SLOMonitor,
    TimeSeriesRecorder,
    error_rate_objective,
    latency_objective,
)
from repro.serving import EngineConfig, IterationCost, SimulatedClock
from repro.workloads.scenarios import TracedMatmulServable

BUCKETS = (1e-3, 1e-2, 1e-1)


def recorded_registry(interval_s=1.0, **kwargs):
    registry = MetricsRegistry()
    recorder = TimeSeriesRecorder(
        registry, interval_s=interval_s, **kwargs
    )
    return registry, recorder


class TestTimeSeriesRecorder:
    def test_validation(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            TimeSeriesRecorder(registry, interval_s=0.0)
        with pytest.raises(ValueError):
            TimeSeriesRecorder(registry, max_samples=1)

    def test_maybe_sample_respects_cadence(self):
        _, recorder = recorded_registry(interval_s=1.0)
        assert recorder.maybe_sample(0.0)
        assert not recorder.maybe_sample(0.5)
        assert recorder.maybe_sample(1.0)
        assert len(recorder) == 2
        assert recorder.latest_time == 1.0

    def test_counter_delta_is_windowed(self):
        registry, recorder = recorded_registry()
        counter = registry.counter("requests_total")
        recorder.sample(0.0)
        counter.inc(3)
        recorder.sample(1.0)
        counter.inc(7)
        recorder.sample(2.0)
        assert recorder.counter_delta("requests_total", 1.0) == 7.0
        assert recorder.counter_delta("requests_total", 2.0) == 10.0

    def test_pre_history_reads_are_zero(self):
        registry, recorder = recorded_registry()
        registry.counter("requests_total").inc()
        recorder.sample(0.0)  # a single sample has nothing to diff
        assert recorder.counter_delta("requests_total", 1.0) == 0.0
        assert recorder.rate("requests_total", 1.0) == 0.0

    def test_rate_uses_actual_elapsed_time(self):
        registry, recorder = recorded_registry()
        counter = registry.counter("requests_total")
        recorder.sample(0.0)
        counter.inc(10)
        recorder.sample(2.0)
        # Requested a 10 s window, only 2 s of history: true rate.
        assert recorder.rate("requests_total", 10.0) == pytest.approx(5.0)

    def test_ring_bound_drops_oldest_samples(self):
        registry, recorder = recorded_registry(max_samples=3)
        counter = registry.counter("requests_total")
        for t in range(5):
            counter.inc()
            recorder.sample(float(t))
        assert len(recorder) == 3
        # Oldest retained sample is t=2 (value 3); latest is 5.
        assert recorder.counter_delta("requests_total", 100.0) == 2.0

    def test_histogram_delta(self):
        registry, recorder = recorded_registry()
        hist = registry.histogram("latency", buckets=BUCKETS)
        hist.observe(5e-4)
        recorder.sample(0.0)
        hist.observe(5e-3)
        hist.observe(5e-2)
        recorder.sample(1.0)
        delta = recorder.histogram_delta("latency", 1.0)
        assert delta["count"] == 2.0
        assert delta["sum"] == pytest.approx(5.5e-2)
        assert delta["buckets"] == {1e-3: 0.0, 1e-2: 1.0, 1e-1: 2.0}

    def test_fraction_above_resolves_at_bucket_granularity(self):
        registry, recorder = recorded_registry()
        hist = registry.histogram("latency", buckets=BUCKETS)
        recorder.sample(0.0)
        for value in (5e-4, 5e-4, 5e-3, 5e-2):
            hist.observe(value)
        recorder.sample(1.0)
        assert recorder.fraction_above("latency", 1e-3, 1.0) == 0.5
        # A threshold between bounds rounds the split up (conservative):
        # 5e-3 sits in the 1e-2 bucket, so it counts as good at 5e-3.
        assert recorder.fraction_above("latency", 5e-3, 1.0) == 0.25
        # Above every bound, only the +Inf residue is bad.
        assert recorder.fraction_above("latency", 1.0, 1.0) == 0.0
        assert recorder.fraction_above("missing", 1e-3, 1.0) == 0.0

    def test_percentile_upper_bound_flavour(self):
        registry, recorder = recorded_registry()
        hist = registry.histogram("latency", buckets=BUCKETS)
        recorder.sample(0.0)
        for value in (5e-4, 5e-4, 5e-4, 5e-3):
            hist.observe(value)
        recorder.sample(1.0)
        assert recorder.percentile("latency", 0.5, 1.0) == 1e-3
        assert recorder.percentile("latency", 0.99, 1.0) == 1e-2
        assert recorder.percentile("missing", 0.5, 1.0) is None
        with pytest.raises(ValueError):
            recorder.percentile("latency", 0.0, 1.0)

    def test_percentile_overflow_is_inf(self):
        registry, recorder = recorded_registry()
        hist = registry.histogram("latency", buckets=BUCKETS)
        recorder.sample(0.0)
        hist.observe(5.0)  # beyond the largest bound
        recorder.sample(1.0)
        assert recorder.percentile("latency", 0.5, 1.0) == float("inf")


class TestObjectives:
    def test_latency_objective(self):
        objective = latency_objective(
            "p95", "latency", 1e-2, target=0.9, labels={"tier": "a"}
        )
        assert objective.kind == "latency"
        assert objective.budget == pytest.approx(0.1)
        assert dict(objective.labels) == {"tier": "a"}

    def test_error_rate_objective(self):
        objective = error_rate_objective(
            "avail", "failures_total", ("ok_total", "failures_total")
        )
        assert objective.kind == "error_rate"
        assert objective.budget == pytest.approx(0.001)

    def test_validation(self):
        with pytest.raises(ValueError):
            SLObjective(name="x", kind="weird", target=0.9)
        with pytest.raises(ValueError):
            latency_objective("x", "m", 1e-2, target=1.0)
        with pytest.raises(ValueError):
            SLObjective(name="x", kind="latency", target=0.9)  # no metric
        with pytest.raises(ValueError):
            SLObjective(name="x", kind="error_rate", target=0.9)


class TestBurnWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            BurnWindow("w", long_s=1.0, short_s=2.0, max_burn=1.0)
        with pytest.raises(ValueError):
            BurnWindow("w", long_s=2.0, short_s=1.0, max_burn=0.0)


def latency_monitor():
    """A p90 monitor over one tight (4 s, 2 s) burn-window pair."""
    registry, recorder = recorded_registry(interval_s=1.0)
    hist = registry.histogram("latency", buckets=BUCKETS)
    monitor = SLOMonitor(
        [latency_objective("p90", "latency", 1e-2, target=0.9)],
        recorder,
        windows=(BurnWindow("w", long_s=4.0, short_s=2.0, max_burn=1.0),),
    )
    return hist, monitor


def overloaded_fleet_ledger():
    """The alert ledger of one overloaded single-replica virtual run."""
    clock = SimulatedClock()
    cluster = ServingCluster(
        lambda replica_id: TracedMatmulServable(seed=11),
        config=ClusterConfig(
            replicas=1,
            policy="least_outstanding",
            engine=EngineConfig(max_batch_size=4, max_wait_us=200.0, queue_depth=256),
            # Every batch costs >= 1 ms of virtual service time, so an
            # open-loop burst pushes latencies past the objective.
            service_model=IterationCost(base_s=1e-3, per_request_s=250e-6),
        ),
        clock=clock,
    )
    # Virtual-time windows sized for a millisecond-scale run; the
    # monitor reads the cluster's own registry, and maintain() ticks it.
    cluster.slo_monitor = SLOMonitor(
        [latency_objective("p95-latency", "cluster_request_latency_seconds", 1e-3)],
        TimeSeriesRecorder(cluster.metrics.registry, interval_s=0.2e-3),
        windows=(
            BurnWindow("fast", long_s=2e-3, short_s=0.5e-3, max_burn=2.0),
            BurnWindow("slow", long_s=8e-3, short_s=2e-3, max_burn=1.5),
        ),
    )
    rng = np.random.default_rng(13)
    payloads = [rng.uniform(-1.0, 1.0, (4, 16)) for _ in range(48)]
    gaps = rng.exponential(1e-4, size=len(payloads))
    with cluster:
        run_virtual_open_loop(cluster, payloads, gaps)
    return cluster.slo_monitor.ledger_dicts()


class TestSLOMonitor:
    def test_construction_validation(self):
        _, recorder = recorded_registry()
        objective = latency_objective("p90", "latency", 1e-2)
        with pytest.raises(ValueError):
            SLOMonitor([], recorder)
        with pytest.raises(ValueError):
            SLOMonitor([objective], recorder, windows=())
        with pytest.raises(ValueError):
            SLOMonitor([objective, objective], recorder)

    def test_firing_and_resolving_transitions(self):
        hist, monitor = latency_monitor()
        assert monitor.tick(0.0) == []  # healthy: no transition
        assert monitor.firing() == []
        for _ in range(5):
            hist.observe(5e-2)  # all bad
        fired = monitor.tick(1.0)
        assert [a.state for a in fired] == ["firing"]
        assert monitor.firing() == ["p90"]
        # Recovery: the short window drains first, and the alert needs
        # BOTH windows hot — so it resolves once the short burn drops.
        for _ in range(20):
            hist.observe(5e-4)
        assert monitor.tick(2.0) == []  # short baseline still sees the bad
        for _ in range(20):
            hist.observe(5e-4)
        resolved = monitor.tick(3.0)
        assert [a.state for a in resolved] == ["resolved"]
        assert monitor.firing() == []
        assert [a.state for a in monitor.ledger] == ["firing", "resolved"]

    def test_ledger_dicts_are_json_able(self):
        hist, monitor = latency_monitor()
        monitor.tick(0.0)
        hist.observe(5e-2)
        monitor.tick(1.0)
        (entry,) = monitor.ledger_dicts()
        assert entry["objective"] == "p90"
        assert entry["window"] == "w"
        assert entry["state"] == "firing"
        assert entry["time"] == 1.0
        assert entry["burn_long"] > 1.0 and entry["burn_short"] > 1.0

    def test_eval_cadence(self):
        hist, monitor = latency_monitor()
        monitor.tick(0.0)
        hist.observe(5e-2)
        assert monitor.tick(0.25) == []  # inside the eval interval
        assert monitor.firing() == []  # not even evaluated
        assert [a.state for a in monitor.tick(1.0)] == ["firing"]

    def test_error_rate_objective_burns(self):
        registry, recorder = recorded_registry(interval_s=1.0)
        ok = registry.counter("ok_total")
        failures = registry.counter("failures_total")
        monitor = SLOMonitor(
            [
                error_rate_objective(
                    "avail", "failures_total", ("ok_total", "failures_total")
                )
            ],
            recorder,
        )
        monitor.tick(0.0)
        ok.inc(9)
        failures.inc(1)  # 10% failures against a 0.1% budget
        fired = monitor.tick(1.0)
        # Both default SRE window pairs clip to the same short history,
        # so both fire on the same evaluation.
        assert [a.state for a in fired] == ["firing", "firing"]
        assert {a.window for a in fired} == {"fast", "slow"}
        assert monitor.firing() == ["avail"]

    def test_status_rows(self):
        hist, monitor = latency_monitor()
        monitor.tick(0.0)
        hist.observe(5e-2)
        monitor.tick(1.0)
        (row,) = monitor.status()
        assert row["objective"] == "p90"
        assert row["firing"] is True
        window = row["windows"]["w"]
        assert window["firing"] is True
        assert window["burn_long"] == pytest.approx(window["burn_short"])
        assert window["max_burn"] == 1.0

    def test_overloaded_fleet_ledger_replays_exactly(self):
        """A virtual-time fleet pushed past its 1 ms p95 objective fires
        burn-rate alerts, and a rerun writes the identical ledger."""
        first, second = overloaded_fleet_ledger(), overloaded_fleet_ledger()
        assert any(alert["state"] == "firing" for alert in first)
        assert first == second

