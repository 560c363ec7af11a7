"""Tests for the serving metrics recorder (deterministic, no sleeps)."""

import numpy as np
import pytest

from repro.serving import Metrics, RequestRecord, summarize


def request_record(
    arrival: float,
    started: float,
    finished: float,
    batch_size: int = 1,
    cache_hit: bool = False,
) -> RequestRecord:
    return RequestRecord(arrival, started, finished, batch_size, cache_hit)


class TestMetrics:
    def test_empty_snapshot_is_all_zero(self):
        snapshot = Metrics().snapshot()
        assert snapshot["completed"] == 0
        assert snapshot["throughput_rps"] == 0.0
        assert snapshot["latency_s"] == {"mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        assert snapshot["batch_occupancy"] == {}

    def test_latency_and_wait_summaries(self):
        metrics = Metrics()
        # Queue waits 1/2/3 ms; each batch runs for 1 ms.
        for i, wait in enumerate((1e-3, 2e-3, 3e-3)):
            metrics.record(
                request_record(arrival=i, started=i + wait, finished=i + wait + 1e-3)
            )
        latency = metrics.latency_summary()
        assert latency["p50"] == pytest.approx(3e-3)
        assert latency["mean"] == pytest.approx(np.mean([2e-3, 3e-3, 4e-3]))
        wait = metrics.queue_wait_summary()
        assert wait["p50"] == pytest.approx(2e-3)

    def test_throughput_spans_arrival_to_completion(self):
        metrics = Metrics()
        metrics.record(request_record(arrival=0.0, started=0.0, finished=1.0))
        metrics.record(request_record(arrival=1.0, started=1.5, finished=2.0))
        assert metrics.throughput() == 1.0  # 2 requests over a 2 s span

    def test_degenerate_span_reports_zero(self):
        metrics = Metrics()
        metrics.record(request_record(arrival=1.0, started=1.0, finished=1.0))
        assert metrics.throughput() == 0.0

    def test_occupancy_histogram(self):
        metrics = Metrics()
        for size in (4, 2, 4, 1):
            metrics.record_batch(size)
        assert metrics.batch_occupancy() == {1: 1, 2: 1, 4: 2}
        assert metrics.mean_occupancy() == (4 + 2 + 4 + 1) / 4

    def test_cache_hits_and_failures(self):
        metrics = Metrics()
        metrics.record(
            request_record(0.0, 0.0, 0.0, batch_size=0, cache_hit=True)
        )
        metrics.record(request_record(0.0, 0.0, 1.0))
        metrics.record_failures(3)
        assert metrics.cache_hits == 1
        assert metrics.completed == 2
        assert metrics.failed == 3

    def test_snapshot_is_json_shaped(self):
        import json

        metrics = Metrics()
        metrics.record_batch(2)
        metrics.record(request_record(0.0, 0.5, 1.0, batch_size=2))
        snapshot = metrics.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["batch_occupancy"] == {"2": 1}
        assert snapshot["mean_batch_occupancy"] == 2.0

    def test_zero_request_snapshot_has_percentile_keys(self):
        """Both summaries keep their full key set with no records —
        dashboards never see a missing key or a NaN."""
        snapshot = Metrics().snapshot()
        for key in ("latency_s", "queue_wait_s"):
            assert set(snapshot[key]) == {"mean", "p50", "p95", "p99"}
            assert all(value == 0.0 for value in snapshot[key].values())

    def test_prometheus_exposition(self):
        metrics = Metrics()
        metrics.record(request_record(0.0, 0.5, 1.0))
        metrics.record_batch(2)
        text = metrics.to_prometheus()
        assert "serving_requests_completed_total 1" in text
        assert 'serving_batches_total{size="2"} 1' in text
        assert "# TYPE serving_request_latency_seconds histogram" in text

    def test_snapshot_exposes_queue_wait_percentiles(self):
        """Queue waits (submit -> batch formation) appear in the JSON."""
        metrics = Metrics()
        for i, wait in enumerate((1e-3, 2e-3, 4e-3, 8e-3)):
            metrics.record(
                request_record(arrival=i, started=i + wait, finished=i + wait)
            )
        wait = metrics.snapshot()["queue_wait_s"]
        assert set(wait) == {"mean", "p50", "p95", "p99"}
        assert wait["p50"] == pytest.approx(3e-3)
        assert wait["mean"] == pytest.approx(np.mean([1e-3, 2e-3, 4e-3, 8e-3]))
        assert wait["p99"] == pytest.approx(
            np.percentile([1e-3, 2e-3, 4e-3, 8e-3], 99)
        )


class TestSummarize:
    def test_empty_series_is_all_zero(self):
        assert summarize([]) == {"mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_percentiles_match_numpy(self):
        values = [1.0, 2.0, 3.0, 10.0]
        summary = summarize(values)
        assert summary["mean"] == pytest.approx(4.0)
        assert summary["p95"] == pytest.approx(np.percentile(values, 95))


class TestMergedMetrics:
    def test_records_accessor_returns_copies(self):
        metrics = Metrics()
        metrics.record(request_record(0.0, 0.5, 1.0))
        records = metrics.records()
        assert len(records) == 1
        records.clear()
        assert metrics.completed == 1

    def test_merged_pools_raw_records_not_summaries(self):
        """Percentiles of the merged fleet come from pooled records —
        aggregating per-replica p50s would give a different (wrong)
        answer for any skewed split."""
        a, b = Metrics(), Metrics()
        for wait in (1e-3, 2e-3, 3e-3):
            a.record(request_record(0.0, wait, wait))
        b.record(request_record(0.0, 10e-3, 10e-3))
        a.record_batch(2)
        b.record_batch(2)
        b.record_batch(4)
        b.record_failures(2)
        merged = Metrics.merged([a, b])
        assert merged.completed == 4
        assert merged.failed == 2
        assert merged.batch_occupancy() == {2: 2, 4: 1}
        # Pooled waits 1/2/3/10 ms: p50 = 2.5 ms; the mean of the two
        # per-part p50s (2 ms and 10 ms) would be 6 ms.
        assert merged.queue_wait_summary()["p50"] == pytest.approx(2.5e-3)
        # Merging copies: later records in the parts don't leak in.
        a.record(request_record(0.0, 1.0, 1.0))
        assert merged.completed == 4

    def test_merged_of_no_parts_is_empty(self):
        merged = Metrics.merged([])
        assert merged.completed == 0
        assert merged.failed == 0
        assert merged.throughput() == 0.0
        snapshot = merged.snapshot()
        assert snapshot["latency_s"] == {
            "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }
        assert snapshot["batch_occupancy"] == {}

    def test_merged_failures_only_parts(self):
        """Parts that saw only failures still contribute their counts."""
        a, b = Metrics(), Metrics()
        a.record_failures(2)
        b.record_failures(1)
        merged = Metrics.merged([a, b])
        assert merged.completed == 0
        assert merged.failed == 3
        assert merged.throughput() == 0.0
        assert merged.latency_summary()["p99"] == 0.0

    def test_record_accepts_prebuilt_records(self):
        source = Metrics()
        source.record(request_record(0.0, 0.5, 1.0))
        target = Metrics()
        for record in source.records():
            target.record(record)
        assert target.completed == 1
        assert target.latency_summary()["p50"] == pytest.approx(1.0)


class TestIterationOccupancy:
    def test_record_and_histogram(self):
        metrics = Metrics()
        for active in (1, 3, 3, 2):
            metrics.record_iteration(active)
        assert metrics.iteration_occupancy() == {1: 1, 2: 1, 3: 2}
        assert metrics.mean_iteration_occupancy() == pytest.approx(9 / 4)

    def test_empty_histogram(self):
        metrics = Metrics()
        assert metrics.iteration_occupancy() == {}
        assert metrics.mean_iteration_occupancy() == 0.0

    def test_snapshot_keys(self):
        metrics = Metrics()
        metrics.record_iteration(2)
        snapshot = metrics.snapshot()
        assert snapshot["iteration_occupancy"] == {"2": 1}
        assert snapshot["mean_iteration_occupancy"] == pytest.approx(2.0)

    def test_merged_pools_iterations(self):
        a, b = Metrics(), Metrics()
        a.record_iteration(2)
        b.record_iteration(2)
        b.record_iteration(4)
        merged = Metrics.merged([a, b])
        assert merged.iteration_occupancy() == {2: 2, 4: 1}
        assert merged.mean_iteration_occupancy() == pytest.approx(8 / 3)
