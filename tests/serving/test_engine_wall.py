"""Tests for the wall-clock regime: worker thread + load generators.

These use real (but tiny) waits — microsecond-scale batching windows
and millisecond-scale workloads — so they stay fast-lane friendly.
"""

import numpy as np
import pytest

from repro.serving import (
    EngineConfig,
    ServingEngine,
    VisionServable,
    poisson_gaps,
    run_closed_loop,
    run_open_loop,
)
from tests.serving.test_engine import EchoServable
from tests.serving.test_servable import tiny_vit


def wall_engine(servable, **knobs) -> ServingEngine:
    """A wall-clock engine; ``knobs`` are :class:`EngineConfig` fields."""
    return ServingEngine(servable, config=EngineConfig(**knobs))


class TestWorkerThread:
    def test_submit_and_result_roundtrip(self):
        with wall_engine(EchoServable(), max_wait_us=100.0) as engine:
            assert engine.submit(21).result(timeout=5.0) == 42

    def test_concurrent_submissions_coalesce(self):
        servable = EchoServable()
        # A generous window lets the burst coalesce before dispatch.
        with wall_engine(
            servable, max_batch_size=8, max_wait_us=50_000.0
        ) as engine:
            handles = [engine.submit(i) for i in range(8)]
            assert [h.result(timeout=5.0) for h in handles] == [
                2 * i for i in range(8)
            ]
        assert max(servable.batches) > 1, "burst should have been coalesced"

    def test_execution_errors_reach_the_caller(self):
        with wall_engine(EchoServable(fail=True), max_wait_us=100.0) as engine:
            handle = engine.submit(1)
            with pytest.raises(RuntimeError):
                handle.result(timeout=5.0)

    def test_close_drains_in_flight_work(self):
        engine = wall_engine(EchoServable(), max_batch_size=2, max_wait_us=100.0)
        engine.start()
        handles = [engine.submit(i) for i in range(6)]
        engine.close()
        assert [h.result(timeout=0) for h in handles] == [2 * i for i in range(6)]

    def test_vision_model_served_on_the_worker(self):
        model = tiny_vit(seed=5)
        servable = VisionServable(model)
        image = np.random.default_rng(0).normal(size=(16, 16))
        with wall_engine(servable, max_wait_us=100.0) as engine:
            logits = engine.submit(image).result(timeout=10.0)
        assert np.array_equal(logits, model(image).data)


class TestLoadGenerators:
    def test_poisson_gaps_are_seeded(self):
        first = poisson_gaps(8, 1e-3, np.random.default_rng(1))
        second = poisson_gaps(8, 1e-3, np.random.default_rng(1))
        assert np.array_equal(first, second)
        assert first.shape == (8,) and (first >= 0).all()

    def test_zero_rate_means_a_burst(self):
        assert poisson_gaps(4, 0.0, np.random.default_rng(0)).tolist() == [0] * 4

    def test_poisson_gaps_validate(self):
        with pytest.raises(ValueError):
            poisson_gaps(-1, 1e-3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            poisson_gaps(4, -1.0, np.random.default_rng(0))

    def test_open_loop_reports_throughput_and_latency(self):
        with wall_engine(
            EchoServable(), max_batch_size=4, max_wait_us=200.0, queue_depth=64
        ) as engine:
            gaps = poisson_gaps(12, 1e-4, np.random.default_rng(2))
            result = run_open_loop(engine, list(range(12)), gaps)
        assert result["pattern"] == "open-loop-poisson"
        assert result["requests"] == 12
        assert result["throughput_rps"] > 0
        assert result["latency_p99_ms"] >= result["latency_p50_ms"] >= 0
        assert result["mean_batch_size"] >= 1.0

    def test_open_loop_validates_schedule(self):
        with wall_engine(EchoServable(), max_wait_us=100.0) as engine:
            with pytest.raises(ValueError):
                run_open_loop(engine, [1, 2], [0.0])

    def test_closed_loop_runs_every_round(self):
        with wall_engine(
            EchoServable(), max_batch_size=4, max_wait_us=200.0
        ) as engine:
            result = run_closed_loop(engine, [1, 2, 3], rounds=3)
        assert result["pattern"] == "closed-loop"
        assert result["concurrency"] == 3
        assert result["requests"] == 9
        assert result["throughput_rps"] > 0

    def test_closed_loop_validates_rounds(self):
        with wall_engine(EchoServable(), max_wait_us=100.0) as engine:
            with pytest.raises(ValueError):
                run_closed_loop(engine, [1], rounds=0)

    def test_closed_loop_surfaces_user_errors(self):
        with wall_engine(EchoServable(fail=True), max_wait_us=100.0) as engine:
            with pytest.raises(RuntimeError):
                run_closed_loop(engine, [1, 2], rounds=1)


class TestLoadGenEdgeCases:
    def test_empty_open_loop_reports_zeros(self):
        with wall_engine(EchoServable(), max_wait_us=100.0) as engine:
            result = run_open_loop(engine, [], [])
        assert result["requests"] == 0
        assert result["throughput_rps"] == 0.0
        assert result["latency_p99_ms"] == 0.0
