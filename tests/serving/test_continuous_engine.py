"""Engine-level tests for continuous (iteration-level) scheduling:
bit-equality against request mode and sequential decode, preemption
round-trips, eviction/close semantics, and the virtual cost model."""

import numpy as np
import pytest

from repro.obs import Tracer
from repro.serving import (
    DecodeServable,
    EngineClosed,
    EngineConfig,
    IterationCost,
    ServingEngine,
    SimulatedClock,
    decode_payload,
    mixed_decode_trace,
    run_decode_trace,
)
from repro.workloads import DecoderConfig, kv_cache_bytes


def toy_decoder(name="toy") -> DecoderConfig:
    return DecoderConfig(name, depth=2, dim=16, heads=2, mlp_ratio=2.0)


#: A four-lane continuous engine with no batching window.
CONTINUOUS = EngineConfig(max_batch_size=4, max_wait_us=0.0, scheduler="continuous")


def payload_fn(config, seed=3):
    return lambda i, t: decode_payload(seed, i, t, config.dim)


def sequential_outputs(config, specs, *, seed=1):
    """Each session decoded alone on a fresh engine: the bit oracle."""
    fn = payload_fn(config)
    outputs = {}
    for i, spec in enumerate(specs):
        engine = ServingEngine(
            DecodeServable(config, seed=seed),
            config=EngineConfig(max_batch_size=1, max_wait_us=0.0),
            clock=SimulatedClock(),
        )
        with engine:
            outs = []
            for t in range(spec.steps):
                handle = engine.submit(fn(i, t), session_id=spec.session_id)
                engine.step()
                outs.append(handle.result(timeout=0))
            outputs[spec.session_id] = outs
    return outputs


def trace_outputs(
    config, specs, *, scheduler, window_us=0.0, traced=False, **servable_kwargs
):
    clock = SimulatedClock()
    engine = ServingEngine(
        DecodeServable(config, seed=1, **servable_kwargs),
        config=EngineConfig(
            max_batch_size=4,
            max_wait_us=window_us,
            queue_depth=256,
            scheduler=scheduler,
            iteration_cost=IterationCost(base_s=2e-4, per_request_s=5e-5),
        ),
        clock=clock,
        tracer=Tracer(clock=clock) if traced else None,
    )
    with engine:
        result = run_decode_trace(
            engine,
            specs,
            payload_fn=payload_fn(config),
            idle_tick_s=window_us * 1e-6,
        )
    return result, engine


def assert_bit_equal(outputs, reference, specs):
    for spec in specs:
        got, want = outputs[spec.session_id], reference[spec.session_id]
        assert len(got) == len(want)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


class TestBitEquality:
    def test_continuous_matches_sequential_and_request(self):
        config = toy_decoder()
        specs = mixed_decode_trace(6, seed=11, max_steps=7, horizon_s=5e-3)
        reference = sequential_outputs(config, specs)
        continuous, _ = trace_outputs(config, specs, scheduler="continuous")
        request, _ = trace_outputs(
            config, specs, scheduler="request", window_us=1_000.0
        )
        assert_bit_equal(continuous["outputs"], reference, specs)
        assert_bit_equal(request["outputs"], reference, specs)

    def test_continuous_is_faster_than_request(self):
        config = toy_decoder()
        specs = mixed_decode_trace(8, seed=5, max_steps=8, horizon_s=8e-3)
        continuous, _ = trace_outputs(config, specs, scheduler="continuous")
        request, _ = trace_outputs(
            config, specs, scheduler="request", window_us=2_000.0
        )
        assert continuous["throughput_sps"] > request["throughput_sps"]

    def test_preemption_round_trip_is_bit_exact(self):
        config = toy_decoder()
        # Dense arrivals against a pool of 4 two-token pages (the
        # largest session alone needs all 4): admission must preempt.
        specs = mixed_decode_trace(8, seed=11, max_steps=8, horizon_s=2e-3)
        reference = sequential_outputs(config, specs)
        tight, engine = trace_outputs(
            config,
            specs,
            scheduler="continuous",
            block_size=2,
            kv_capacity_bytes=kv_cache_bytes(config, 2) * 4,
        )
        sched = engine._scheduler
        assert sched.preemptions > 0, "tight pool must force preemption"
        assert sched.swap_ins > 0, "preempted sessions must resume"
        assert_bit_equal(tight["outputs"], reference, specs)


class TestIterationMetrics:
    def test_occupancy_recorded(self):
        config = toy_decoder()
        specs = mixed_decode_trace(4, seed=2, max_steps=5, horizon_s=2e-3)
        _, engine = trace_outputs(config, specs, scheduler="continuous")
        occupancy = engine.metrics.iteration_occupancy()
        assert sum(occupancy.values()) == engine._scheduler.iterations
        snapshot = engine.metrics.snapshot()
        assert snapshot["mean_iteration_occupancy"] > 1.0
        assert set(snapshot["iteration_occupancy"]) == {
            str(k) for k in occupancy
        }

    def test_request_mode_records_no_iterations(self):
        config = toy_decoder()
        specs = mixed_decode_trace(3, seed=2, max_steps=4, horizon_s=2e-3)
        _, engine = trace_outputs(
            config, specs, scheduler="request", window_us=500.0
        )
        assert engine.metrics.iteration_occupancy() == {}


class TestLifecycle:
    def _engine(self):
        config = toy_decoder()
        return config, ServingEngine(
            DecodeServable(config, seed=1),
            config=CONTINUOUS,
            clock=SimulatedClock(),
        )

    def test_close_without_drain_fails_scheduler_held(self):
        config, engine = self._engine()
        engine.start()
        fn = payload_fn(config)
        handles = [engine.submit(fn(0, t), session_id="s") for t in range(3)]
        engine.step()  # first step executes; two remain scheduler-held
        engine.close(drain=False)
        assert handles[0].done() and handles[0].result(timeout=0) is not None
        for handle in handles[1:]:
            with pytest.raises(EngineClosed):
                handle.result(timeout=0)

    def test_evict_pending_merges_in_submission_order(self):
        config, engine = self._engine()
        engine.start()
        fn = payload_fn(config)
        engine.submit(fn(0, 0), session_id="a")
        engine.submit(fn(1, 0), session_id="b")
        engine.step()  # both admitted+executed; sessions now live
        engine.submit(fn(0, 1), session_id="a")
        engine.submit(fn(1, 1), session_id="b")
        engine.step()
        engine.submit(fn(0, 2), session_id="a")  # queue, not yet ingested
        evicted = engine.evict_pending()
        assert [r.request_id for r in evicted] == [4]
        assert engine.pending == 0
        engine.close(drain=False)

    def test_release_session_frees_pool_pages(self):
        config = toy_decoder()
        servable = DecodeServable(config, seed=1, block_size=2)
        engine = ServingEngine(
            servable, config=CONTINUOUS, clock=SimulatedClock()
        )
        with engine:
            fn = payload_fn(config)
            for t in range(3):
                engine.submit(fn(0, t), session_id="s")
                engine.step()
            pages = servable.cache.pool.in_use
            assert pages > 0
            freed = engine.release_session("s")
            assert freed == kv_cache_bytes(config, 4)  # 3 tokens, 2 pages
            assert servable.cache.pool.in_use == 0
            assert servable.cache.pool.free_blocks == pages

    def test_release_session_unknown_is_zero(self):
        config, engine = self._engine()
        with engine:
            assert engine.release_session("ghost") == 0


class TestValidation:
    def test_unknown_scheduler_rejected(self):
        config = toy_decoder()
        with pytest.raises(ValueError):
            ServingEngine(
                DecodeServable(config, seed=1),
                config=EngineConfig(scheduler="sorcery"),
            )

    def test_iteration_cost_requires_simulated_clock(self):
        config = toy_decoder()
        with pytest.raises(ValueError):
            ServingEngine(
                DecodeServable(config, seed=1),
                config=EngineConfig(iteration_cost=IterationCost()),
            )

    def test_trace_helpers_validate(self):
        with pytest.raises(ValueError):
            mixed_decode_trace(0)
        config = toy_decoder()
        engine = ServingEngine(DecodeServable(config, seed=1))  # wall clock
        specs = mixed_decode_trace(2, seed=0)
        with pytest.raises(ValueError):
            run_decode_trace(engine, specs, payload_fn=payload_fn(config))
        engine.close()


class TestWallClockContinuous:
    def test_background_worker_serves_sessions(self):
        config = toy_decoder()
        engine = ServingEngine(DecodeServable(config, seed=1), config=CONTINUOUS)
        fn = payload_fn(config)
        with engine:
            handles = [
                engine.submit(fn(i, t), session_id=f"s{i}")
                for t in range(3)
                for i in range(2)
            ]
            results = [h.result(timeout=5.0) for h in handles]
        assert all(isinstance(r, np.ndarray) for r in results)
        # Same steps through a manual sequential engine: bits must agree.
        specs = mixed_decode_trace(2, seed=0, min_steps=3, max_steps=3)
        reference = sequential_outputs(config, specs)
        for i in range(2):
            for t in range(3):
                np.testing.assert_array_equal(
                    results[t * 2 + i], reference[f"s{i}"][t]
                )
