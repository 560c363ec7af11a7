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
from repro.serving.loadgen import bit_equal, sequential_decode
from repro.workloads import DecoderConfig, kv_cache_bytes
from tests.cluster.sim_gates import continuous_trace, golden


def toy_decoder(name="toy") -> DecoderConfig:
    return DecoderConfig(name, depth=2, dim=16, heads=2, mlp_ratio=2.0)


#: A four-lane continuous engine with no batching window.
CONTINUOUS = EngineConfig(max_batch_size=4, max_wait_us=0.0, scheduler="continuous")


def payload_fn(config, seed=3):
    return lambda i, t: decode_payload(seed, i, t, config.dim)


def oracle(config, specs):
    """Each session decoded alone on a fresh engine: the bit oracle."""
    return sequential_decode(lambda: DecodeServable(config, seed=1), specs, payload_fn(config))


def trace_outputs(
    config,
    specs,
    *,
    scheduler,
    window_us=0.0,
    traced=False,
    max_batch_size=4,
    **servable_kwargs,
):
    clock = SimulatedClock()
    engine = ServingEngine(
        DecodeServable(config, seed=1, **servable_kwargs),
        config=EngineConfig(
            max_batch_size=max_batch_size,
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


class TestBitEquality:
    """The continuous-batching gates on the seeded 12-session trace:
    eight lanes under one shared iteration cost, request mode paying a
    2 ms batching window on every partial batch."""

    def test_continuous_matches_sequential_and_request(self):
        config = toy_decoder()
        specs = continuous_trace()
        reference = oracle(config, specs)
        continuous, engine = trace_outputs(
            config, specs, scheduler="continuous", max_batch_size=8
        )
        request, _ = trace_outputs(
            config, specs, scheduler="request", window_us=2_000.0, max_batch_size=8
        )
        assert bit_equal(continuous["outputs"], reference)
        assert bit_equal(request["outputs"], reference)
        assert {
            str(k): v for k, v in engine.metrics.iteration_occupancy().items()
        } == golden("continuous", "equivalence", "iteration_occupancy")

    def test_continuous_is_faster_than_request(self):
        config = toy_decoder()
        specs = continuous_trace()
        continuous, engine = trace_outputs(
            config, specs, scheduler="continuous", max_batch_size=8
        )
        request, _ = trace_outputs(
            config, specs, scheduler="request", window_us=2_000.0, max_batch_size=8
        )
        gain = continuous["throughput_sps"] / request["throughput_sps"]
        assert continuous["throughput_sps"] > request["throughput_sps"]
        assert gain >= 1.2, f"continuous gain {gain:.2f}x below the 1.2x floor"
        assert {
            "steps": continuous["steps"],
            "continuous_makespan_s": continuous["makespan_s"],
            "request_makespan_s": request["makespan_s"],
            "continuous_sps": continuous["throughput_sps"],
            "request_sps": request["throughput_sps"],
            "gain": gain,
            "mean_iteration_occupancy": engine.metrics.mean_iteration_occupancy(),
        } == golden("continuous", "throughput")

    def test_preemption_round_trip_is_bit_exact(self):
        config = toy_decoder()
        specs = continuous_trace()
        reference = oracle(config, specs)
        # A pool of 5 two-token pages cannot hold the whole active set
        # (the longest session alone needs 5): admission must preempt.
        tight, engine = trace_outputs(
            config,
            specs,
            scheduler="continuous",
            max_batch_size=8,
            block_size=2,
            kv_capacity_bytes=kv_cache_bytes(config, 2) * 5,
        )
        sched = engine._scheduler
        assert sched.preemptions > 0, "tight pool must force preemption"
        assert sched.swap_ins > 0, "preempted sessions must resume"
        assert bit_equal(tight["outputs"], reference)
        pinned = golden("continuous", "equivalence")
        assert (sched.preemptions, sched.swap_ins, engine.servable.cache.pool.reuses) == (
            pinned["preemptions"], pinned["swap_ins"], pinned["pool_reuses"]
        )


class TestPagedAccounting:
    @pytest.mark.parametrize("block_size", [1, 2, 4])
    def test_ledger_pool_and_formula_agree_after_a_trace(self, block_size):
        """With every session of the trace still resident, each
        session's ledger equals its page-rounded ``kv_cache_bytes`` and
        the pool's budget equals the ledger's resident total."""
        config = toy_decoder()
        specs = continuous_trace()
        servable = DecodeServable(config, seed=1, block_size=block_size)
        engine = ServingEngine(servable, config=CONTINUOUS, clock=SimulatedClock())
        cache = servable.cache
        with engine:
            run_decode_trace(
                engine, specs, payload_fn=payload_fn(config), release=False
            )
            for spec in specs:
                pages = -(-spec.steps // block_size)
                assert cache.session_bytes(spec.session_id) == kv_cache_bytes(
                    config, pages * block_size
                )
            assert cache.resident_kv_bytes() == cache.pool.in_use_bytes
        assert cache.resident_kv_bytes() == golden(
            "continuous", "accounting", f"block_size_{block_size}", "resident_bytes"
        )


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

    def test_request_mode_iterations_match_batches(self):
        """Request mode runs the same iteration loop: each executed
        batch is one iteration of the same occupancy."""
        config = toy_decoder()
        specs = mixed_decode_trace(3, seed=2, max_steps=4, horizon_s=2e-3)
        _, engine = trace_outputs(
            config, specs, scheduler="request", window_us=500.0
        )
        occupancy = engine.metrics.iteration_occupancy()
        assert occupancy
        assert occupancy == engine.metrics.batch_occupancy()


class TestKVBudget:
    @pytest.mark.parametrize(
        "scheduler, window_us", [("request", 1_000.0), ("continuous", 0.0)]
    )
    def test_preempts_within_the_kv_budget(self, scheduler, window_us):
        """Both modes keep the pool within ``kv_capacity_bytes``,
        counting the pages each planned step allocates: they preempt
        instead of overrunning."""
        config = toy_decoder()
        specs = mixed_decode_trace(8, seed=11, max_steps=8, horizon_s=2e-3)
        reference = oracle(config, specs)
        capacity = kv_cache_bytes(config, 2) * 4
        servable = DecodeServable(
            config, seed=1, block_size=2, kv_capacity_bytes=capacity
        )
        in_use = []
        execute = servable.execute

        def recording_execute(requests):
            outputs = execute(requests)
            in_use.append(servable.cache.pool.in_use_bytes)
            return outputs

        servable.execute = recording_execute
        engine = ServingEngine(
            servable,
            config=EngineConfig(
                max_batch_size=4,
                max_wait_us=window_us,
                queue_depth=256,
                scheduler=scheduler,
                iteration_cost=IterationCost(base_s=2e-4, per_request_s=5e-5),
            ),
            clock=SimulatedClock(),
        )
        with engine:
            result = run_decode_trace(
                engine,
                specs,
                payload_fn=payload_fn(config),
                idle_tick_s=window_us * 1e-6,
            )
        assert in_use and max(in_use) <= capacity
        assert engine._scheduler.preemptions > 0
        assert bit_equal(result["outputs"], reference)


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
        reference = oracle(config, specs)
        assert bit_equal(results, [reference[f"s{i}"][t] for t in range(3) for i in range(2)])
