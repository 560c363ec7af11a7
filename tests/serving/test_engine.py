"""Tests for the serving engine: manual (simulated-clock) regime."""

import numpy as np
import pytest

from repro.serving import (
    EngineClosed,
    EngineConfig,
    QueueFull,
    Servable,
    ServingEngine,
    ServingError,
    SessionCache,
    SimulatedClock,
    VisionServable,
)
from tests.serving.test_servable import tiny_vit


class EchoServable(Servable):
    """Doubles each payload; optionally misbehaves, for failure paths."""

    name = "echo"

    def __init__(self, fail=False, short_output=False):
        self.fail = fail
        self.short_output = short_output
        self.batches: list[int] = []

    def prepare(self, payload):
        if payload is None:
            raise ValueError("bad payload")
        return payload

    def execute(self, requests):
        self.batches.append(len(requests))
        if self.fail:
            raise RuntimeError("photonic core fell over")
        outputs = [2 * request.payload for request in requests]
        return outputs[:-1] if self.short_output else outputs


def manual_engine(servable=None, *, clock=None, cache=None, **knobs) -> ServingEngine:
    """A simulated-clock engine; ``knobs`` are :class:`EngineConfig` fields."""
    return ServingEngine(
        servable if servable is not None else EchoServable(),
        config=EngineConfig(**knobs),
        clock=clock if clock is not None else SimulatedClock(),
        cache=cache,
    )


class TestSubmitAndStep:
    def test_submit_returns_pending_handle(self):
        engine = manual_engine()
        handle = engine.submit(21)
        assert not handle.done()
        assert engine.pending == 1

    def test_step_resolves_handles(self):
        engine = manual_engine()
        handles = [engine.submit(i) for i in range(3)]
        assert engine.step() == 3
        assert [h.result(timeout=0) for h in handles] == [0, 2, 4]
        assert all(h.batch_size == 3 for h in handles)

    def test_prepare_errors_fail_fast_at_submit(self):
        engine = manual_engine()
        with pytest.raises(ValueError):
            engine.submit(None)
        assert engine.pending == 0

    def test_policy_respected_without_force(self):
        clock = SimulatedClock()
        engine = manual_engine(max_batch_size=2, max_wait_us=1_000.0, clock=clock)
        engine.submit(1)
        assert engine.step(force=False) == 0, "partial batch inside the wait budget"
        clock.advance(1.5e-3)
        assert engine.step(force=False) == 1
        engine.submit(2)
        engine.submit(3)
        assert engine.step(force=False) == 2, "full batch dispatches immediately"

    def test_run_until_idle_processes_everything(self):
        engine = manual_engine(max_batch_size=4)
        handles = [engine.submit(i) for i in range(10)]
        assert engine.run_until_idle() == 10
        assert engine.pending == 0
        assert all(h.done() for h in handles)

    def test_coalescing_respects_max_batch_size(self):
        servable = EchoServable()
        engine = manual_engine(servable, max_batch_size=4)
        for i in range(10):
            engine.submit(i)
        engine.run_until_idle()
        assert servable.batches == [4, 4, 2]
        assert engine.metrics.batch_occupancy() == {2: 1, 4: 2}

    def test_latency_comes_from_the_simulated_clock(self):
        clock = SimulatedClock()
        engine = manual_engine(clock=clock)
        handle = engine.submit(1)
        clock.advance(4e-3)
        engine.step()
        assert handle.latency == pytest.approx(4e-3)
        assert handle.queue_wait == pytest.approx(4e-3)

    def test_snapshot_is_exact_under_the_simulated_clock(self):
        """A full batch leaves at once; a partial one leaves when its
        2 ms wait budget expires, so its requests age exactly 2.5 ms."""
        clock = SimulatedClock()
        engine = manual_engine(
            VisionServable(tiny_vit()), max_batch_size=4, max_wait_us=2_000.0, clock=clock
        )
        rng = np.random.default_rng(4)
        with engine:
            for _ in range(4):
                engine.submit(rng.normal(size=(16, 16)))
            assert engine.step(force=False) == 4
            for _ in range(2):
                engine.submit(rng.normal(size=(16, 16)))
            assert engine.step(force=False) == 0
            clock.advance(2.5e-3)
            assert engine.step(force=False) == 2
            snapshot = engine.metrics.snapshot()
        assert snapshot["batch_occupancy"] == {"4": 1, "2": 1}
        assert snapshot["completed"] == 6
        assert snapshot["latency_s"]["p99"] == pytest.approx(2.5e-3, abs=1e-12)


class TestFailurePaths:
    def test_execution_errors_propagate_to_every_handle(self):
        engine = manual_engine(EchoServable(fail=True))
        handles = [engine.submit(i) for i in range(2)]
        engine.step()
        for handle in handles:
            assert isinstance(handle.exception(timeout=0), RuntimeError)
            with pytest.raises(RuntimeError):
                handle.result(timeout=0)
        assert engine.metrics.failed == 2
        assert engine.metrics.completed == 0

    def test_output_count_mismatch_is_a_serving_error(self):
        engine = manual_engine(EchoServable(short_output=True))
        handles = [engine.submit(i) for i in range(2)]
        engine.step()
        assert isinstance(handles[0].exception(timeout=0), ServingError)

    def test_unresolved_result_times_out(self):
        engine = manual_engine()
        handle = engine.submit(1)
        with pytest.raises(TimeoutError):
            handle.result(timeout=0)


class TestBackpressure:
    def test_manual_mode_sheds_load_when_full(self):
        engine = manual_engine(queue_depth=2)
        engine.submit(1)
        engine.submit(2)
        with pytest.raises(QueueFull):
            engine.submit(3)
        engine.run_until_idle()
        engine.submit(4)  # capacity freed


class TestLifecycle:
    def test_context_manager_drains_on_exit(self):
        with manual_engine() as engine:
            handles = [engine.submit(i) for i in range(3)]
        assert engine.closed
        assert [h.result(timeout=0) for h in handles] == [0, 2, 4]

    def test_close_without_drain_fails_pending(self):
        engine = manual_engine()
        handle = engine.submit(1)
        engine.close(drain=False)
        assert isinstance(handle.exception(timeout=0), EngineClosed)
        assert engine.metrics.failed == 1

    def test_submit_after_close_rejected(self):
        engine = manual_engine()
        engine.close()
        with pytest.raises(EngineClosed):
            engine.submit(1)

    def test_close_is_idempotent(self):
        engine = manual_engine()
        engine.close()
        engine.close()

    def test_policy_and_knobs_are_exclusive(self):
        """The config's knobs are the only way to set batching; there is
        no separate policy object."""
        with pytest.raises(TypeError):
            EngineConfig(policy=object())


class TestCacheIntegration:
    def test_repeated_prompt_is_served_from_cache(self):
        cache = SessionCache(capacity_bytes=1 << 16)
        engine = manual_engine(cache=cache)
        first = engine.submit(5, cache_key="p")
        engine.run_until_idle()
        second = engine.submit(5, cache_key="p")
        assert second.done() and second.cache_hit
        assert second.batch_size == 0
        assert second.result(timeout=0) == first.result(timeout=0) == 10
        assert engine.metrics.cache_hits == 1
        assert cache.hits == 1

    def test_distinct_keys_miss(self):
        engine = manual_engine(cache=SessionCache())
        engine.submit(5, cache_key="a")
        engine.run_until_idle()
        other = engine.submit(6, cache_key="b")
        assert not other.done()
        engine.run_until_idle()
        assert other.result(timeout=0) == 12

    def test_no_cache_no_memoization(self):
        engine = manual_engine()
        engine.submit(5, cache_key="p")
        engine.run_until_idle()
        repeat = engine.submit(5, cache_key="p")
        assert not repeat.done()
        engine.run_until_idle()


class TestDynamicVersusSequential:
    def test_vision_bit_identical(self):
        """The acceptance invariant, in miniature: coalesced == sequential."""
        rng = np.random.default_rng(0)
        images = [rng.normal(size=(16, 16)) for _ in range(6)]

        def run(max_batch_size):
            engine = manual_engine(
                VisionServable(tiny_vit(seed=3)), max_batch_size=max_batch_size
            )
            with engine:
                handles = [engine.submit(img) for img in images]
                engine.run_until_idle()
                return [h.result(timeout=0) for h in handles]

        sequential = run(1)
        batched = run(4)
        for s, b in zip(sequential, batched):
            assert np.array_equal(s, b)


class TestRemainingBranches:
    def test_start_after_close_rejected(self):
        engine = manual_engine()
        engine.close()
        with pytest.raises(EngineClosed):
            engine.start()

    def test_exception_accessor_times_out_while_pending(self):
        engine = manual_engine()
        handle = engine.submit(1)
        with pytest.raises(TimeoutError):
            handle.exception(timeout=0)

    def test_exception_is_none_on_success(self):
        engine = manual_engine()
        handle = engine.submit(1)
        engine.step()
        assert handle.exception(timeout=0) is None

    def test_nonblocking_submit_sheds_load_in_wall_mode(self):
        from repro.serving import WallClock

        # Unstarted wall-clock engine: the queue fills with no consumer.
        engine = ServingEngine(
            EchoServable(), config=EngineConfig(queue_depth=1), clock=WallClock()
        )
        engine.submit(1, block=False)
        with pytest.raises(QueueFull):
            engine.submit(2, block=False)
        engine.close(drain=False)

    def test_handle_timestamps_before_resolution(self):
        engine = manual_engine()
        handle = engine.submit(1)
        assert handle.latency is None and handle.queue_wait is None


class TestCloseAndBackpressureEdges:
    """The thin paths: drain=False propagation and QueueFull recovery."""

    def test_close_without_drain_fails_every_pending_handle(self):
        engine = manual_engine(queue_depth=8)
        handles = [engine.submit(i) for i in range(5)]
        engine.close(drain=False)
        for handle in handles:
            error = handle.exception(timeout=0)
            assert isinstance(error, EngineClosed)
            with pytest.raises(EngineClosed, match="closed before execution"):
                handle.result(timeout=0)
            assert handle.batch_size is None  # never reached a batch
        assert engine.metrics.failed == 5
        assert engine.metrics.completed == 0

    def test_close_without_drain_spares_resolved_handles(self):
        engine = manual_engine()
        done = engine.submit(3)
        engine.step()
        pending = engine.submit(4)
        engine.close(drain=False)
        assert done.result(timeout=0) == 6
        assert isinstance(pending.exception(timeout=0), EngineClosed)
        assert engine.metrics.completed == 1
        assert engine.metrics.failed == 1

    def test_queue_full_error_names_the_capacity(self):
        engine = manual_engine(queue_depth=2)
        engine.submit(1)
        engine.submit(2)
        with pytest.raises(QueueFull, match="capacity \\(2\\)"):
            engine.submit(3)
        # Shedding left the queued work untouched.
        assert engine.pending == 2
        assert engine.run_until_idle() == 2

    def test_queue_full_repeats_until_a_step_frees_capacity(self):
        engine = manual_engine(queue_depth=1, max_batch_size=1)
        first = engine.submit(1)
        for _ in range(3):
            with pytest.raises(QueueFull):
                engine.submit(99)
        engine.step()
        second = engine.submit(2)
        engine.step()
        assert (first.result(timeout=0), second.result(timeout=0)) == (2, 4)

    def test_evict_pending_removes_without_failing(self):
        engine = manual_engine()
        handles = [engine.submit(i) for i in range(3)]
        evicted = engine.evict_pending()
        assert [request.handle for request in evicted] == handles
        assert engine.pending == 0
        assert not any(handle.done() for handle in handles)
        engine.close(drain=False)  # nothing left to fail
        assert engine.metrics.failed == 0


class TestDoneCallbacks:
    def test_callback_fires_on_resolution(self):
        engine = manual_engine()
        seen = []
        handle = engine.submit(5)
        handle.add_done_callback(seen.append)
        assert seen == []
        engine.step()
        assert seen == [handle]
        assert seen[0].result(timeout=0) == 10

    def test_callback_fires_immediately_when_already_done(self):
        engine = manual_engine()
        handle = engine.submit(5)
        engine.step()
        seen = []
        handle.add_done_callback(seen.append)
        assert seen == [handle]

    def test_callback_fires_on_failure_paths(self):
        engine = manual_engine(EchoServable(fail=True))
        executed = engine.submit(1)
        failures = []
        executed.add_done_callback(
            lambda h: failures.append(type(h.exception(timeout=0)))
        )
        engine.step()
        closed = engine.submit(2)
        closed.add_done_callback(
            lambda h: failures.append(type(h.exception(timeout=0)))
        )
        engine.close(drain=False)
        assert failures == [RuntimeError, EngineClosed]
