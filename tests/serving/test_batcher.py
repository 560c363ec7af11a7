"""Engine-level tests of request-mode dynamic batching.

Request-level batching is the batching window of the engine's one
iteration loop: a partial batch waits up to ``max_wait_us`` for company,
and each iteration admits one FIFO batch of at most ``max_batch_size``.
"""

import pytest

from repro.serving import EngineConfig, ServingEngine, SimulatedClock
from tests.serving.test_engine import EchoServable, manual_engine


class TestBatchingWindowConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.max_batch_size == 8
        assert config.max_wait_us == pytest.approx(1_000.0)
        assert config.scheduler == "request"

    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(max_batch_size=0)
        with pytest.raises(ValueError):
            EngineConfig(max_wait_us=-1.0)

    def test_wait_conversion(self):
        clock = SimulatedClock()
        engine = manual_engine(max_wait_us=2_500.0, clock=clock)
        engine.submit(0)
        clock.advance(2.4e-3)
        assert engine.step(force=False) == 0
        clock.advance(0.2e-3)
        assert engine.step(force=False) == 1


class TestCollect:
    """Manual (simulated-clock) stepping against the window."""

    def make(self, max_batch_size=4, max_wait_us=1_000.0):
        clock = SimulatedClock()
        servable = EchoServable()
        engine = manual_engine(
            servable,
            clock=clock,
            max_batch_size=max_batch_size,
            max_wait_us=max_wait_us,
            queue_depth=32,
        )
        return engine, servable, clock

    def test_empty_queue_yields_nothing(self):
        engine, servable, _ = self.make()
        assert engine.step(force=False) == 0
        assert engine.step(force=True) == 0
        assert servable.batches == []

    def test_full_batch_dispatches_immediately(self):
        engine, servable, _ = self.make(max_batch_size=3)
        handles = [engine.submit(i) for i in range(5)]
        assert engine.step(force=False) == 3
        assert [h.result(timeout=0) for h in handles[:3]] == [0, 2, 4]
        assert not handles[3].done()
        assert engine.pending == 2

    def test_partial_batch_waits_for_the_budget(self):
        engine, servable, clock = self.make(max_batch_size=4, max_wait_us=1_000.0)
        engine.submit(0)
        engine.submit(1)
        assert engine.step(force=False) == 0
        clock.advance(0.5e-3)
        assert engine.step(force=False) == 0, "wait budget not yet expired"
        clock.advance(0.6e-3)
        assert engine.step(force=False) == 2
        assert servable.batches == [2]

    def test_budget_counts_from_the_oldest_request(self):
        engine, servable, clock = self.make(max_batch_size=4, max_wait_us=1_000.0)
        engine.submit(0)
        clock.advance(0.9e-3)
        engine.submit(1)
        clock.advance(0.2e-3)  # oldest is now 1.1 ms old, newest 0.2 ms
        assert engine.step(force=False) == 2

    def test_zero_wait_dispatches_whatever_is_queued(self):
        engine, _, _ = self.make(max_batch_size=8, max_wait_us=0.0)
        handle = engine.submit(0)
        assert engine.step(force=False) == 1
        assert handle.result(timeout=0) == 0

    def test_force_overrides_the_policy(self):
        engine, _, _ = self.make(max_batch_size=8, max_wait_us=10_000.0)
        engine.submit(0)
        assert engine.step(force=False) == 0
        assert engine.step(force=True) == 1

    def test_each_iteration_admits_one_fifo_batch(self):
        # Sessions x and y are admitted first, so they outrank z.  The
        # next iteration still takes the queue's head batch (y, z), not
        # the highest-priority sessions across everything queued.
        engine, servable, _ = self.make(max_batch_size=2, max_wait_us=10_000.0)
        engine.submit(0, session_id="x")
        engine.submit(1, session_id="y")
        assert engine.step() == 2
        y1 = engine.submit(2, session_id="y")
        z0 = engine.submit(3, session_id="z")
        x1 = engine.submit(4, session_id="x")
        assert engine.step() == 2
        assert y1.done() and z0.done() and not x1.done()
        assert engine.step() == 1 and x1.done()

    def test_closed_queue_drains_immediately(self):
        engine, servable, _ = self.make(max_batch_size=8, max_wait_us=10_000.0)
        handle = engine.submit(0)
        engine.close()
        assert handle.result(timeout=0) == 0
        assert servable.batches == [1]


class TestNextBatch:
    """The wall-clock worker thread sleeping on the window."""

    def make(self, max_batch_size=4, max_wait_us=500.0):
        servable = EchoServable()
        engine = ServingEngine(
            servable,
            config=EngineConfig(
                max_batch_size=max_batch_size,
                max_wait_us=max_wait_us,
                queue_depth=32,
            ),
        )
        return engine.start(), servable

    def test_returns_none_once_closed_and_empty(self):
        """The worker exits once the queue is closed and empty."""
        engine, _ = self.make()
        thread = engine._thread
        engine.close()
        assert not thread.is_alive()

    def test_drains_pending_work_after_close(self):
        engine, servable = self.make(max_batch_size=8, max_wait_us=60e6)
        thread = engine._thread
        handle = engine.submit(0)
        engine.close()  # a closing queue stops waiting for company
        assert handle.result(timeout=0) == 0
        assert servable.batches == [1]
        assert not thread.is_alive()

    def test_full_batch_wakes_the_worker(self):
        engine, servable = self.make(max_batch_size=2, max_wait_us=60e6)
        handles = [engine.submit(i) for i in range(2)]
        # The 60 s window would outlast the timeout: only fullness wakes it.
        assert [h.result(timeout=5.0) for h in handles] == [0, 2]
        assert servable.batches == [2]
        engine.close()

    def test_wait_budget_expiry_dispatches_partial_batch(self):
        engine, servable = self.make(max_batch_size=8, max_wait_us=2_000.0)
        handle = engine.submit(0)
        assert handle.result(timeout=5.0) == 0
        assert servable.batches == [1]
        engine.close()
