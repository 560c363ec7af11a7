"""Tests for replica lifecycle, health states, and the service model."""

import pytest

from repro.cluster import DRAINING, FAILED, HEALTHY, STOPPED, Replica
from repro.serving import EngineClosed, EngineConfig, IterationCost, SimulatedClock


class EchoServable:
    name = "echo"

    def prepare(self, payload):
        return payload

    def execute(self, requests):
        return [2 * request.payload for request in requests]


def replica():
    return Replica(
        0,
        EchoServable(),
        config=EngineConfig(),
        clock=SimulatedClock(),
    )


class TestLifecycle:
    def test_initial_state(self):
        r = replica()
        assert r.state == HEALTHY
        assert r.alive and r.accepts_new
        assert r.name == "replica-0"

    def test_drain_then_stop(self):
        r = replica()
        r.start_drain()
        assert r.state == DRAINING
        assert r.alive and not r.accepts_new
        r.stop()
        assert r.state == STOPPED
        assert not r.alive
        assert r.engine.closed

    def test_fail_evicts_pending_without_failing_handles(self):
        r = replica()
        handle = r.engine.submit(21)
        evicted = r.fail()
        assert r.state == FAILED
        assert len(evicted) == 1
        assert not handle.done()  # evicted, not failed
        r.shutdown()
        assert r.engine.closed
        with pytest.raises(EngineClosed):
            r.engine.submit(1)

    def test_invalid_transitions_raise(self):
        r = replica()
        r.start_drain()
        with pytest.raises(ValueError, match="cannot drain"):
            r.start_drain()
        r.stop()
        with pytest.raises(ValueError, match="cannot fail"):
            r.fail()
        with pytest.raises(ValueError, match="cannot stop"):
            r.stop()


class TestServiceCost:
    def test_virtual_stamp_groups_a_batch(self):
        model = IterationCost(base_s=1e-3, per_request_s=1e-3)
        r = replica()
        # A batch of 2 resolving at t=0: both members share [0, 3ms).
        assert r.virtual_stamp(2, 0.0, model) == (0.0, 3e-3)
        assert r.virtual_stamp(2, 0.0, model) == (0.0, 3e-3)
        # Next batch chains off busy_until, not the clock.
        assert r.virtual_stamp(1, 0.0, model) == (3e-3, 5e-3)
        assert r.busy_until == pytest.approx(5e-3)

    def test_load_counts_outstanding_and_virtual_busyness(self):
        r = replica()
        assert r.load(now=0.0) == 0.0
        r.outstanding = 2
        r.busy_until = 1.0
        assert r.load(now=0.5) == 3.0
        assert r.load(now=2.0) == 2.0
