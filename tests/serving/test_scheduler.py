"""Tests for the iteration-level scheduler: admission ordering,
residency/preemption, doom, retirement, and failover drain."""

import numpy as np
import pytest

from repro.serving import (
    InferenceRequest,
    IterationCost,
    IterationScheduler,
    RequestHandle,
    SessionCache,
    ServingError,
)
from repro.workloads import DecoderConfig, kv_cache_bytes


def toy_decoder() -> DecoderConfig:
    return DecoderConfig("toy", depth=2, dim=16, heads=2, mlp_ratio=2.0)


def request_of(i, session_id=None) -> InferenceRequest:
    return InferenceRequest(
        payload=np.zeros(4),
        handle=RequestHandle(i, 0.0),
        arrival=0.0,
        session_id=session_id,
        request_id=i,
    )


class TestIterationCost:
    def test_batch_seconds_is_affine(self):
        cost = IterationCost(base_s=1e-3, per_request_s=1e-4)
        assert cost.batch_seconds(1) == pytest.approx(1.1e-3)
        assert cost.batch_seconds(4) == pytest.approx(1.4e-3)

    def test_validation(self):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                IterationCost(base_s=bad)
            with pytest.raises(ValueError):
                IterationCost(per_request_s=bad)
        with pytest.raises(ValueError):
            IterationCost().batch_seconds(0)


class TestAdmissionOrdering:
    def test_simultaneous_arrivals_planned_in_submission_order(self):
        sched = IterationScheduler(max_active=2)
        # Four sessions arrive in the same ingest pass; capacity is 2.
        for i, sid in enumerate(("c", "a", "d", "b")):
            sched.enqueue(request_of(i, sid))
        first = sched.compose()
        assert [r.session_id for r in first.batch] == ["c", "a"]
        second = sched.compose()
        assert [r.session_id for r in second.batch] == ["d", "b"]

    def test_priority_is_first_admission_not_latest(self):
        sched = IterationScheduler(max_active=1)
        sched.enqueue(request_of(0, "a"))
        sched.enqueue(request_of(1, "b"))
        assert [r.session_id for r in sched.compose().batch] == ["a"]
        # "a" keeps arriving; "b" must still wait its FCFS turn only
        # while "a" is ahead, and "a" re-enqueued does not jump "b".
        sched.enqueue(request_of(2, "a"))
        assert [r.session_id for r in sched.compose().batch] == ["a"]
        assert [r.session_id for r in sched.compose().batch] == ["b"]

    def test_sessionless_fill_spare_lanes_fifo(self):
        sched = IterationScheduler(max_active=3)
        sched.enqueue(request_of(0, "s"))
        sched.enqueue(request_of(1, None))
        sched.enqueue(request_of(2, None))
        batch = sched.compose().batch
        assert [r.request_id for r in batch] == [0, 1, 2]

    def test_per_session_steps_never_reorder(self):
        sched = IterationScheduler(max_active=4)
        sched.enqueue(request_of(0, "s"))
        sched.enqueue(request_of(1, "s"))
        sched.enqueue(request_of(2, "s"))
        # One step per session per iteration, in submission order.
        assert [r.request_id for r in sched.compose().batch] == [0]
        assert [r.request_id for r in sched.compose().batch] == [1]
        assert [r.request_id for r in sched.compose().batch] == [2]


class TestResidency:
    def _tight(self, blocks, block_size=2):
        config = toy_decoder()
        cache = SessionCache(
            config,
            block_size=block_size,
            kv_capacity_bytes=kv_cache_bytes(config, block_size) * blocks,
        )
        return config, cache

    def test_preempts_lowest_priority_when_pool_full(self):
        config, cache = self._tight(2)
        sched = IterationScheduler(max_active=4, cache=cache)
        cache.open_session("a", prompt_len=2)
        cache.open_session("b", prompt_len=2)
        # Pool is now full (2 blocks). Admitting "c" must swap a victim.
        sched.enqueue(request_of(0, "a"))
        sched.enqueue(request_of(1, "b"))
        sched.enqueue(request_of(2, "c"))
        batch = sched.compose().batch
        assert sched.preemptions >= 1
        assert cache.stats()["swapped_sessions"] >= 1
        planned = {r.session_id for r in batch}
        assert "a" in planned  # highest priority always survives

    def test_quiescent_residents_preempted_first(self):
        config, cache = self._tight(2)
        sched = IterationScheduler(max_active=4, cache=cache)
        cache.open_session("idle", prompt_len=2)  # resident, no steps
        cache.open_session("busy", prompt_len=2)
        sched.enqueue(request_of(0, "busy"))
        sched.enqueue(request_of(1, "new"))
        sched.compose()
        assert cache.session("idle").swapped
        assert not cache.session("busy").swapped

    def test_swap_in_counts_and_restores_budget(self):
        config, cache = self._tight(4)
        sched = IterationScheduler(max_active=4, cache=cache)
        cache.open_session("s", prompt_len=2)
        cache.swap_out("s")
        sched.enqueue(request_of(0, "s"))
        batch = sched.compose().batch
        assert [r.session_id for r in batch] == ["s"]
        assert sched.swap_ins == 1
        assert not cache.session("s").swapped

    def test_doomed_session_fails_rather_than_spins(self):
        # Pool holds 1 block of 2 tokens; a 3-token prompt needs 2.
        config, cache = self._tight(1)
        sched = IterationScheduler(max_active=4, cache=cache)
        cache.open_session("huge", prompt_len=3)
        cache.swap_out("huge")  # over-budget state (e.g. adoption)
        sched.enqueue(request_of(0, "huge"))
        iteration = sched.compose()
        assert not iteration.batch
        assert [r.request_id for r in iteration.doomed] == [0]
        assert not cache.has_session("huge")  # doomed sessions close
        error = sched.doom_error(iteration.doomed[0])
        assert isinstance(error, ServingError)

    def test_blocked_behind_planned_work_is_not_doomed(self):
        config, cache = self._tight(2)
        sched = IterationScheduler(max_active=4, cache=cache)
        cache.open_session("a", prompt_len=2)
        cache.open_session("b", prompt_len=4)
        cache.swap_out("b")  # needs 2 pages + headroom to come back
        sched.enqueue(request_of(0, "a"))
        sched.enqueue(request_of(1, "b"))
        iteration = sched.compose()
        # "b" cannot swap in while "a" is planned (protected), but it is
        # not doomed — it stays queued and retries next iteration.
        assert [r.session_id for r in iteration.batch] == ["a"]
        assert not iteration.doomed
        assert sched.held == 1

    def test_planned_page_growth_counts_against_the_budget(self):
        # One free page, two new sessions that each allocate one page
        # on their first step: planning both would overrun the pool.
        config, cache = self._tight(1)
        sched = IterationScheduler(max_active=4, cache=cache)
        sched.enqueue(request_of(0, "a"))
        sched.enqueue(request_of(1, "b"))
        iteration = sched.compose()
        assert [r.session_id for r in iteration.batch] == ["a"]
        assert not iteration.doomed
        assert sched.held == 1


class TestRetirement:
    def test_release_clears_state(self):
        sched = IterationScheduler(max_active=2)
        sched.enqueue(request_of(0, "s"))
        sched.compose()
        sched.release("s")
        assert sched.held == 0
        # Re-admission gets a fresh (later) priority stamp.
        sched.enqueue(request_of(1, "t"))
        sched.enqueue(request_of(2, "s"))
        assert [r.session_id for r in sched.compose().batch] == ["t", "s"]

    def test_release_with_queued_steps_raises(self):
        sched = IterationScheduler(max_active=2)
        sched.enqueue(request_of(0, "s"))
        with pytest.raises(ValueError):
            sched.release("s")

    def test_drain_returns_global_submission_order(self):
        sched = IterationScheduler(max_active=2)
        sched.enqueue(request_of(3, "b"))
        sched.enqueue(request_of(1, None))
        sched.enqueue(request_of(0, "a"))
        sched.enqueue(request_of(2, "a"))
        drained = sched.drain()
        assert [r.request_id for r in drained] == [0, 1, 2, 3]
        assert sched.held == 0 and not sched.has_work()

    def test_stats_counters(self):
        sched = IterationScheduler(max_active=2)
        sched.enqueue(request_of(0, "s"))
        sched.compose()
        stats = sched.stats()
        assert stats["admissions"] == 1
        assert stats["iterations"] == 1
        assert stats["held"] == 0

    def test_max_active_validation(self):
        with pytest.raises(ValueError):
            IterationScheduler(max_active=0)
