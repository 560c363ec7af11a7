"""RequestHandle: wait semantics, callbacks, and callback isolation.

A handle resolves once; blocked waiters wake on success and failure;
done-callbacks run exactly once whether added before or after
resolution; a raising callback is logged and strands nobody — neither
the other callbacks nor the other handles of its batch.
"""

import collections
import logging
import sys
import threading

import pytest

from repro.serving import EngineConfig, RequestHandle, ServingEngine
from tests.serving.test_engine import EchoServable, manual_engine


def _raise(handle):
    raise RuntimeError(f"callback of {handle.request_id} fell over")


def _blocked_waiters(handle, n, method="result"):
    """Start ``n`` threads blocked in ``handle.<method>(timeout=5)``."""
    outcomes = []
    started = threading.Barrier(n + 1)

    def wait():
        started.wait()
        try:
            outcomes.append(("ok", getattr(handle, method)(timeout=5)))
        except BaseException as error:  # noqa: BLE001 - recorded for asserts
            outcomes.append(("error", error))

    threads = [threading.Thread(target=wait) for _ in range(n)]
    for thread in threads:
        thread.start()
    started.wait()
    return threads, outcomes


def _join(threads):
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()


class TestWaitSemantics:
    def test_blocked_waiters_all_wake_on_resolve(self):
        handle = RequestHandle(0, 0.0)
        threads, outcomes = _blocked_waiters(handle, 4)
        handle._resolve(42, started=0.0, finished=1.0, batch_size=1)
        _join(threads)
        assert outcomes == [("ok", 42)] * 4

    def test_blocked_waiters_all_wake_on_fail(self):
        handle = RequestHandle(0, 0.0)
        error = RuntimeError("boom")
        threads, outcomes = _blocked_waiters(handle, 4)
        handle._fail(error)
        _join(threads)
        assert outcomes == [("error", error)] * 4

    def test_blocked_exception_waiters_wake(self):
        handle = RequestHandle(0, 0.0)
        error = RuntimeError("boom")
        threads, outcomes = _blocked_waiters(handle, 3, method="exception")
        handle._fail(error)
        _join(threads)
        assert outcomes == [("ok", error)] * 3

    def test_zero_timeout_on_pending_handle_raises(self):
        handle = RequestHandle(7, 0.0)
        with pytest.raises(TimeoutError, match="request 7"):
            handle.result(timeout=0)
        with pytest.raises(TimeoutError):
            handle.exception(timeout=0)
        assert not handle.done()

    def test_resolved_handle_never_blocks(self):
        handle = RequestHandle(0, 0.0)
        handle._resolve("x", started=0.0, finished=0.0, batch_size=1)
        assert handle.result(timeout=0) == "x"
        assert handle.exception(timeout=0) is None

    def test_done_flips_exactly_once(self):
        handle = RequestHandle(0, 0.0)
        seen = [handle.done()]
        handle._resolve(1, started=0.0, finished=0.0, batch_size=1)
        seen.append(handle.done())
        handle._resolve(2, started=0.0, finished=0.0, batch_size=1)
        seen.append(handle.done())
        assert seen == [False, True, True]


class TestCallbacks:
    def test_before_and_after_resolution_each_run_once(self):
        handle = RequestHandle(0, 0.0)
        calls = []
        handle.add_done_callback(lambda h: calls.append("before"))
        handle._resolve(1, started=0.0, finished=0.0, batch_size=1)
        handle.add_done_callback(lambda h: calls.append("after"))
        # A second settle must not re-run anything.
        handle._fail(RuntimeError("late"))
        assert calls == ["before", "after"]

    def test_raising_callback_is_logged_and_isolated(self, caplog):
        handle = RequestHandle(5, 0.0)
        calls = []
        handle.add_done_callback(_raise)
        handle.add_done_callback(lambda h: calls.append(h.request_id))
        with caplog.at_level(logging.ERROR, logger="repro.serving"):
            handle._resolve(1, started=0.0, finished=0.0, batch_size=1)
            handle.add_done_callback(_raise)  # already done: runs now
        assert calls == [5]
        records = [r for r in caplog.records if r.name == "repro.serving"]
        assert len(records) == 2
        assert all("request 5" in r.getMessage() for r in records)


class TestResolutionRace:
    def test_callbacks_and_waiters_race_resolution(self):
        """Callback adders and blocked waiters race the resolver on a
        fast thread switch: every callback still runs exactly once and
        every waiter sees the value."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(20):
                handle = RequestHandle(trial, 0.0)
                counts = collections.Counter()
                lock = threading.Lock()
                values = []

                def count(h, key):
                    with lock:
                        counts[key] += 1

                def add(worker):
                    for i in range(20):
                        handle.add_done_callback(
                            lambda h, key=(worker, i): count(h, key)
                        )

                def wait():
                    values.append(handle.result(timeout=5))

                threads = [threading.Thread(target=add, args=(w,)) for w in range(4)]
                threads += [threading.Thread(target=wait) for _ in range(4)]
                for thread in threads:
                    thread.start()
                handle._resolve(trial, started=0.0, finished=0.0, batch_size=1)
                _join(threads)
                assert values == [trial] * 4
                assert len(counts) == 80 and set(counts.values()) == {1}
        finally:
            sys.setswitchinterval(interval)


class TestRaisingCallbackInABatch:
    def test_manual_step_resolves_every_batch_mate(self, caplog):
        engine = manual_engine(max_batch_size=3)
        handles = [engine.submit(i) for i in range(3)]
        handles[0].add_done_callback(_raise)
        with caplog.at_level(logging.ERROR, logger="repro.serving"):
            assert engine.step() == 3
        assert [h.done() for h in handles] == [True, True, True]
        assert [h.result(timeout=0) for h in handles] == [0, 2, 4]
        assert any(
            f"request {handles[0].request_id}" in r.getMessage()
            for r in caplog.records
        )

    def test_wall_clock_worker_survives(self, caplog):
        engine = ServingEngine(
            EchoServable(),
            config=EngineConfig(max_batch_size=3, max_wait_us=10_000_000.0),
        )
        with caplog.at_level(logging.ERROR, logger="repro.serving"), engine:
            # The third arrival fills the batch, so the callback is on
            # the first handle before the batch can run.
            first = engine.submit(1)
            first.add_done_callback(_raise)
            rest = [engine.submit(2), engine.submit(3)]
            assert [h.result(timeout=5) for h in [first, *rest]] == [2, 4, 6]
            # The worker is still alive: later requests are served.
            later = [engine.submit(i) for i in range(3)]
            assert [h.result(timeout=5) for h in later] == [0, 2, 4]
        assert any(
            f"request {first.request_id}" in r.getMessage() for r in caplog.records
        )
