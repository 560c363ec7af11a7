"""Request admission: handles, the bounded queue, and serving errors.

A ``submit()`` call turns into an :class:`InferenceRequest` carrying a
:class:`RequestHandle` — the caller's Future-style view of the result —
and enters a bounded :class:`RequestQueue`.  The bound is the engine's
backpressure mechanism: when the photonic core cannot keep up, producers
either block until a slot frees (wall-clock mode) or get an immediate
:class:`QueueFull` to shed load upstream.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.obs.trace import NULL_SPAN

_log = logging.getLogger("repro.serving")


class ServingError(RuntimeError):
    """Base class for serving-subsystem failures."""


class QueueFull(ServingError):
    """The bounded request queue rejected a submission (backpressure)."""


class EngineClosed(ServingError):
    """The engine (or its queue) no longer accepts submissions."""


class RequestHandle:
    """Future-style view of one in-flight request.

    The submitting thread keeps the handle; the worker resolves it when
    the coalesced batch finishes (or fails).  Timestamps come from the
    engine's clock, so under a :class:`~repro.serving.clock.SimulatedClock`
    the latency breakdown is exactly reproducible.

    Resolution is a flag set once under the handle's lock.  A
    :class:`threading.Condition` is built only when a caller blocks in
    :meth:`result`/:meth:`exception` before resolution; a handle nobody
    waits on (every manual-mode and callback-observed handle) never
    allocates one.
    """

    def __init__(self, request_id: int, arrival: float) -> None:
        self.request_id = request_id
        self.arrival = arrival  #: submit time (engine clock)
        self.started: float | None = None  #: batch execution start
        self.finished: float | None = None  #: result availability
        self.batch_size: int | None = None  #: coalesced batch occupancy
        self.cache_hit = False  #: served straight from the SessionCache
        self._value: Any = None
        self._error: BaseException | None = None
        self._lock = threading.Lock()
        self._resolved = False
        self._waiters: threading.Condition | None = None
        self._callbacks: list[Any] = []

    def done(self) -> bool:
        return self._resolved

    def _wait(self, timeout: float | None) -> None:
        """Block until resolved; ``TimeoutError`` once ``timeout`` passes."""
        if self._resolved:
            return
        with self._lock:
            if self._resolved:
                return
            if self._waiters is None:
                self._waiters = threading.Condition(self._lock)
            if not self._waiters.wait_for(lambda: self._resolved, timeout):
                raise TimeoutError(
                    f"request {self.request_id} not resolved within {timeout}s"
                )

    def result(self, timeout: float | None = None) -> Any:
        """Block until resolved; raise the execution error if it failed."""
        self._wait(timeout)
        if self._error is not None:
            raise self._error
        return self._value

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """Block until resolved; return the failure (None on success)."""
        self._wait(timeout)
        return self._error

    @property
    def latency(self) -> float | None:
        """End-to-end seconds (arrival -> finished); None while pending."""
        if self.finished is None:
            return None
        return self.finished - self.arrival

    @property
    def queue_wait(self) -> float | None:
        """Seconds spent queued before batch execution started."""
        if self.started is None:
            return None
        return self.started - self.arrival

    def add_done_callback(self, fn) -> None:
        """Call ``fn(handle)`` once the handle resolves (or fails).

        Runs in the resolving thread — the engine worker in wall-clock
        mode, the stepping thread in manual mode — immediately if the
        handle is already done.  This is how the cluster layer observes
        per-replica completions without polling.  A callback that
        raises is logged on the ``repro.serving`` logger and does not
        stop the other callbacks or the resolution of other handles.
        """
        with self._lock:
            if not self._resolved:
                self._callbacks.append(fn)
                return
        self._run_callback(fn)

    def _run_callback(self, fn) -> None:
        try:
            fn(self)
        except Exception:  # noqa: BLE001 - one callback must not strand others
            _log.exception(
                "done-callback %r of request %s raised", fn, self.request_id
            )

    def _settle(self) -> None:
        """Flip the resolved flag once, wake waiters, run the callbacks."""
        with self._lock:
            self._resolved = True
            callbacks, self._callbacks = self._callbacks, []
            if self._waiters is not None:
                self._waiters.notify_all()
        for fn in callbacks:
            self._run_callback(fn)

    # -- worker side ---------------------------------------------------------
    def _resolve(
        self,
        value: Any,
        *,
        started: float,
        finished: float,
        batch_size: int,
        cache_hit: bool = False,
    ) -> None:
        self._value = value
        self.started = started
        self.finished = finished
        self.batch_size = batch_size
        self.cache_hit = cache_hit
        self._settle()

    def _fail(
        self,
        error: BaseException,
        *,
        started: float | None = None,
        finished: float | None = None,
        batch_size: int | None = None,
    ) -> None:
        self._error = error
        self.started = started
        self.finished = finished
        self.batch_size = batch_size
        self._settle()


@dataclass
class InferenceRequest:
    """One queued unit of work (payload already ``prepare()``-d).

    ``span`` is the request's open trace span (the inert
    :data:`~repro.obs.trace.NULL_SPAN` when the engine does not trace);
    it rides along so dispatch and completion events land on the span
    that opened at submission.
    """

    payload: Any
    handle: RequestHandle
    arrival: float
    cache_key: Any = None
    session_id: str | None = None
    request_id: int = field(default=0)
    span: Any = NULL_SPAN


class RequestQueue:
    """Bounded FIFO of :class:`InferenceRequest` with two conditions.

    ``not_empty`` and ``not_full`` share one mutex, so the
    :class:`~repro.serving.engine.ServingEngine` worker can wait for an
    iteration to come due and pop its intake atomically while producers
    wait for capacity.
    """

    def __init__(self, maxsize: int = 64) -> None:
        if maxsize < 1:
            raise ValueError(f"queue maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._items: deque[InferenceRequest] = deque()
        self.mutex = threading.Lock()
        self.not_empty = threading.Condition(self.mutex)
        self.not_full = threading.Condition(self.mutex)
        self._closed = False

    def __len__(self) -> int:
        with self.mutex:
            return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    def put(
        self,
        request: InferenceRequest,
        *,
        block: bool = True,
        timeout: float | None = None,
    ) -> None:
        """Enqueue; apply backpressure when full.

        ``block=False`` (or an expired ``timeout``) raises
        :class:`QueueFull` instead of waiting for a free slot.
        """
        with self.not_full:
            if self._closed:
                raise EngineClosed("queue is closed")
            if len(self._items) >= self.maxsize:
                if not block:
                    raise QueueFull(
                        f"queue at capacity ({self.maxsize}); request rejected"
                    )
                deadline = None if timeout is None else time.monotonic() + timeout
                while len(self._items) >= self.maxsize and not self._closed:
                    remaining = (
                        None if deadline is None else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        raise QueueFull(
                            f"queue still at capacity ({self.maxsize}) "
                            f"after {timeout}s"
                        )
                    self.not_full.wait(remaining)
                if self._closed:
                    raise EngineClosed("queue closed while waiting for capacity")
            self._items.append(request)
            self.not_empty.notify()

    def pop_locked(self, n: int) -> list[InferenceRequest]:
        """Pop up to ``n`` requests FIFO.  Caller must hold ``mutex``."""
        batch = [self._items.popleft() for _ in range(min(n, len(self._items)))]
        if batch:
            self.not_full.notify_all()
        return batch

    def drain_pending(self) -> list[InferenceRequest]:
        """Remove and return everything still queued (for failing fast)."""
        with self.mutex:
            pending = list(self._items)
            self._items.clear()
            self.not_full.notify_all()
            return pending

    def close(self) -> None:
        """Refuse further puts and wake every waiter."""
        with self.mutex:
            self._closed = True
            self.not_empty.notify_all()
            self.not_full.notify_all()
