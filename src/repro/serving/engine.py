"""The serving engine: request admission -> scheduled iteration -> photonic run.

:class:`ServingEngine` is the worker loop that turns concurrent
``submit()`` calls into coalesced photonic batches.  Every batch comes
out of one loop: arrivals leave the bounded :class:`RequestQueue` into
an :class:`~repro.serving.scheduler.IterationScheduler`, which composes
each iteration (one step per session, KV residency enforced by
preemption) for the servable to execute.  ``EngineConfig.scheduler``
only sets two constants of that loop:

* ``"request"`` — dynamic batching: the queue's head batch waits up to
  ``max_wait_us`` for company and each iteration takes one FIFO batch
  of at most ``max_batch_size`` arrivals.
* ``"continuous"`` — iteration-level batching: no window, and each
  iteration takes every arrival.

Two execution regimes share every code path except what drives the loop:

* **Wall-clock mode** (default): ``start()`` launches a background
  worker thread that sleeps until an iteration is due and executes it.
  ``submit()`` applies backpressure through the bounded queue.
* **Manual mode** (a :class:`~repro.serving.clock.SimulatedClock`):
  no thread, no sleeps.  Tests call :meth:`step` /
  :meth:`run_until_idle` to drive the same scheduling + execution logic
  deterministically.

The engine inherits the photonic execution configuration from whatever
executor the servable's model was built with — ``num_cores`` and
``shard_axis`` apply to the coalesced ``[batch, ...]`` stacks unchanged.
The engine does not own that executor: one built with a thread pool
(``parallel=True``) is closed by whoever built it.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any

from repro.neural.autograd import no_grad
from repro.obs.trace import NULL_SPAN, NULL_TRACER
from repro.serving.cache import (
    MISS,
    MemoCache,
    SessionCache,
    isolated,
    memoized_step_error,
)
from repro.serving.clock import WallClock
from repro.serving.config import SCHEDULERS, EngineConfig
from repro.serving.metrics import Metrics
from repro.serving.request import (
    EngineClosed,
    InferenceRequest,
    RequestHandle,
    RequestQueue,
    ServingError,
)
from repro.serving.scheduler import IterationScheduler
from repro.serving.servable import Servable

__all__ = ["SCHEDULERS", "ServingEngine"]


class ServingEngine:
    """Dynamic-batching inference server over a :class:`Servable`.

    Args:
        servable: the model adapter executing coalesced batches.
        config: an :class:`~repro.serving.config.EngineConfig` carrying
            the batching, queueing and scheduling knobs (``max_batch_size``,
            ``max_wait_us``, ``queue_depth``, ``scheduler``,
            ``iteration_cost``); the defaults when omitted.  Both
            scheduler modes run the same
            :class:`~repro.serving.scheduler.IterationScheduler` loop,
            which retires finished sessions and preempts the
            lowest-priority sessions when the servable's KV
            :class:`~repro.serving.cache.BlockPool` is exhausted.  With
            ``scheduler="request"`` each iteration admits one FIFO batch
            and a partial batch waits out the ``max_wait_us`` window;
            ``"continuous"`` admits every arrival with no window.  An
            ``iteration_cost`` advances the simulated clock by
            ``batch_seconds(b)`` per executed batch in both modes.
        clock: time source.  A real clock (default) enables the
            background worker thread; a simulated clock selects manual
            stepping and never sleeps.
        cache: optional :class:`~repro.serving.cache.MemoCache`
            consulted at submit time for ``cache_key`` memoization (hits
            bypass the queue).  Decode KV state is not kept here but in
            the servable's own :class:`~repro.serving.cache.SessionCache`.
        metrics: recorder; a fresh :class:`Metrics` by default.
        tracer: an :class:`~repro.obs.trace.Tracer` to emit request /
            iteration / batch spans into (and to activate around batch
            execution, so the sharded engine and hot path beneath trace
            too).  Defaults to the no-op
            :data:`~repro.obs.trace.NULL_TRACER`, whose inert spans leave
            every output unchanged; an ambient tracer activated around
            an untraced engine still records the spans beneath it.
        recorder: an optional
            :class:`~repro.obs.recorder.FlightRecorder`; the engine
            freezes a postmortem bundle (recent spans/events + its
            metrics registry) when an iteration dooms a session or a
            batch fails with an execution error.
    """

    def __init__(
        self,
        servable: Servable,
        *,
        config: EngineConfig | None = None,
        clock=None,
        cache: MemoCache | None = None,
        metrics: Metrics | None = None,
        tracer=None,
        recorder=None,
    ) -> None:
        config = config if config is not None else EngineConfig()
        self.config = config
        self.servable = servable
        self.clock = clock if clock is not None else WallClock()
        self.manual = not getattr(self.clock, "real", True)
        if config.iteration_cost is not None and not self.manual:
            raise ValueError(
                "iteration_cost models virtual service time; it needs a "
                "SimulatedClock"
            )
        self.cache = cache
        self.metrics = metrics if metrics is not None else Metrics()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.recorder = recorder
        self._queue = RequestQueue(config.queue_depth)
        self.scheduler = config.scheduler
        self.iteration_cost = config.iteration_cost
        # The scheduler mode is two constants of the one loop: how long
        # the queue's head may wait for company, and how many arrivals
        # one iteration takes (the queue never holds more than its
        # depth, so ``queue_depth`` means every arrival).
        continuous = config.scheduler == "continuous"
        self._window_s = 0.0 if continuous else config.max_wait_us * 1e-6
        self._intake = config.queue_depth if continuous else config.max_batch_size
        # KV residency is governed by the *servable's* session cache
        # (where decode state lives), not the memoization cache.
        session_cache = getattr(servable, "cache", None)
        #: The servable's KV sessions, or ``None`` for a stateless one.
        self.session_cache = (
            session_cache if isinstance(session_cache, SessionCache) else None
        )
        self._scheduler = IterationScheduler(
            max_active=config.max_batch_size, cache=self.session_cache
        )
        # Guards scheduler state: the worker composes while clients
        # release sessions / the cluster evicts for failover.  Taken
        # after the queue mutex whenever both are held.
        self._sched_lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._lifecycle = threading.Lock()
        self._closed = False
        # Request ids: ``next`` on a C iterator is atomic under the GIL.
        self._ids = itertools.count()

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "ServingEngine":
        """Launch the worker thread (no-op in manual mode / if running)."""
        with self._lifecycle:
            if self._closed:
                raise EngineClosed("engine already closed")
            if not self.manual and self._thread is None:
                self._thread = threading.Thread(
                    target=self._worker, name="serving-engine", daemon=True
                )
                self._thread.start()
        return self

    def __enter__(self) -> "ServingEngine":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self, *, drain: bool = True) -> None:
        """Stop accepting work; finish (or fail) what is queued.

        ``drain=True`` completes every pending request before shutdown;
        ``drain=False`` fails pending handles with :class:`EngineClosed`.
        Idempotent.
        """
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
            thread = self._thread
            self._thread = None
        if not drain:
            abandoned = self._queue.drain_pending()
            with self._sched_lock:
                abandoned += self._scheduler.drain()
            for request in abandoned:
                request.handle._fail(EngineClosed("engine closed before execution"))
                self.metrics.record_failures()
                request.span.add_event("abandoned")
                self.tracer.end(request.span)
        self._queue.close()  # worker drains the remainder, then exits
        if thread is not None:
            thread.join()
        elif drain:
            self._run_pending()

    @property
    def closed(self) -> bool:
        return self._closed

    def evict_pending(self) -> list[InferenceRequest]:
        """Remove and return queued requests *without* failing them.

        The failover hook: when a replica is torn down, the cluster
        evicts its undispatched requests — handles still pending — and
        re-routes them to surviving replicas.  A subsequent
        ``close(drain=False)`` then has nothing left to fail.  The
        scheduler's held steps (including those of preempted sessions)
        are evicted too, merged in global submission order so
        per-session step order survives re-dispatch.
        """
        evicted = self._queue.drain_pending()
        with self._sched_lock:
            evicted += self._scheduler.drain()
        evicted.sort(key=lambda request: request.request_id)
        for request in evicted:
            # The engine-level span ends here; a re-dispatch elsewhere
            # opens a fresh one on the adopting engine.
            request.span.add_event("evicted")
            self.tracer.end(request.span)
            request.span = NULL_SPAN
        return evicted

    def release_session(self, session_id: str) -> int:
        """Retire a finished decode session; returns the KV bytes freed.

        Drops the scheduler's priority/queue state for the session and
        closes it in the servable's cache, returning its pages to the
        :class:`~repro.serving.cache.BlockPool` free list.  Call only
        once the session's submitted steps have resolved.
        """
        with self._sched_lock:
            self._scheduler.release(session_id)
        cache = self.session_cache
        if cache is not None and cache.has_session(session_id):
            return cache.close_session(session_id)
        return 0

    # -- submission ----------------------------------------------------------
    def submit(
        self,
        payload: Any,
        *,
        cache_key: Any = None,
        session_id: str | None = None,
        block: bool = True,
        timeout: float | None = None,
    ) -> RequestHandle:
        """Admit one request; returns its Future-style handle.

        ``cache_key`` consults the engine's
        :class:`~repro.serving.cache.MemoCache` first: a hit resolves
        the handle immediately without queueing.  A ``cache_key`` on a
        ``session_id`` of a servable with KV sessions is a
        ``ValueError``: a hit would skip that step's K/V commit.  When
        the bounded queue is full, wall-clock submissions block (the
        backpressure path) unless ``block=False`` / ``timeout`` says to
        raise :class:`~repro.serving.request.QueueFull`; manual-mode
        submissions never block (there is no concurrent consumer).
        """
        if self._closed:
            raise EngineClosed("engine is closed")
        if (
            cache_key is not None
            and session_id is not None
            and self.session_cache is not None
        ):
            raise memoized_step_error(session_id)
        request_id = next(self._ids)
        arrival = self.clock.now()
        handle = RequestHandle(request_id, arrival)
        tracer = self.tracer
        span = tracer.start_span(
            "request", request_id=request_id, session_id=session_id
        )
        span.add_event("submit")
        # Consult the cache before prepare(): hits skip validation and
        # padding entirely — the memoization path stays allocation-free.
        if cache_key is not None and self.cache is not None:
            hit = self.cache.get(cache_key)
            if hit is not MISS:
                handle._resolve(
                    isolated(hit),
                    started=arrival,
                    finished=arrival,
                    batch_size=0,
                    cache_hit=True,
                )
                self.metrics.record_request(handle)
                span.set_attr("cache_hit", True)
                span.add_event("complete", cache_hit=True)
                tracer.end(span)
                return handle
        try:
            request = InferenceRequest(
                payload=self.servable.prepare(payload),
                handle=handle,
                arrival=arrival,
                cache_key=cache_key,
                session_id=session_id,
                request_id=request_id,
                span=span,
            )
            depth = self._queue.put(
                request, block=block and not self.manual, timeout=timeout
            )
        except Exception as error:  # invalid payload / backpressure / closed
            span.add_event("rejected", error=type(error).__name__)
            tracer.end(span)
            raise
        span.add_event("queue", depth=depth)
        return handle

    @property
    def pending(self) -> int:
        """Requests admitted but not yet dispatched into a batch."""
        queued = len(self._queue)
        with self._sched_lock:
            return queued + self._scheduler.held

    # -- the loop -------------------------------------------------------------
    def _queue_due_locked(self, now: float) -> bool:
        """Is the queue's head batch due?  Caller holds the queue mutex.

        A closing queue drains immediately: pending work still
        completes, it just stops waiting for company.
        """
        queue = self._queue
        items = queue._items
        return bool(items) and (
            queue.closed
            or not self._window_s
            or len(items) >= self.config.max_batch_size
            or now - items[0].arrival >= self._window_s
        )

    def _intake_locked(self, *, force: bool) -> list[InferenceRequest] | None:
        """This iteration's arrivals, or ``None`` when no iteration is due.

        Caller holds the queue mutex (the scheduler lock nests inside
        it).  An iteration is due when the scheduler still holds steps
        or the queue's head batch is due; ``force`` skips the check.
        """
        if force or self._queue_due_locked(self.clock.now()):
            return self._queue.pop_locked(self._intake)
        with self._sched_lock:
            return [] if self._scheduler.has_work() else None

    def step(self, *, force: bool = True) -> int:
        """Run one iteration; returns requests progressed (0 if none).

        ``force=False`` respects the batching window at the clock's
        current instant: a partial request-mode batch stays queued until
        it fills or its oldest request's wait budget expires.
        """
        with self._queue.mutex:
            arrivals = self._intake_locked(force=force)
        if arrivals is None:
            return 0
        return self._run_iteration(arrivals)

    def _run_iteration(self, arrivals: list[InferenceRequest]) -> int:
        """Admit ``arrivals``, compose one iteration, execute it.

        Shared by manual stepping and the wall-clock worker.  Returns
        requests progressed (executed + doomed): doomed requests count,
        so run_until_idle keeps stepping past a doom-only iteration
        while work remains.
        """
        tracer = self.tracer
        span = tracer.start_span("engine.iteration", arrivals=len(arrivals))
        try:
            with self._sched_lock:
                for request in arrivals:
                    self._scheduler.enqueue(request)
                iteration = self._scheduler.compose()
            if arrivals:
                span.add_event(
                    "admission",
                    requests=[request.request_id for request in arrivals],
                )
            for victim in iteration.preempted:
                span.add_event("preempt", session_id=victim)
            for sid in iteration.swapped_in:
                span.add_event("swap_in", session_id=sid)
            for request in iteration.doomed:
                span.add_event(
                    "doom",
                    request_id=request.request_id,
                    session_id=request.session_id,
                )
                request.span.add_event("doomed")
                tracer.end(request.span)
                request.handle._fail(self._scheduler.doom_error(request))
                self.metrics.record_failures()
                self._record_doom(request)
            span.set_attr("batch", len(iteration.batch))
            if iteration.batch:
                self.metrics.record_iteration(len(iteration.batch))
                self._execute(iteration.batch, span)
            return len(iteration.batch) + len(iteration.doomed)
        finally:
            tracer.end(span)

    def run_until_idle(self) -> int:
        """Step until the queue is empty; returns requests processed."""
        processed = 0
        while True:
            n = self.step(force=True)
            if n == 0:
                return processed
            processed += n

    def _run_pending(self) -> None:
        """Drain-on-close for manual mode (close() holds the lifecycle)."""
        while self.step(force=True):
            pass

    def _worker(self) -> None:
        """Wall-clock loop: sleep until an iteration is due, run it.

        Exits once the queue is closed and every request has run.
        """
        queue = self._queue
        while True:
            with queue.not_empty:
                while (arrivals := self._intake_locked(force=False)) is None:
                    if queue._items:
                        # Sleep out the rest of the head's window (a
                        # full batch or close() notifies earlier).
                        queue.not_empty.wait(
                            queue._items[0].arrival + self._window_s - self.clock.now()
                        )
                    elif queue.closed:
                        return
                    else:
                        queue.not_empty.wait()
            self._run_iteration(arrivals)

    # -- flight recording -----------------------------------------------------
    def _record_doom(self, request: InferenceRequest) -> None:
        """Freeze a postmortem bundle for a doomed session (if recording)."""
        if self.recorder is None:
            return
        self.recorder.note(
            "doomed_session",
            request_id=request.request_id,
            session_id=request.session_id,
        )
        self.recorder.trigger(
            "doomed_session",
            registry=self.metrics.registry,
            request_id=request.request_id,
            session_id=request.session_id,
        )

    def _record_batch_failure(self, error: Exception, batch_size: int) -> None:
        """Freeze a postmortem bundle for a failed batch (if recording)."""
        if self.recorder is None:
            return
        self.recorder.note(
            "serving_error", error=type(error).__name__, batch_size=batch_size
        )
        self.recorder.trigger(
            "serving_error",
            registry=self.metrics.registry,
            error=type(error).__name__,
            detail=str(error),
            batch_size=batch_size,
        )

    def _finished_time(self, batch_size: int) -> float:
        """Completion timestamp; charges the virtual iteration cost."""
        if self.iteration_cost is not None:
            self.clock.advance(self.iteration_cost.batch_seconds(batch_size))
        return self.clock.now()

    def _execute(self, batch: list[InferenceRequest], parent) -> None:
        """Run one batch and settle every request's handle.

        An ``engine.batch`` span (activated around ``servable.execute``,
        so the sharded engine and hot path trace beneath it) carries the
        batch; dispatch/complete/failed events land on each request's
        span.  ``parent`` is the enclosing ``engine.iteration`` span.
        """
        tracer = self.tracer
        span = tracer.start_span(
            "engine.batch",
            parent=parent,
            size=len(batch),
            request_ids=[request.request_id for request in batch],
        )
        for request in batch:
            request.span.add_event("dispatch", batch_size=len(batch))
        started = self.clock.now()
        try:
            with tracer.activate(span), no_grad():
                outputs = self.servable.execute(batch)
            if len(outputs) != len(batch):
                raise ServingError(
                    f"servable returned {len(outputs)} outputs for a "
                    f"batch of {len(batch)}"
                )
        except Exception as error:  # noqa: BLE001 - failures go to handles
            finished = self._finished_time(len(batch))
            span.add_event("failed", error=type(error).__name__)
            for request in batch:
                request.handle._fail(
                    error, started=started, finished=finished, batch_size=len(batch)
                )
                request.span.add_event("failed", error=type(error).__name__)
                tracer.end(request.span)
            self.metrics.record_failures(len(batch))
            self._record_batch_failure(error, len(batch))
        else:
            size = len(batch)
            finished = self._finished_time(size)
            metrics, cache = self.metrics, self.cache
            metrics.record_batch(size)
            for request, output in zip(batch, outputs):
                if request.cache_key is not None and cache is not None:
                    # Store an isolated copy: the requester's result must
                    # never alias the cache entry (or later hits).
                    cache.put(request.cache_key, isolated(output))
                handle = request.handle
                handle._resolve(
                    output, started=started, finished=finished, batch_size=size
                )
                request.span.add_event("complete", batch_size=size)
                tracer.end(request.span)
                metrics.record_request(handle)
        finally:
            tracer.end(span)
