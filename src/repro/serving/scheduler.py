"""Iteration-level decode scheduling: the serving engine's one loop.

Every batch the :class:`~repro.serving.engine.ServingEngine` executes
is composed here.  The :class:`IterationScheduler` is the vLLM-style
loop: every *iteration* it recomposes the batch from the active session
set — admitted sessions join, finished ones retire, and one decode step
per active session rides the same batched photonic GEMV projection.
Request-level dynamic batching is the same loop with a batching window
and a one-batch intake per iteration (the engine's admission policy);
continuous batching admits every arrival with no window.  HAPA's hybrid
split is what makes this free of bit-level consequences: attention is
per-session digital state, and the photonic projections are per-sample
GEMV stacks, so outputs are independent of batch composition.

KV residency is the scheduling constraint.  Sessions hold paged K/V
state in a :class:`~repro.serving.cache.BlockPool`; before a session
runs, the scheduler ensures its pages are resident and one slot of
headroom exists, **preempting** the lowest-priority sessions (swap-out:
budget released, bits kept) when the pool is exhausted.  Priority is
first-admission order and survives preemption, so resumption is FCFS
and deterministic.  A session whose page demand can never fit the pool
— even with every other session preempted — is *doomed* and its queued
steps are failed rather than spinning forever.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass, field

from repro.serving.cache import SessionCache
from repro.serving.request import InferenceRequest, ServingError


@dataclass(frozen=True)
class IterationCost:
    """Deterministic virtual service time of one coalesced batch:
    ``batch_seconds(b) = base_s + per_request_s * b``.

    Two virtual-time mechanisms charge it under a
    :class:`~repro.serving.clock.SimulatedClock`.  As an engine's
    ``EngineConfig.iteration_cost`` the engine advances the clock by
    ``batch_seconds(b)`` per executed iteration, so request-level and
    continuous scheduling are compared under the *same* cost model and
    differ only in composition and window waits.  As a cluster's
    ``ClusterConfig.service_model`` each replica keeps an independent
    ``busy_until`` horizon, so N replicas overlap in virtual time and
    the fleet-scaling curve needs no wall-clock parallelism.
    """

    base_s: float = 1e-3
    per_request_s: float = 250e-6

    def __post_init__(self) -> None:
        for cost in (self.base_s, self.per_request_s):
            if (
                isinstance(cost, bool)
                or not isinstance(cost, numbers.Real)
                or not math.isfinite(cost)
                or cost < 0
            ):
                raise ValueError(
                    f"iteration costs must be finite numbers >= 0: {self}"
                )

    def batch_seconds(self, batch_size: int) -> float:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        return self.base_s + self.per_request_s * batch_size


@dataclass
class Iteration:
    """One composed iteration: the batch to execute plus doomed requests
    (sessions whose KV demand cannot fit the pool at any priority).

    ``preempted`` and ``swapped_in`` record the residency actions this
    composition took (victim sessions swapped out, planned sessions
    swapped back in), in action order — the engine's iteration span
    reports them as events.
    """

    batch: list[InferenceRequest] = field(default_factory=list)
    doomed: list[InferenceRequest] = field(default_factory=list)
    preempted: list[str] = field(default_factory=list)
    swapped_in: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.batch or self.doomed)


class IterationScheduler:
    """Composes one decode step per active session, every iteration.

    Holds per-session FIFO step queues (a session's steps never
    reorder) plus a FIFO of sessionless requests that fill spare lanes,
    so the one loop also serves stateless servables.
    ``max_active`` caps lanes per iteration (the photonic batch axis);
    the attached cache's :class:`~repro.serving.cache.BlockPool` caps
    residency.  All mutation happens under the engine's scheduler lock.
    """

    def __init__(self, *, max_active: int, cache: SessionCache | None = None) -> None:
        if max_active < 1:
            raise ValueError(f"max_active must be >= 1, got {max_active}")
        self.max_active = max_active
        self.cache = cache
        self._steps: dict[str, deque[InferenceRequest]] = {}
        self._priority: dict[str, int] = {}
        self._stamp = 0
        self._sessionless: deque[InferenceRequest] = deque()
        self.admissions = 0
        self.preemptions = 0
        self.swap_ins = 0
        self.iterations = 0

    # -- intake ---------------------------------------------------------------
    def enqueue(self, request: InferenceRequest) -> None:
        """Admit one request into the scheduler's pending state."""
        sid = request.session_id
        if sid is None:
            self._sessionless.append(request)
            return
        if sid not in self._priority:
            # First-seen admission order is the priority, kept across
            # preemption: resumption is FCFS, simultaneous arrivals are
            # ordered by submission (request_id) order.
            self._priority[sid] = self._stamp
            self._stamp += 1
            self.admissions += 1
        self._steps.setdefault(sid, deque()).append(request)

    @property
    def held(self) -> int:
        """Requests admitted to the scheduler but not yet dispatched."""
        return sum(len(q) for q in self._steps.values()) + len(self._sessionless)

    def has_work(self) -> bool:
        return bool(self._sessionless) or any(self._steps.values())

    # -- residency ------------------------------------------------------------
    def _pick_victim(self, protected: set[str]) -> str | None:
        """Lowest-priority preemptable resident session, quiescent first.

        Quiescent residents (no queued steps — including sessions this
        scheduler never admitted, e.g. adopted via migration) are
        preferred victims; among runnable residents the latest-admitted
        goes first.  ``protected`` shields sessions already planned
        into the current iteration.
        """
        candidates = [
            sid for sid in self.cache.resident_ids() if sid not in protected
        ]
        if not candidates:
            return None
        return max(
            candidates,
            key=lambda sid: (
                not self._steps.get(sid),  # quiescent first
                self._priority.get(sid, -1),
                sid,
            ),
        )

    def _ensure_resident(
        self, sid: str, planned: list[str], reserved: int, iteration: Iteration
    ) -> int | None:
        """Make ``sid`` runnable this iteration, preempting if needed.

        ``reserved`` blocks are already promised to the sessions planned
        before ``sid`` (the pages their steps will allocate), so they
        count against the budget too.  Returns the blocks ``sid``'s own
        step will allocate, or None when the pool cannot host the
        session right now (it stays queued and retries next iteration;
        :meth:`compose` dooms it if it can *never* fit).  Victims and
        swap-ins are recorded on ``iteration`` for observability.
        """
        pool = self.cache.pool
        session = self.cache.find_session(sid)  # the one lookup
        # Additional pool blocks running ``sid`` one step may charge.
        if session is None:
            needed = pool.blocks_for(1)
        else:
            needed = 0 if session.has_room else 1
            if session.swapped:
                # Only private pages re-enter the pool budget on swap-in;
                # shared prefix pages stay in tier custody throughout.
                needed += session.private_blocks
        if not pool.can_fit(reserved + needed):
            protected = {sid, *planned}
            while not pool.can_fit(reserved + needed):
                victim = self._pick_victim(protected)
                if victim is None:
                    return None
                self.cache.swap_out(victim)
                self.preemptions += 1
                iteration.preempted.append(victim)
        if session is not None and session.swapped:
            charged = pool.in_use
            self.cache.swap_in(sid)
            needed -= pool.in_use - charged
            self.swap_ins += 1
            iteration.swapped_in.append(sid)
        return needed

    # -- composition ----------------------------------------------------------
    def compose(self) -> Iteration:
        """Plan one iteration from the current active set.

        Runnable sessions are planned in priority (first-admission)
        order up to ``max_active``; spare lanes fill with sessionless
        requests FIFO.  The planned sessions' resident pages plus the
        pages their steps will allocate never exceed the pool budget.
        When the highest-priority runnable session cannot fit the pool
        even with everything else preempted, its steps are returned as
        ``doomed`` (the engine fails them) so stepping always makes
        progress.
        """
        iteration = Iteration()
        # ``_steps`` gains a key exactly when ``_priority`` stamps it
        # and loses it exactly when the stamp goes, so its insertion
        # order already is priority order: no per-iteration sort.
        runnable = [sid for sid, steps in self._steps.items() if steps]
        planned: list[str] = []
        reserved = 0
        for sid in runnable:
            if len(planned) >= self.max_active:
                break
            if self.cache is not None:
                growth = self._ensure_resident(sid, planned, reserved, iteration)
                if growth is None:
                    if planned:
                        continue  # blocked behind protected higher-priority work
                    # Nothing is planned and nothing is preemptable: this
                    # session's pages can never fit the pool.
                    self._doom(sid, iteration)
                    continue
                reserved += growth
            planned.append(sid)
        iteration.batch.extend(self._steps[sid].popleft() for sid in planned)
        while self._sessionless and len(iteration.batch) < self.max_active:
            iteration.batch.append(self._sessionless.popleft())
        if iteration.batch:
            self.iterations += 1
        return iteration

    def _doom(self, sid: str, iteration: Iteration) -> None:
        iteration.doomed.extend(self._steps.pop(sid, ()))
        self._priority.pop(sid, None)
        if self.cache is not None and self.cache.has_session(sid):
            self.cache.close_session(sid)

    @staticmethod
    def doom_error(request: InferenceRequest) -> ServingError:
        return ServingError(
            f"session {request.session_id!r} needs more KV blocks than "
            f"the pool can ever hold"
        )

    # -- retirement / failover ------------------------------------------------
    def release(self, session_id: str) -> None:
        """Retire a finished session's scheduler state.

        Steps still queued for it would be silently dropped, so that is
        an error — resolve or evict them first.
        """
        if self._steps.get(session_id):
            raise ValueError(
                f"session {session_id!r} still has queued steps; "
                "cannot release"
            )
        self._steps.pop(session_id, None)
        self._priority.pop(session_id, None)

    def drain(self) -> list[InferenceRequest]:
        """Remove every held request, in global submission order.

        The failover hook behind
        :meth:`~repro.serving.engine.ServingEngine.evict_pending`:
        handles stay pending, per-session step order is preserved
        (request ids are engine-monotone), and the scheduler forgets
        the drained sessions so re-dispatch elsewhere starts clean.
        """
        drained = list(self._sessionless)
        self._sessionless.clear()
        for steps in self._steps.values():
            drained.extend(steps)
        self._steps.clear()
        self._priority.clear()
        return sorted(drained, key=lambda request: request.request_id)

    def stats(self) -> dict:
        return {
            "max_active": self.max_active,
            "held": self.held,
            "admissions": self.admissions,
            "preemptions": self.preemptions,
            "swap_ins": self.swap_ins,
            "iterations": self.iterations,
        }
