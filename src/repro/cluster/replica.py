"""Replica lifecycle: one serving engine plus its health state.

A :class:`Replica` wraps one :class:`~repro.serving.engine.ServingEngine`
(and therefore one sharded photonic accelerator — the ``num_cores`` /
``shard_axis`` knobs apply per replica through whatever executor its
servable was built with) and carries the cluster-visible
state machine::

    HEALTHY ──fail()──────────────► FAILED
       │
       └─start_drain()─► DRAINING ──stop()─► STOPPED

* **HEALTHY** accepts new dispatches.
* **DRAINING** finishes what it already holds; the router only sends it
  further steps of sessions it is still executing.
* **FAILED** is fault injection: queued requests are evicted and
  re-routed by the cluster, sessions are re-homed, no handle is lost.
* **STOPPED** is a completed drain; the engine is closed.

The replica also carries the bookkeeping the routing policies and the
autoscaler read: ``outstanding`` (dispatched but not completed) and
``busy_until`` — the virtual-time horizon of the cluster's service
model (an :class:`~repro.serving.scheduler.IterationCost`) when the
cluster runs under a :class:`~repro.serving.clock.SimulatedClock`.
Lifetime dispatch counts live in the fleet's
``cluster_dispatches_total{replica}`` counter
(:meth:`~repro.cluster.metrics.ClusterMetrics.dispatch_counts`).
"""

from __future__ import annotations

from typing import Any

from repro.serving.cache import MemoCache, SessionCache
from repro.serving.config import EngineConfig
from repro.serving.engine import ServingEngine
from repro.serving.request import InferenceRequest, RequestHandle
from repro.serving.scheduler import IterationCost
from repro.serving.servable import Servable

#: Replica health states (plain strings: JSON-able, printable).
HEALTHY = "healthy"
DRAINING = "draining"
FAILED = "failed"
STOPPED = "stopped"

#: States in which the replica's engine is still running work.
ALIVE_STATES = (HEALTHY, DRAINING)


class Replica:
    """One serving engine inside a cluster, with health and load state.

    Args:
        replica_id: the replica's fleet-unique id.
        servable: the model adapter its engine executes.
        config: the :class:`~repro.serving.config.EngineConfig` its
            engine is built from (the cluster's ``config.engine``).
        clock: shared time source, passed to the engine.
        memo_cache: replica-private memoization cache for the engine.
        tracer / recorder: passed through to the engine.
    """

    def __init__(
        self,
        replica_id: int,
        servable: Servable,
        *,
        config: EngineConfig,
        clock=None,
        memo_cache: MemoCache | None = None,
        tracer=None,
        recorder=None,
    ) -> None:
        self.replica_id = replica_id
        self.name = f"replica-{replica_id}"
        self.servable = servable
        self.config = config
        self.engine = ServingEngine(
            servable,
            config=config,
            clock=clock,
            cache=memo_cache,
            tracer=tracer,
            recorder=recorder,
        )
        self.state = HEALTHY
        #: Dispatched-but-not-completed requests (queued + executing).
        self.outstanding = 0
        #: Virtual-time horizon this replica is busy until (service model).
        self.busy_until = 0.0
        #: Engine handle -> cluster in-flight record, for failover.
        self.inflight: dict[RequestHandle, Any] = {}
        # Virtual batch stamping state: (start, end) of the batch whose
        # members are currently resolving, and how many are left.
        self._vbatch: tuple[float, float] = (0.0, 0.0)
        self._vbatch_left = 0

    # -- state machine -------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self.state in ALIVE_STATES

    @property
    def accepts_new(self) -> bool:
        """May the router place *new* work (not session-pinned) here?"""
        return self.state == HEALTHY

    def start_drain(self) -> None:
        if self.state != HEALTHY:
            raise ValueError(f"{self.name} cannot drain from state {self.state!r}")
        self.state = DRAINING

    def fail(self) -> list[InferenceRequest]:
        """Fault injection: mark FAILED and evict queued work.

        Returns the evicted (still-pending) requests; the cluster
        re-routes them so no :class:`RequestHandle` is lost.  Call
        :meth:`shutdown` afterwards — *outside* any cluster lock,
        because closing a wall-clock engine joins its worker thread,
        whose completion callbacks take that lock.  A batch already
        executing completes normally and resolves through the usual
        callback path.
        """
        if self.state not in ALIVE_STATES:
            raise ValueError(f"{self.name} cannot fail from state {self.state!r}")
        self.state = FAILED
        return self.engine.evict_pending()

    def shutdown(self) -> None:
        """Close the engine of a FAILED replica (nothing left to fail)."""
        self.engine.close(drain=False)

    def stop(self) -> None:
        """Complete a drain: close the (already empty) engine."""
        if self.state != DRAINING:
            raise ValueError(f"{self.name} cannot stop from state {self.state!r}")
        self.state = STOPPED
        self.engine.close(drain=True)

    # -- cluster-visible load ------------------------------------------------
    @property
    def session_cache(self) -> SessionCache | None:
        """The servable's KV/session cache, when it has one."""
        return self.engine.session_cache

    def load(self, now: float) -> float:
        """Backlog signal for routing/autoscaling: outstanding work plus
        a unit of virtual busyness while the service model keeps this
        replica occupied past ``now``."""
        return self.outstanding + (1.0 if self.busy_until > now else 0.0)

    def virtual_stamp(self, batch_size: int, now: float, model: IterationCost):
        """(started, finished) of the next resolving request under the
        service model, grouping consecutive resolutions into their batch."""
        if self._vbatch_left == 0:
            start = max(self.busy_until, now)
            end = start + model.batch_seconds(batch_size)
            self.busy_until = end
            self._vbatch = (start, end)
            self._vbatch_left = batch_size
        self._vbatch_left -= 1
        return self._vbatch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Replica({self.name}, state={self.state}, "
            f"outstanding={self.outstanding})"
        )
