"""The cluster front-end: N serving-engine replicas behind one submit().

:class:`ServingCluster` is the scale-out layer over
:class:`~repro.serving.engine.ServingEngine`: a replica **factory**
builds one servable per replica (each wrapping its own sharded photonic
accelerator — build them with equal seeds and every replica computes
bit-identical results), a :class:`~repro.cluster.router.Router` places
each request under a pluggable policy, and an optional
:class:`~repro.cluster.autoscaler.Autoscaler` grows/drains the fleet
against backlog and latency-SLO signals.

Correctness invariants the routing layer maintains:

* **Bit-exactness.**  Per-request outputs are independent of batch
  composition (the PR-4 servable invariant) and, with an equal-seed
  factory, independent of *which* replica ran them.  Decode sessions
  additionally require their steps to execute in order against their
  own KV state — the router pins in-flight sessions and migrates
  quiescent ones wholesale, so any policy is bit-identical to a single
  sequential engine (``tests/cluster/test_cluster.py::TestBitExactRouting``
  gates this on vision, ragged-text and decode workloads).
* **No lost handles.**  Failing a replica evicts its queued requests
  and re-dispatches them to survivors; its sessions are re-homed with
  their KV state.  Every submitted :class:`ClusterHandle` eventually
  resolves or fails with the real error.

Two execution regimes, like the engine underneath:

* **Manual mode** (a :class:`~repro.serving.clock.SimulatedClock`):
  :meth:`step` drives every replica deterministically, zero sleeps.  An
  optional service model (an
  :class:`~repro.serving.scheduler.IterationCost`) supplies virtual
  per-batch service times, making fleet throughput, latency
  percentiles, and autoscaler trajectories exact functions of the seed
  — replicas overlap in *virtual* time, so the scaling curve needs no
  wall-clock parallelism.
* **Wall-clock mode**: each replica runs its own worker thread;
  completions propagate through handle callbacks.  Call
  :meth:`maintain` periodically (or :meth:`close`) to finalize drains.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.cluster.autoscaler import Autoscaler, AutoscalerPolicy
from repro.cluster.config import ClusterConfig
from repro.cluster.metrics import ClusterEvent, ClusterMetrics
from repro.cluster.replica import (
    DRAINING,
    FAILED,
    HEALTHY,
    STOPPED,
    Replica,
)
from repro.cluster.router import NoHealthyReplica, Router
from repro.cluster.store import SharedCacheTier
from repro.obs.trace import NULL_SPAN, NULL_TRACER
from repro.serving.cache import (
    MISS,
    MemoCache,
    SessionCache,
    isolated,
    memoized_step_error,
)
from repro.serving.clock import WallClock
from repro.serving.metrics import RequestRecord
from repro.serving.request import EngineClosed, RequestHandle, ServingError
from repro.serving.servable import Servable


class ClusterHandle(RequestHandle):
    """Future-style view of one cluster request (routing-aware).

    The handle is also the cluster's record of the request (payload,
    keys, tenant, trace span), so a failover or retry re-dispatches it
    as is.  The cluster lends it to the replica engine that serves it:
    the engine's :meth:`_resolve`/:meth:`_fail` hand the outcome to the
    cluster, which stamps, retries or fails over, and settles the
    caller through :meth:`_settle_value`/:meth:`_settle_error`.
    """

    __slots__ = (
        "replica_id", "retries", "payload", "cache_key", "session_id", "tenant",
        "prefix_id", "span", "_cluster", "_replica", "_early",
    )

    def __init__(
        self,
        cluster: "ServingCluster",
        request_id: int,
        arrival: float,
        payload: Any,
        cache_key: Any = None,
        session_id: str | None = None,
        tenant: str | None = None,
        prefix_id: str | None = None,
    ) -> None:
        super().__init__(request_id, arrival)
        self.replica_id: int | None = None  #: replica that served it
        self.retries = 0  #: re-dispatches after execution errors
        self.payload = payload
        self.cache_key = cache_key
        self.session_id = session_id
        self.tenant = tenant
        self.prefix_id = prefix_id
        #: Open cluster.request trace span (inert with tracing disabled).
        self.span: Any = NULL_SPAN
        self._cluster = cluster
        #: The replica holding the request; ``None`` while an engine's
        #: submit is still taking it (see ServingCluster._on_done).
        self._replica: Replica | None = None
        self._early: tuple | None = None

    _settle_value = RequestHandle._resolve
    _settle_error = RequestHandle._fail

    def _resolve(self, value, *, started, finished, batch_size, cache_hit=False):
        self._cluster._on_done(self, value, None, started, finished, batch_size, cache_hit)

    def _fail(self, error, *, started=None, finished=None, batch_size=None):
        self._cluster._on_done(self, None, error, started, finished, batch_size, False)


def _check_kv_settings(servable: Servable, engine) -> None:
    """A replica decoder's KV cache must be the one ``engine`` describes.

    The tier sizes shared prefix chains and the fleet accounts KV bytes
    from ``ClusterConfig.engine``, so a factory whose caches disagree
    with it is refused at every replica build (the initial fleet,
    :meth:`ServingCluster.add_replica` and autoscaler scale-ups) instead
    of serving with the wrong pages.
    """
    cache = getattr(servable, "cache", None)
    if not isinstance(cache, SessionCache):
        return
    for name, have in (
        ("block_size", cache.block_size),
        ("kv_bits", cache.kv_bits),
        ("kv_capacity_bytes", cache.pool.capacity_bytes),
    ):
        want = getattr(engine, name)
        if have != want:
            raise ValueError(
                f"replica KV cache has {name}={have} but ClusterConfig.engine "
                f"has {name}={want}; build decoders with "
                "decode_servable(config, engine=cluster_config.engine)"
            )


class ServingCluster:
    """Multi-replica serving with routing, failover, and autoscaling.

    Args:
        factory: ``factory(replica_id) -> Servable`` builder; called for
            the initial fleet and every autoscaler scale-up.  Build with
            a fixed seed for cross-replica bit-exactness.  A decoder's
            KV cache must match ``config.engine`` (``ValueError``).
        config: a :class:`~repro.cluster.config.ClusterConfig` carrying
            the fleet knobs (``replicas``, routing ``policy``,
            ``max_retries``, the virtual-time
            ``service_model``, the shared cache tier) and the
            per-replica ``engine`` :class:`EngineConfig` (batching,
            ``queue_depth`` backpressure, ``scheduler``,
            ``iteration_cost``); the defaults when omitted.  A full
            replica queue surfaces
            :class:`~repro.serving.request.QueueFull` to the submitter —
            cluster-level backpressure.
        clock: shared time source; a :class:`SimulatedClock` selects
            manual stepping.
        autoscaler: an :class:`AutoscalerPolicy` to enable scaling.
        tracer: an :class:`~repro.obs.trace.Tracer` for cluster.request
            spans (route / failover / retry / complete events), a root
            ``cluster`` span carrying fleet lifecycle events, and —
            passed through to every replica engine — the full
            request -> iteration -> shard -> stage chain beneath.
            Defaults to the no-op :data:`~repro.obs.trace.NULL_TRACER`.
        recorder: an optional
            :class:`~repro.obs.recorder.FlightRecorder`, shared with
            every replica engine.  :meth:`fail_replica` freezes a
            postmortem bundle (recent spans/events + the fleet registry
            and snapshot) — fault injection as a first-class
            observability scenario; engine-level dooms and serving
            errors bundle through the same recorder.
        slo_monitor: an optional
            :class:`~repro.obs.timeseries.SLOMonitor`; :meth:`maintain`
            ticks it each cycle (sampling its
            :class:`~repro.obs.timeseries.TimeSeriesRecorder` and
            appending burn-rate transitions to the alert ledger), and
            the autoscaler — when both are configured — treats firing
            alerts as a scale-up signal.
    """

    def __init__(
        self,
        factory: Callable[[int], Servable],
        *,
        config: ClusterConfig | None = None,
        clock=None,
        autoscaler: AutoscalerPolicy | None = None,
        tracer=None,
        recorder=None,
        slo_monitor=None,
    ) -> None:
        config = config if config is not None else ClusterConfig()
        self.config = config
        self.factory = factory
        self.clock = clock if clock is not None else WallClock()
        self.manual = not getattr(self.clock, "real", True)
        if config.service_model is not None and not self.manual:
            raise ValueError(
                "service_model needs a SimulatedClock (virtual time is "
                "only defined in manual mode)"
            )
        self.service_model = config.service_model
        self.max_retries = config.max_retries
        self.metrics = ClusterMetrics()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.recorder = recorder
        self.slo_monitor = slo_monitor
        #: Root span carrying fleet lifecycle events (scale_up / drain /
        #: retire / replica_failed).
        self._span = self.tracer.start_span("cluster")
        self.router = Router(config.policy)
        self.tier: SharedCacheTier | None = (
            SharedCacheTier(memo_capacity_bytes=config.memo_bytes)
            if config.shared_cache
            else None
        )
        #: Registered shared prefixes: prefix id -> prompt tokens.
        self._prefixes: dict[str, int] = {}
        #: Sessions forked from a tier chain (holder-refcount custody).
        self._session_prefix: dict[str, str] = {}
        #: Replicas by id, in id order (ids only grow and none is removed).
        self._replicas: dict[int, Replica] = {}
        self._next_replica_id = 0
        self._next_request_id = 0
        self._lock = threading.RLock()
        self._running = False
        self._closed = False
        for _ in range(config.replicas):
            self._add_replica_locked()
        self.autoscaler = (
            Autoscaler(autoscaler, self, slo_monitor=slo_monitor)
            if autoscaler is not None
            else None
        )

    # -- fleet management ----------------------------------------------------
    def _add_replica_locked(self) -> Replica:
        replica_id = self._next_replica_id
        self._next_replica_id += 1
        # With a shared tier, memoization lives fleet-wide; otherwise
        # memo_bytes buys each replica a private memo cache (the
        # pre-tier baseline whose hits routing can forfeit).
        memo_cache = (
            MemoCache(self.config.memo_bytes)
            if self.config.memo_bytes is not None and self.tier is None
            else None
        )
        servable = self.factory(replica_id)
        _check_kv_settings(servable, self.config.engine)
        replica = Replica(
            replica_id,
            servable,
            config=self.config.engine,
            clock=self.clock,
            memo_cache=memo_cache,
            tracer=self.tracer,
            recorder=self.recorder,
        )
        self._replicas[replica_id] = replica
        if self._running:
            replica.engine.start()
        return replica

    def _healthy_locked(self) -> list[Replica]:
        return [r for r in self._replicas.values() if r.state == HEALTHY]

    def _scale_up_locked(self, now: float, reason: str) -> Replica:
        replica = self._add_replica_locked()
        self.metrics.record_event(
            ClusterEvent(
                now, "scale_up", replica.replica_id,
                len(self._healthy_locked()), reason,
            )
        )
        self._span.add_event(
            "scale_up", replica_id=replica.replica_id, reason=reason
        )
        return replica

    def _begin_drain_locked(self, replica: Replica, now: float, reason: str) -> None:
        replica.start_drain()
        self.metrics.record_event(
            ClusterEvent(
                now, "drain", replica.replica_id,
                len(self._healthy_locked()), reason,
            )
        )
        self._span.add_event(
            "drain", replica_id=replica.replica_id, reason=reason
        )

    def add_replica(self, reason: str = "manual") -> Replica:
        """Grow the fleet by one replica (records a scale_up event)."""
        with self._lock:
            if self._closed:
                raise EngineClosed("cluster is closed")
            return self._scale_up_locked(self.clock.now(), reason)

    def drain_replica(self, replica_id: int, reason: str = "manual") -> None:
        """Start a graceful drain (retired once its backlog is empty)."""
        with self._lock:
            self._begin_drain_locked(
                self._replicas[replica_id], self.clock.now(), reason
            )

    @property
    def replicas(self) -> dict[int, Replica]:
        with self._lock:
            return dict(self._replicas)

    @property
    def fleet_size(self) -> int:
        """Healthy replicas (the autoscaler's notion of fleet size)."""
        with self._lock:
            return len(self._healthy_locked())

    @property
    def pending(self) -> int:
        """Requests admitted to replica queues but not yet dispatched."""
        with self._lock:
            return sum(
                r.engine.pending for r in self._replicas.values() if r.alive
            )

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "ServingCluster":
        """Launch every replica's worker thread (no-op in manual mode)."""
        with self._lock:
            if self._closed:
                raise EngineClosed("cluster already closed")
            self._running = True
            replicas = list(self._replicas.values())
        for replica in replicas:
            if replica.alive:
                replica.engine.start()
        return self

    def __enter__(self) -> "ServingCluster":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self, *, drain: bool = True) -> None:
        """Shut the fleet down; ``drain=False`` fails pending handles."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            replicas = list(self._replicas.values())
        for replica in replicas:
            if not replica.engine.closed:
                replica.engine.close(drain=drain)
        self.tracer.end(self._span)

    @property
    def closed(self) -> bool:
        return self._closed

    # -- shared prefixes -----------------------------------------------------
    def register_prefix(self, prefix_id: str, prompt_len: int) -> None:
        """Register a shared system prompt of ``prompt_len`` tokens.

        Sessions submitted with ``prefix_id=`` fork from it: with a
        shared tier (and ``share_prefixes``) they adopt the tier's
        refcounted :class:`~repro.serving.cache.PrefixChain` — pages
        charged once fleet-wide; otherwise each session materializes
        the prompt privately in its replica's pool.  Idempotent for a
        matching ``prompt_len``.
        """
        if prompt_len < 1:
            raise ValueError(f"prompt_len must be >= 1, got {prompt_len}")
        with self._lock:
            known = self._prefixes.get(prefix_id)
            if known is not None and known != prompt_len:
                raise ValueError(
                    f"prefix {prefix_id!r} already registered with "
                    f"{known} tokens, not {prompt_len}"
                )
            self._prefixes[prefix_id] = prompt_len
            if self.tier is not None and self.config.share_prefixes:
                template = next(
                    (
                        r.session_cache
                        for r in self._replicas.values()
                        if r.session_cache is not None
                    ),
                    None,
                )
                if template is None:
                    raise ValueError(
                        "prefix sharing needs replicas with a decoder "
                        "SessionCache (a DecodeServable fleet)"
                    )
                self.tier.ensure_prefix(
                    prefix_id,
                    prompt_len,
                    config=template.config,
                    block_size=template.block_size,
                    kv_bits=template.kv_bits,
                )

    def _ensure_prefix_session_locked(
        self, handle: ClusterHandle, replica: Replica
    ) -> None:
        """Open the session's prompt state on its replica, if absent."""
        cache = replica.session_cache
        if cache is None or cache.has_session(handle.session_id):
            return
        prompt_len = self._prefixes[handle.prefix_id]
        if self.tier is not None and self.config.share_prefixes:
            chain = self.tier.acquire_prefix(
                handle.prefix_id, replica.replica_id
            )
            cache.adopt_prefix(handle.session_id, chain)
            self._session_prefix[handle.session_id] = handle.prefix_id
            self.metrics.record_prefix_adoption(shared=True)
        else:
            cache.open_session(handle.session_id, prompt_len=prompt_len)
            self.metrics.record_prefix_adoption(shared=False)

    # -- submission ----------------------------------------------------------
    def submit(
        self,
        payload: Any,
        *,
        cache_key: Any = None,
        session_id: str | None = None,
        tenant: str | None = None,
        prefix_id: str | None = None,
    ) -> ClusterHandle:
        """Admit one request; the router picks its replica.

        ``cache_key`` consults the shared tier (when configured) before
        routing — a fleet-wide hit resolves immediately on whatever
        replica computed it first, under any policy.  On a fleet of KV
        sessions a ``cache_key`` with a ``session_id`` is a
        ``ValueError`` (a hit would skip the step's K/V commit), as on
        the engine.  ``prefix_id`` (with ``session_id``) forks the
        session from a registered shared prompt prefix at first
        dispatch.

        Raises :class:`QueueFull` when the chosen replica's queue is at
        capacity (cluster-level backpressure) and
        :class:`NoHealthyReplica` when routing finds no target.
        """
        with self._lock:
            if self._closed:
                raise EngineClosed("cluster is closed")
            if prefix_id is not None and prefix_id not in self._prefixes:
                raise ValueError(
                    f"unregistered prefix {prefix_id!r}; call "
                    "register_prefix() first"
                )
            if prefix_id is not None and session_id is None:
                raise ValueError("prefix_id needs a session_id to fork")
            # A tier hit returns before any engine sees the request, so
            # the engine's refusal does not cover it.
            if (
                cache_key is not None
                and session_id is not None
                and any(r.session_cache is not None for r in self._replicas.values())
            ):
                raise memoized_step_error(session_id)
            handle = ClusterHandle(
                self, self._next_request_id, self.clock.now(), payload,
                cache_key, session_id, tenant, prefix_id,
            )
            self._next_request_id += 1
            # An untraced cluster skips the per-request span calls (one
            # body: tests/obs/test_traced_equality.py pins traced ==
            # untraced).
            span = handle.span
            if self.tracer is not NULL_TRACER:
                span = handle.span = self.tracer.start_span(
                    "cluster.request",
                    parent=self._span,
                    request_id=handle.request_id,
                    session_id=session_id,
                    tenant=tenant,
                )
                span.add_event("submit")
            if cache_key is not None and self.tier is not None:
                hit = self.tier.memo.get(cache_key)
                if hit is not MISS:
                    now = handle.arrival
                    handle._settle_value(
                        isolated(hit), started=now, finished=now,
                        batch_size=0, cache_hit=True,
                    )
                    self.metrics.record(RequestRecord(now, now, now, 0, True))
                    span.set_attr("cache_hit", True)
                    span.add_event("complete", tier_hit=True)
                    self.tracer.end(span)
                    return handle
            try:
                self._dispatch_locked(handle)
            except Exception as error:  # unroutable / invalid payload / full
                span.add_event("rejected", error=type(error).__name__)
                self.tracer.end(span)
                raise
        return handle

    def _dispatch(self, handle: ClusterHandle) -> None:
        """Route and enqueue a request again (failover or retry)."""
        with self._lock:
            self._dispatch_locked(handle)

    def _dispatch_locked(self, handle: ClusterHandle) -> None:
        """Route and enqueue one request; the caller holds the lock."""
        session_id = handle.session_id
        prefix_holders = None
        if handle.prefix_id is not None and self.tier is not None:
            prefix_holders = self.tier.replicas_holding(handle.prefix_id)
        decision = self.router.route(self._replicas, session_id, prefix_holders)
        replica = decision.replica
        if decision.migrate_from is not None:
            self._migrate_locked(session_id, decision.migrate_from, replica)
        if handle.prefix_id is not None:
            self._ensure_prefix_session_locked(handle, replica)
        handle._replica = None  # an outcome inside submit waits (see _on_done)
        replica.engine.submit(
            handle.payload,
            cache_key=handle.cache_key,
            session_id=session_id,
            block=False,
            handle=handle,
        )
        self.router.begin(session_id)
        replica.outstanding += 1
        handle.replica_id = replica.replica_id
        handle._replica = replica
        self.metrics.record_dispatch(
            replica.replica_id,
            tenant=handle.tenant,
            affinity_hit=decision.affinity_hit,
            new_session=decision.new_session,
        )
        if handle.span is not NULL_SPAN:
            handle.span.add_event(
                "route",
                replica_id=replica.replica_id,
                affinity_hit=decision.affinity_hit,
                migrated=decision.migrate_from is not None,
            )
        early, handle._early = handle._early, None
        if early is not None:
            self._on_done(handle, *early)

    def _move_session_locked(
        self, session_id: str, source: Replica, target: Replica
    ) -> None:
        """Move one session held in ``source``'s cache to ``target``."""
        session = source.session_cache.pop_session(session_id)
        target_cache = target.session_cache
        if target_cache is not None:
            target_cache.adopt_session(session)
        if session.prefix_id is not None and self.tier is not None:
            # Shared prefix pages don't travel (tier custody) but the
            # holder directory follows the session for cache_aware
            # placement and failover release accounting.
            self.tier.move_holder(
                session.prefix_id, source.replica_id, target.replica_id
            )

    def _migrate_locked(
        self, session_id: str, source: Replica, target: Replica
    ) -> None:
        """Move one quiescent session's KV state between replicas."""
        source_cache = source.session_cache
        if source_cache is None or not source_cache.has_session(session_id):
            # Directory entry without materialized KV (first step never
            # executed, or a cacheless servable): only the placement
            # moved — no KV traffic, so the migration ledger stays
            # untouched.
            return
        nbytes = source_cache.session_bytes(session_id)
        self._move_session_locked(session_id, source, target)
        self.metrics.record_migration(nbytes)

    # -- completion propagation ----------------------------------------------
    def _on_done(
        self,
        handle: ClusterHandle,
        value: Any,
        error: BaseException | None,
        started: float | None,
        finished: float | None,
        batch_size: int | None,
        cache_hit: bool,
    ) -> None:
        """An engine's outcome for ``handle``: settle, fail over, or retry."""
        with self._lock:
            replica = handle._replica
            if replica is None:
                # Resolved inside the engine's submit (a replica memo
                # hit): the dispatch finishes its bookkeeping first and
                # then hands the outcome back here.
                handle._early = (value, error, started, finished, batch_size, cache_hit)
                return
            replica.outstanding -= 1
            self.router.finish(handle.session_id)
            if error is None:
                if (
                    handle.cache_key is not None
                    and self.tier is not None
                    and not cache_hit
                ):
                    # Publish the freshly computed result fleet-wide so
                    # any replica's next request for this key hits.
                    self.tier.memo.put(handle.cache_key, isolated(value))
                batch_size = batch_size or 0
                arrival = handle.arrival
                if self.service_model is not None and not cache_hit:
                    started, finished = replica.virtual_stamp(
                        max(batch_size, 1), self.clock.now(), self.service_model
                    )
                else:
                    if started is None:
                        started = arrival
                    if finished is None:
                        finished = arrival
                handle.replica_id = replica.replica_id
                handle._settle_value(
                    value,
                    started=started,
                    finished=finished,
                    batch_size=batch_size,
                    cache_hit=cache_hit,
                )
                self.metrics.record(
                    RequestRecord(arrival, started, finished, batch_size, cache_hit)
                )
                if handle.span is not NULL_SPAN:
                    handle.span.add_event(
                        "complete",
                        replica_id=replica.replica_id,
                        cache_hit=cache_hit,
                    )
                    self.tracer.end(handle.span)
                return
            if handle.done():
                return  # already settled (double-failure race)
            # A closing cluster neither fails over nor retries: the
            # EngineClosed from each replica's shutdown is the final
            # answer for its pending handles.
            failover = (
                isinstance(error, EngineClosed) or replica.state == FAILED
            ) and not self._closed
            retryable = (
                not failover
                and not self._closed
                and handle.retries < self.max_retries
            )
        if failover or retryable:
            if failover:
                self.metrics.record_failover()
                handle.span.add_event(
                    "failover", from_replica=replica.replica_id
                )
            else:
                handle.retries += 1
                self.metrics.record_retry()
                handle.span.add_event("retry", attempt=handle.retries)
            try:
                self._dispatch(handle)
                return
            except ServingError as redispatch_error:
                error = redispatch_error
        handle._settle_error(
            error, started=started, finished=finished, batch_size=batch_size
        )
        self.metrics.record_failures()
        handle.span.add_event("failed", error=type(error).__name__)
        self.tracer.end(handle.span)

    def release_session(self, session_id: str) -> int:
        """Retire a finished decode session fleet-wide.

        Frees the owning replica's paged KV state (its
        :class:`~repro.serving.cache.BlockPool` pages return to the
        free list), drops the engine scheduler's bookkeeping there,
        and forgets the directory entry.  Returns the KV bytes freed.
        Call once the session's submitted steps have resolved.
        """
        with self._lock:
            owner_id = self.router.directory.get(session_id)
            owner = self._replicas.get(owner_id) if owner_id is not None else None
            self.router.forget_owner(session_id)
            prefix_id = self._session_prefix.pop(session_id, None)
            if prefix_id is not None and self.tier is not None and owner is not None:
                # Drop the tier refcount before the replica closes the
                # session (which releases only the private tail pages).
                self.tier.release_prefix(prefix_id, owner.replica_id)
            if owner is None or owner.engine.closed:
                return 0
            return owner.engine.release_session(session_id)

    # -- fault injection & failover ------------------------------------------
    def fail_replica(self, replica_id: int) -> int:
        """Inject a replica failure; returns re-dispatched request count.

        Queued requests are evicted and re-routed (their handles stay
        pending until a survivor serves them), sessions are re-homed
        with their KV state, and the failure lands in the event log.  A
        wall-clock batch already executing completes normally first.
        """
        with self._lock:
            replica = self._replicas[replica_id]
            evicted = replica.fail()  # marks FAILED, evicts the queue
            handles = [
                request.handle
                for request in evicted
                if isinstance(request.handle, ClusterHandle)
            ]
            replica.outstanding -= len(handles)
            for handle in handles:
                self.router.finish(handle.session_id)
            self.metrics.record_event(
                ClusterEvent(
                    self.clock.now(), "replica_failed", replica_id,
                    len(self._healthy_locked()), "fault injection",
                )
            )
            self._span.add_event(
                "replica_failed", replica_id=replica_id, evicted=len(handles)
            )
        # Outside the lock: joins the worker thread, whose completion
        # callbacks re-enter the cluster lock.
        replica.shutdown()
        with self._lock:
            self._rehome_sessions_locked(replica)
        rerouted = 0
        for handle in handles:
            handle.span.add_event("failover", from_replica=replica_id)
            try:
                self._dispatch(handle)
                rerouted += 1
            except ServingError as error:
                handle._settle_error(error)
                self.metrics.record_failures()
                handle.span.add_event("failed", error=type(error).__name__)
                self.tracer.end(handle.span)
        self.metrics.record_failover(rerouted)
        if self.recorder is not None:
            self.recorder.note(
                "replica_failed", replica_id=replica_id, rerouted=rerouted
            )
            self.recorder.trigger(
                "replica_failed",
                registry=self.metrics.registry,
                snapshot=self.snapshot(),
                replica_id=replica_id,
                evicted=len(handles),
                rerouted=rerouted,
            )
        return rerouted

    def _rehome_sessions_locked(self, replica: Replica) -> None:
        """Move a dead replica's sessions (and KV) to survivors."""
        cache = replica.session_cache
        for session_id in self.router.sessions_owned_by(replica.replica_id):
            try:
                target = self.router.rehome(session_id, self._replicas)
            except NoHealthyReplica:
                self.router.forget_owner(session_id)
                prefix_id = self._session_prefix.pop(session_id, None)
                if cache is not None and cache.has_session(session_id):
                    if prefix_id is not None and self.tier is not None:
                        # Nobody can adopt the session: return its tier
                        # refcount so the chain doesn't leak as pinned.
                        self.tier.release_prefix(prefix_id, replica.replica_id)
                    cache.close_session(session_id)
                continue
            if cache is not None and cache.has_session(session_id):
                self._move_session_locked(session_id, replica, target)
            self.metrics.record_rehome()

    # -- manual stepping & maintenance ---------------------------------------
    def step(self, *, force: bool = True) -> int:
        """Step every live replica once; returns requests executed.

        Manual mode only.  Also runs one autoscaler evaluation and
        finalizes completed drains — the deterministic maintenance tick.
        """
        if not self.manual:
            raise RuntimeError("step() is for manual (simulated-clock) mode")
        with self._lock:
            live = [r for r in self._replicas.values() if r.alive]
        executed = 0
        for replica in live:
            if not replica.engine.closed:
                executed += replica.engine.step(force=force)
        self.maintain()
        return executed

    def maintain(self) -> None:
        """SLO tick + autoscaler evaluation + drain finalization.

        The SLO monitor ticks *before* the autoscaler evaluates, so an
        alert that fires on this cycle's measurements is visible to
        this cycle's scaling decision.
        """
        with self._lock:
            if self.slo_monitor is not None:
                self.slo_monitor.tick(self.clock.now())
            if self.autoscaler is not None:
                self.autoscaler.evaluate(self.clock.now())
            ready = [
                r
                for r in self._replicas.values()
                if r.state == DRAINING
                and r.outstanding == 0
                and r.engine.pending == 0
            ]
            for replica in ready:
                self._rehome_sessions_locked(replica)
                replica.state = STOPPED
                self.metrics.record_event(
                    ClusterEvent(
                        self.clock.now(), "retire", replica.replica_id,
                        len(self._healthy_locked()), "drain complete",
                    )
                )
                self._span.add_event("retire", replica_id=replica.replica_id)
        for replica in ready:
            replica.engine.close(drain=True)

    def run_until_idle(self) -> int:
        """Step until every replica queue is empty; returns executed."""
        processed = 0
        while True:
            executed = self.step(force=True)
            processed += executed
            if executed == 0 and self.pending == 0:
                return processed

    # -- observability -------------------------------------------------------
    def snapshot(self) -> dict:
        """Fleet metrics + per-replica engine views + replica states."""
        with self._lock:
            replicas = dict(self._replicas)
        snapshot = self.metrics.snapshot(
            {rid: r.engine.metrics for rid, r in replicas.items()}
        )
        dispatched = snapshot["dispatches"]
        snapshot["replicas"] = {
            str(rid): {
                "state": r.state,
                "dispatched": dispatched.get(str(rid), 0),
                "outstanding": r.outstanding,
                "busy_until": r.busy_until,
            }
            for rid, r in sorted(replicas.items())
        }
        snapshot["fleet_size"] = self.fleet_size
        if self.tier is not None:
            snapshot["tier"] = self.tier.stats()
        return snapshot
