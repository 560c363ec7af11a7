"""Multi-replica serving: routing, session affinity, SLO autoscaling.

The scale-out layer over :mod:`repro.serving`: a
:class:`ServingCluster` fronts N :class:`ServingEngine` replicas (each
wrapping its own sharded photonic accelerator), a :class:`Router`
places requests under ``round_robin`` / ``least_outstanding`` /
``session_affinity`` policies with a cluster-level session directory
and wholesale KV migration, an :class:`Autoscaler` grows and drains the
fleet against backlog and latency-SLO signals, and
:class:`ClusterMetrics` aggregates per-replica metrics into fleet
throughput, percentiles, affinity hit rate, and a deterministic event
log.  An optional :class:`SharedCacheTier` (``ClusterConfig.shared_cache``)
holds the fleet-wide prompt memo and the refcounted shared-prefix KV
chains that decode sessions fork from.  Everything runs under the shared
:class:`~repro.serving.clock.SimulatedClock` in manual-step mode (zero
sleeps; an :class:`~repro.serving.scheduler.IterationCost` service
model supplies virtual batch service times)
as well as wall-clock mode.
"""

from repro.cluster.autoscaler import Autoscaler, AutoscalerPolicy
from repro.cluster.cluster import ClusterHandle, ServingCluster
from repro.cluster.config import ClusterConfig
from repro.cluster.loadgen import run_virtual_open_loop
from repro.cluster.metrics import ClusterEvent, ClusterMetrics
from repro.cluster.replica import (
    ALIVE_STATES,
    DRAINING,
    FAILED,
    HEALTHY,
    STOPPED,
    Replica,
)
from repro.cluster.router import (
    POLICIES,
    CacheAwarePolicy,
    LeastOutstandingPolicy,
    NoHealthyReplica,
    RouteDecision,
    Router,
    RoundRobinPolicy,
    RoutingPolicy,
    SessionAffinityPolicy,
    make_policy,
)
from repro.cluster.store import SharedCacheTier

__all__ = [
    "ALIVE_STATES",
    "Autoscaler",
    "AutoscalerPolicy",
    "CacheAwarePolicy",
    "ClusterConfig",
    "ClusterEvent",
    "ClusterHandle",
    "ClusterMetrics",
    "DRAINING",
    "FAILED",
    "HEALTHY",
    "LeastOutstandingPolicy",
    "NoHealthyReplica",
    "POLICIES",
    "Replica",
    "RouteDecision",
    "Router",
    "RoundRobinPolicy",
    "RoutingPolicy",
    "STOPPED",
    "ServingCluster",
    "SessionAffinityPolicy",
    "SharedCacheTier",
    "make_policy",
    "run_virtual_open_loop",
]
