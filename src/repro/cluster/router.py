"""Request routing: dispatch policies and the cluster session directory.

The :class:`Router` answers one question per request — *which replica* —
under two constraints that keep cluster execution bit-identical to a
single engine:

* **Session ordering.**  A decode session's steps must execute in
  submission order.  While a session has in-flight work on its owner
  replica, every further step pins there, whatever the policy says.
* **KV locality.**  A session's K/V state lives in exactly one replica's
  :class:`~repro.serving.cache.SessionCache`.  When a policy sends a
  quiescent session elsewhere, the router reports a **migration**: the
  cluster moves the session wholesale (bits travel with it) and charges
  the traffic.  ``session_affinity`` is the policy that never volunteers
  a migration — the *affinity hit rate* (owner-routed fraction of
  steps with an existing owner) is the metric ``bench_cluster.py``
  compares against ``round_robin``.

Policies are deterministic: ``round_robin`` cycles a counter,
``least_outstanding`` breaks ties by replica id, ``session_affinity``
falls back to least-outstanding for new sessions.
"""

from __future__ import annotations

import abc
from typing import Callable, NamedTuple, Sequence

from repro.cluster.replica import Replica
from repro.serving.request import ServingError


class NoHealthyReplica(ServingError):
    """Routing failed: no replica can accept the request."""


class RoutingPolicy(abc.ABC):
    """Deterministic choice among dispatchable replicas."""

    name = "policy"
    #: Sticky policies keep a session on its current owner when possible.
    sticky_sessions = False
    #: Prefix-aware policies prefer replicas already holding the
    #: session's shared prefix chain for first-time placements.
    prefix_aware = False

    @abc.abstractmethod
    def choose(self, candidates: Sequence[Replica]) -> Replica:
        """Pick one of ``candidates`` (non-empty, sorted by id)."""


class RoundRobinPolicy(RoutingPolicy):
    """Cycle through the healthy replicas in id order."""

    name = "round_robin"

    def __init__(self) -> None:
        self._turn = -1

    def choose(self, candidates: Sequence[Replica]) -> Replica:
        self._turn += 1
        return candidates[self._turn % len(candidates)]


class LeastOutstandingPolicy(RoutingPolicy):
    """Fewest dispatched-but-uncompleted requests; ties to lowest id."""

    name = "least_outstanding"

    def choose(self, candidates: Sequence[Replica]) -> Replica:
        return min(candidates, key=lambda r: (r.outstanding, r.replica_id))


class SessionAffinityPolicy(RoutingPolicy):
    """Pin sessions to the replica holding their KV cache.

    The stickiness itself lives in :meth:`Router.route` (it needs the
    directory); this policy only decides *new* placements, delegating to
    a load-balancing fallback so fresh sessions spread across the fleet.
    """

    name = "session_affinity"
    sticky_sessions = True

    def __init__(self, fallback: RoutingPolicy | None = None) -> None:
        self.fallback = fallback if fallback is not None else LeastOutstandingPolicy()

    def choose(self, candidates: Sequence[Replica]) -> Replica:
        return self.fallback.choose(candidates)


class CacheAwarePolicy(RoutingPolicy):
    """Place sessions where their shared prefix pages already live.

    First-time placements of a session forked from a shared prefix
    prefer the replicas whose sessions already hold that chain (the
    tier's holder directory — co-located forks make the fleet's warm
    state explicit for operators even though chain pages are shared
    either way), falling back to least-outstanding load balancing when
    nobody holds the prefix.  Sticky like ``session_affinity``, so
    placed sessions never migrate their KV state.
    """

    name = "cache_aware"
    sticky_sessions = True
    prefix_aware = True

    def __init__(self, fallback: RoutingPolicy | None = None) -> None:
        self.fallback = fallback if fallback is not None else LeastOutstandingPolicy()

    def choose(self, candidates: Sequence[Replica]) -> Replica:
        return self.fallback.choose(candidates)


#: Registry of the built-in policies, by CLI/benchmark name.
POLICIES: dict[str, Callable[[], RoutingPolicy]] = {
    "round_robin": RoundRobinPolicy,
    "least_outstanding": LeastOutstandingPolicy,
    "session_affinity": SessionAffinityPolicy,
    "cache_aware": CacheAwarePolicy,
}


def make_policy(policy: "str | RoutingPolicy") -> RoutingPolicy:
    """A policy instance from its registry name (instances pass through)."""
    if isinstance(policy, RoutingPolicy):
        return policy
    try:
        return POLICIES[policy]()
    except KeyError:
        raise ValueError(
            f"unknown routing policy {policy!r}; known: {sorted(POLICIES)}"
        ) from None


class RouteDecision(NamedTuple):
    """Where one request goes, and what the routing implied."""

    replica: Replica
    #: True/False for steps of sessions with an existing owner; None for
    #: sessionless requests and first-time session placements.
    affinity_hit: bool | None = None
    #: Owner the session must be migrated away from (None = no move).
    migrate_from: Replica | None = None
    #: The request opened a new session placement.
    new_session: bool = False


class Router:
    """Session directory + policy dispatch (cluster holds the lock)."""

    def __init__(self, policy: "str | RoutingPolicy") -> None:
        self.policy = make_policy(policy)
        #: session id -> owning replica id.
        self.directory: dict[str, int] = {}
        #: session id -> in-flight (dispatched, uncompleted) step count.
        self._inflight: dict[str, int] = {}

    # -- in-flight accounting (cluster calls these under its lock) -----------
    def begin(self, session_id: str | None) -> None:
        if session_id is not None:
            self._inflight[session_id] = self._inflight.get(session_id, 0) + 1

    def finish(self, session_id: str | None) -> None:
        if session_id is not None:
            remaining = self._inflight.get(session_id, 0) - 1
            if remaining > 0:
                self._inflight[session_id] = remaining
            else:
                self._inflight.pop(session_id, None)

    def inflight(self, session_id: str) -> int:
        return self._inflight.get(session_id, 0)

    def sessions_owned_by(self, replica_id: int) -> list[str]:
        """Sorted session ids the directory places on ``replica_id``."""
        return sorted(
            sid for sid, rid in self.directory.items() if rid == replica_id
        )

    def forget_owner(self, session_id: str) -> None:
        self.directory.pop(session_id, None)

    # -- the routing decision ------------------------------------------------
    def route(
        self,
        replicas: dict[int, Replica],
        session_id: str | None,
        prefix_holders: "Sequence[int] | None" = None,
    ) -> RouteDecision:
        """Decide placement for one request at dispatch time.

        ``replicas`` is the full fleet by id; dispatchable candidates
        are the HEALTHY ones.  ``prefix_holders`` names the replicas
        already holding the session's shared prefix chain — a
        prefix-aware policy narrows first-time placements to them.
        Raises :class:`NoHealthyReplica` when no placement is possible.
        """
        if session_id is None:
            return RouteDecision(self.policy.choose(_candidates(replicas)))

        owner_id = self.directory.get(session_id)
        owner = replicas.get(owner_id) if owner_id is not None else None
        if owner is not None and not owner.alive:
            owner = None  # failed/stopped owners are re-placed below

        if owner is not None:
            # Ordering constraint: in-flight steps pin to the owner even
            # when it is draining (it still completes what it holds).
            # Both early returns skip building the candidate list.
            if session_id in self._inflight:
                return RouteDecision(owner, affinity_hit=True)
            if self.policy.sticky_sessions and owner.accepts_new:
                return RouteDecision(owner, affinity_hit=True)
            # An accepting owner would be among the candidates, so an
            # empty list means the quiescent session has nowhere to go.
            chosen = self.policy.choose(_candidates(replicas))
            if chosen is owner:
                return RouteDecision(owner, affinity_hit=True)
            self.directory[session_id] = chosen.replica_id
            return RouteDecision(
                chosen, affinity_hit=False, migrate_from=owner
            )

        pool = _candidates(replicas)
        if self.policy.prefix_aware and prefix_holders:
            holders = set(prefix_holders)
            holding = [r for r in pool if r.replica_id in holders]
            if holding:
                pool = holding
        chosen = self.policy.choose(pool)
        self.directory[session_id] = chosen.replica_id
        return RouteDecision(chosen, new_session=True)

    def rehome(
        self, session_id: str, replicas: dict[int, Replica]
    ) -> Replica:
        """Re-place a session whose owner failed or drained away.

        Uses the policy's view of the healthy fleet; updates the
        directory.  Raises :class:`NoHealthyReplica` when nobody can
        take it.
        """
        candidates = _candidates(
            replicas, f"no healthy replica to re-home session {session_id!r}"
        )
        chosen = self.policy.choose(candidates)
        self.directory[session_id] = chosen.replica_id
        return chosen


def _candidates(
    replicas: dict[int, Replica],
    error: str = "no healthy replica accepts new work",
) -> list[Replica]:
    """The replicas accepting new work, by id; :class:`NoHealthyReplica`
    with ``error`` when there are none."""
    candidates = sorted(
        (r for r in replicas.values() if r.accepts_new),
        key=lambda r: r.replica_id,
    )
    if not candidates:
        raise NoHealthyReplica(error)
    return candidates
