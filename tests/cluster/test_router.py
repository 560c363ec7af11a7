"""Tests for routing policies and the session directory."""

import pytest

from repro.cluster import (
    FAILED,
    LeastOutstandingPolicy,
    NoHealthyReplica,
    Replica,
    RoundRobinPolicy,
    Router,
    SessionAffinityPolicy,
    make_policy,
)
from repro.serving import EngineConfig, SimulatedClock


class NullServable:
    name = "null"

    def prepare(self, payload):
        return payload

    def execute(self, requests):
        return [request.payload for request in requests]


def fleet(n=3):
    replicas = {
        rid: Replica(
            rid,
            NullServable(),
            config=EngineConfig(),
            clock=SimulatedClock(),
        )
        for rid in range(n)
    }
    return replicas


class TestMakePolicy:
    def test_by_name(self):
        assert isinstance(make_policy("round_robin"), RoundRobinPolicy)
        assert isinstance(make_policy("least_outstanding"), LeastOutstandingPolicy)
        assert isinstance(make_policy("session_affinity"), SessionAffinityPolicy)

    def test_instance_passes_through(self):
        policy = RoundRobinPolicy()
        assert make_policy(policy) is policy

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown routing policy"):
            make_policy("random")


class TestPolicies:
    def test_round_robin_cycles_in_id_order(self):
        replicas = fleet(3)
        policy = RoundRobinPolicy()
        candidates = sorted(replicas.values(), key=lambda r: r.replica_id)
        picks = [policy.choose(candidates).replica_id for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_least_outstanding_breaks_ties_by_id(self):
        replicas = fleet(3)
        candidates = sorted(replicas.values(), key=lambda r: r.replica_id)
        policy = LeastOutstandingPolicy()
        assert policy.choose(candidates).replica_id == 0
        replicas[0].outstanding = 2
        replicas[1].outstanding = 1
        assert policy.choose(candidates).replica_id == 2
        replicas[2].outstanding = 3
        assert policy.choose(candidates).replica_id == 1

    def test_affinity_falls_back_to_least_outstanding(self):
        replicas = fleet(2)
        replicas[0].outstanding = 5
        candidates = sorted(replicas.values(), key=lambda r: r.replica_id)
        assert SessionAffinityPolicy().choose(candidates).replica_id == 1


class TestRouterSessions:
    def test_sessionless_requests_use_the_policy(self):
        replicas = fleet(3)
        router = Router("round_robin")
        picks = [
            router.route(replicas, None).replica.replica_id for _ in range(4)
        ]
        assert picks == [0, 1, 2, 0]
        assert router.directory == {}

    def test_new_session_is_placed_and_recorded(self):
        replicas = fleet(3)
        router = Router("session_affinity")
        decision = router.route(replicas, "s0")
        assert decision.new_session
        assert decision.affinity_hit is None
        assert router.directory["s0"] == decision.replica.replica_id

    def test_sticky_policy_pins_to_owner(self):
        replicas = fleet(3)
        router = Router("session_affinity")
        first = router.route(replicas, "s0").replica
        # Load the owner heavily: the fallback would pick someone else.
        first.outstanding = 10
        decision = router.route(replicas, "s0")
        assert decision.replica is first
        assert decision.affinity_hit is True
        assert decision.migrate_from is None

    def test_non_sticky_policy_migrates_quiescent_session(self):
        replicas = fleet(2)
        router = Router("round_robin")
        owner = router.route(replicas, "s0").replica
        assert owner.replica_id == 0
        decision = router.route(replicas, "s0")  # round robin moves on
        assert decision.replica.replica_id == 1
        assert decision.affinity_hit is False
        assert decision.migrate_from is owner
        assert router.directory["s0"] == 1

    def test_inflight_session_pins_even_for_round_robin(self):
        replicas = fleet(2)
        router = Router("round_robin")
        owner = router.route(replicas, "s0").replica
        router.begin("s0")
        decision = router.route(replicas, "s0")
        assert decision.replica is owner
        assert decision.affinity_hit is True
        router.finish("s0")
        assert router.inflight("s0") == 0

    def test_dead_owner_is_replaced(self):
        replicas = fleet(2)
        router = Router("session_affinity")
        owner = router.route(replicas, "s0").replica
        owner.state = FAILED
        decision = router.route(replicas, "s0")
        assert decision.replica is not owner
        assert decision.new_session
        assert router.directory["s0"] == decision.replica.replica_id

    def test_no_healthy_replica_raises(self):
        replicas = fleet(1)
        replicas[0].state = FAILED
        router = Router("round_robin")
        with pytest.raises(NoHealthyReplica):
            router.route(replicas, None)
        with pytest.raises(NoHealthyReplica):
            router.route(replicas, "s0")

    def test_sessions_owned_by_and_rehome(self):
        replicas = fleet(3)
        router = Router("session_affinity")
        for sid in ("b", "a", "c"):
            router.directory[sid] = 1
        assert router.sessions_owned_by(1) == ["a", "b", "c"]
        replicas[1].state = FAILED
        target = router.rehome("a", replicas)
        assert target.replica_id in (0, 2)
        assert router.directory["a"] == target.replica_id
        router.forget_owner("b")
        assert "b" not in router.directory
