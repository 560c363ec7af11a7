"""Cluster tests for continuous scheduling: every routing policy stays
bit-identical to a single sequential engine, paged KV state migrates
and fails over intact, and sessions retire fleet-wide."""

import pytest

from repro.cluster import ClusterConfig, ServingCluster
from repro.serving import (
    DecodeServable,
    EngineConfig,
    IterationCost,
    SimulatedClock,
    decode_payload,
    run_decode_trace,
)
from repro.serving.loadgen import bit_equal, sequential_decode
from repro.workloads.llm import DecoderConfig
from tests.cluster.sim_gates import continuous_trace, golden

DECODER = DecoderConfig("cluster-cont", depth=2, dim=16, heads=2, mlp_ratio=2.0)
COST = IterationCost(base_s=2e-4, per_request_s=5e-5)


def payload_fn(i, t):
    return decode_payload(9, i, t, DECODER.dim)


def oracle(specs):
    return sequential_decode(
        lambda: DecodeServable(DECODER, seed=0, block_size=2), specs, payload_fn
    )


#: Per-replica engine of every continuous fleet below.
CONTINUOUS = EngineConfig(
    max_batch_size=4,
    max_wait_us=0.0,
    queue_depth=256,
    scheduler="continuous",
    iteration_cost=COST,
    block_size=2,
)


def continuous_cluster(replicas=3, policy="round_robin"):
    return ServingCluster(
        lambda rid: DecodeServable(DECODER, seed=0, block_size=2),
        config=ClusterConfig(
            replicas=replicas,
            policy=policy,
            engine=CONTINUOUS,
        ),
        clock=SimulatedClock(),
    )


class TestPolicyEquivalence:
    @pytest.mark.parametrize(
        "policy", ["round_robin", "least_outstanding", "session_affinity"]
    )
    def test_bit_identical_to_single_engine(self, policy):
        specs = continuous_trace()
        reference = oracle(specs)
        with continuous_cluster(policy=policy) as cluster:
            result = run_decode_trace(cluster, specs, payload_fn=payload_fn)
            migrations = cluster.snapshot()["migrations"]["count"]
        assert bit_equal(result["outputs"], reference)
        assert migrations == golden("continuous", "cluster", policy, "migrations")

    def test_migration_moves_paged_blocks_wholesale(self):
        specs = continuous_trace()
        reference = oracle(specs)
        with continuous_cluster(policy="round_robin") as cluster:
            result = run_decode_trace(
                cluster, specs, payload_fn=payload_fn, release=False
            )
            snapshot = cluster.snapshot()
            # Round-robin ping-pongs sessions between replicas: paged KV
            # state must move with them, page-rounded bytes and all.
            assert snapshot["migrations"]["count"] > 0
            assert snapshot["migrations"]["bytes"] > 0
            for replica in cluster._replicas.values():
                cache = replica.session_cache
                if cache is None or cache.pool is None:
                    continue
                assert cache.resident_kv_bytes() == cache.pool.in_use_bytes
        assert bit_equal(result["outputs"], reference)


class TestFailover:
    def test_mid_trace_failover_stays_bit_identical(self):
        specs = continuous_trace()
        reference = oracle(specs)
        cluster = continuous_cluster(policy="session_affinity")
        state = {"executed": 0, "failed": False}
        original_step = cluster.step

        def failing_step(*, force=True):
            executed = original_step(force=force)
            state["executed"] += executed
            if not state["failed"] and state["executed"] >= 30:
                state["failed"] = True
                cluster.fail_replica(0)
            return executed

        cluster.step = failing_step
        with cluster:
            result = run_decode_trace(cluster, specs, payload_fn=payload_fn)
            snapshot = cluster.snapshot()
        assert state["failed"]
        assert snapshot["migrations"]["sessions_rehomed"] > 0
        assert bit_equal(result["outputs"], reference)
        pinned = golden("continuous", "cluster", "failover")
        assert (snapshot["failovers"], snapshot["migrations"]["sessions_rehomed"]) == (
            pinned["failovers"], pinned["rehomed_sessions"]
        )


class TestReleaseSession:
    def test_release_frees_owner_pages_and_directory(self):
        with continuous_cluster(policy="session_affinity") as cluster:
            specs = continuous_trace()[:3]
            run_decode_trace(
                cluster, specs, payload_fn=payload_fn, release=False
            )
            sid = specs[0].session_id
            owner_id = cluster.router.directory[sid]
            cache = cluster._replicas[owner_id].session_cache
            before = cache.pool.in_use
            freed = cluster.release_session(sid)
            assert freed > 0
            assert cache.pool.in_use < before
            assert sid not in cluster.router.directory
            # Idempotent: a second release finds nothing.
            assert cluster.release_session(sid) == 0

    def test_release_unknown_session_is_zero(self):
        with continuous_cluster(replicas=2) as cluster:
            assert cluster.release_session("ghost") == 0


class TestValidation:
    def test_service_model_and_iteration_cost_conflict(self):
        with pytest.raises(ValueError):
            ClusterConfig(service_model=IterationCost(), engine=CONTINUOUS)

    def test_scheduler_knob_reaches_replicas(self):
        with continuous_cluster(replicas=2) as cluster:
            for replica in cluster._replicas.values():
                assert replica.engine.scheduler == "continuous"
                assert replica.engine.iteration_cost is COST

    @pytest.mark.parametrize(
        "field, value",
        [("block_size", 4), ("kv_bits", 4), ("kv_capacity_bytes", 1 << 16)],
    )
    def test_replica_kv_settings_must_match_the_engine(self, field, value):
        settings = {"block_size": 2, field: value}
        with pytest.raises(ValueError, match=f"{field}={value} but"):
            ServingCluster(
                lambda rid: DecodeServable(DECODER, seed=5, **settings),
                config=ClusterConfig(replicas=2, engine=CONTINUOUS),
                clock=SimulatedClock(),
            )

    def test_a_mismatched_scale_up_is_refused(self):
        def factory(rid):
            return DecodeServable(DECODER, seed=0, block_size=2 if rid == 0 else 4)

        with ServingCluster(
            factory,
            config=ClusterConfig(replicas=1, engine=CONTINUOUS),
            clock=SimulatedClock(),
        ) as cluster:
            with pytest.raises(ValueError, match="block_size=4 but"):
                cluster.add_replica()
            assert cluster.fleet_size == 1
