"""Tests for the cluster front-end: manual (simulated-clock) regime."""

import numpy as np
import pytest

from repro.cluster import (
    FAILED,
    STOPPED,
    ClusterConfig,
    NoHealthyReplica,
    ServingCluster,
    run_virtual_open_loop,
)
from repro.neural.photonic import PhotonicExecutor
from repro.serving import (
    DecodeServable,
    EngineClosed,
    EngineConfig,
    IterationCost,
    QueueFull,
    SimulatedClock,
    TenantSpec,
    TextServable,
    VisionServable,
    arrival_gaps,
    multi_tenant_arrivals,
)
from repro.serving.loadgen import bit_equal, sequential_outputs
from repro.workloads.llm import DecoderConfig
from repro.workloads.transformer import KIND_TEXT, TransformerConfig, servable_model
from tests.cluster.sim_gates import TINY_VIT, golden


class EchoServable:
    """Doubles payloads; optionally fails for the retry paths."""

    name = "echo"

    def __init__(self, fail_times=0):
        self.fail_times = fail_times
        self.executed = 0

    def prepare(self, payload):
        return payload

    def execute(self, requests):
        self.executed += len(requests)
        if self.fail_times > 0:
            self.fail_times -= 1
            raise RuntimeError("photonic core fell over")
        return [2 * request.payload for request in requests]


def manual_cluster(
    factory,
    replicas,
    policy="round_robin",
    service_model=None,
    *,
    clock=None,
    tracer=None,
    **engine,
):
    """A simulated-clock fleet; ``engine`` holds :class:`EngineConfig`
    fields (``max_wait_us`` defaults to 0)."""
    config = ClusterConfig(
        replicas=replicas,
        policy=policy,
        engine=EngineConfig(**{"max_wait_us": 0.0, **engine}),
        service_model=service_model,
    )
    return ServingCluster(
        factory,
        config=config,
        clock=clock if clock is not None else SimulatedClock(),
        tracer=tracer,
    )


def echo_cluster(replicas=2, **knobs):
    return manual_cluster(lambda rid: EchoServable(), replicas, **knobs)


DECODER = DecoderConfig("cluster-test", depth=2, dim=16, heads=2, mlp_ratio=2.0)


def decode_cluster(replicas=3, **knobs):
    return manual_cluster(
        lambda rid: DecodeServable(DECODER, seed=0), replicas, **knobs
    )


def decode_steps(sessions=4, rounds=3, seed=0):
    rng = np.random.default_rng(seed)
    return [
        (f"s{s}", rng.normal(size=DECODER.dim))
        for _ in range(rounds)
        for s in range(sessions)
    ]


TINY_BERT = TransformerConfig(
    "cluster-bert", depth=1, dim=32, heads=2, seq_len=17,
    mlp_ratio=2.0, kind=KIND_TEXT, n_classes=2,
)


def routed_workload(name):
    """``(replica factory, payloads, session ids)`` of a routing gate
    input.  Equal-seed replicas on a two-core photonic executor compute
    bit-identical outputs; prompts are ragged; 4 decode sessions on 3
    replicas are coprime, so non-sticky policies must migrate KV."""
    if name == "decode_sessions":
        steps = decode_steps()
        return (
            lambda rid: DecodeServable(DECODER, seed=0),
            [x for _, x in steps],
            [sid for sid, _ in steps],
        )
    rng = np.random.default_rng(0)
    if name == "vision":
        config, servable = TINY_VIT, VisionServable
        payloads = [rng.normal(size=(16, 16)) for _ in range(12)]
    else:
        config, servable = TINY_BERT, TextServable
        payloads = [rng.integers(1, 32, size=int(rng.integers(1, 17))) for _ in range(12)]

    def factory(replica_id):
        executor = PhotonicExecutor(num_cores=2)
        return servable(servable_model(config, executor=executor, seed=0))

    return factory, payloads, None


class TestSubmitAndStep:
    def test_results_resolve_across_replicas(self):
        with echo_cluster(replicas=3, max_batch_size=4) as cluster:
            handles = [cluster.submit(i) for i in range(10)]
            assert cluster.run_until_idle() == 10
            assert [h.result(timeout=0) for h in handles] == [2 * i for i in range(10)]
        assert cluster.metrics.completed == 10
        assert sum(cluster.metrics.dispatch_counts().values()) == 10
        assert all(h.replica_id is not None for h in handles)

    def test_round_robin_spreads_evenly(self):
        with echo_cluster(replicas=2, policy="round_robin", max_batch_size=8) as cluster:
            for i in range(8):
                cluster.submit(i)
            cluster.run_until_idle()
        assert cluster.metrics.dispatch_counts() == {0: 4, 1: 4}

    def test_tenant_counts_recorded(self):
        with echo_cluster(replicas=2) as cluster:
            cluster.submit(1, tenant="a")
            cluster.submit(2, tenant="a")
            cluster.submit(3, tenant="b")
            cluster.run_until_idle()
        assert cluster.metrics.tenant_counts() == {"a": 2, "b": 1}

    def test_step_requires_manual_mode(self):
        cluster = ServingCluster(
            lambda rid: EchoServable(),
            config=ClusterConfig(replicas=1),
        )
        with pytest.raises(RuntimeError, match="manual"):
            cluster.step()
        cluster.close()

    def test_queue_full_backpressure(self):
        with echo_cluster(replicas=1, queue_depth=2, max_batch_size=2) as cluster:
            cluster.submit(0)
            cluster.submit(1)
            with pytest.raises(QueueFull):
                cluster.submit(2)
            cluster.run_until_idle()
            cluster.submit(3)  # capacity freed

    def test_submit_after_close_raises(self):
        cluster = echo_cluster()
        cluster.close()
        with pytest.raises(EngineClosed):
            cluster.submit(1)

    def test_close_without_drain_fails_pending_handles(self):
        cluster = echo_cluster(replicas=2, max_batch_size=8)
        handles = [cluster.submit(i) for i in range(4)]
        cluster.close(drain=False)
        for handle in handles:
            assert isinstance(handle.exception(timeout=0), EngineClosed)


class TestBitExactRouting:
    @pytest.mark.parametrize("workload", ["vision", "text_ragged", "decode_sessions"])
    @pytest.mark.parametrize(
        "policy", ["round_robin", "least_outstanding", "session_affinity"]
    )
    def test_decode_bit_identical_to_single_engine(self, policy, workload):
        """Every policy on every workload matches sequential single-engine
        execution bit for bit; decode steps execute per arrival so
        sessions quiesce and non-sticky policies really move them."""
        factory, payloads, sessions = routed_workload(workload)
        reference = sequential_outputs(factory(0), payloads, sessions)
        with manual_cluster(
            factory, 3, policy=policy, max_batch_size=4, queue_depth=len(payloads),
        ) as cluster:
            handles = []
            for i, payload in enumerate(payloads):
                sid = None if sessions is None else sessions[i]
                handles.append(cluster.submit(payload, session_id=sid))
                if sid is not None:
                    cluster.step(force=True)
            cluster.run_until_idle()
            outputs = [handle.result(timeout=0) for handle in handles]
        assert bit_equal(outputs, reference)

    def test_affinity_beats_round_robin_on_hit_rate(self):
        """A two-tenant decode mix (7 sessions over 15 ms) on 3 replicas:
        session_affinity keeps every step on its session's owner while
        round_robin migrates, and both decode the same bits."""
        tenants = (
            TenantSpec("chat-a", rate_rps=2000.0, weights={"decode": 1.0}, sessions=4),
            TenantSpec("chat-b", rate_rps=1000.0, weights={"decode": 1.0}, sessions=3),
        )
        report, outputs = {}, {}
        for policy in ("round_robin", "session_affinity"):
            arrivals = multi_tenant_arrivals(
                tenants, horizon_s=15e-3, rng=np.random.default_rng(4)
            )
            with decode_cluster(
                replicas=3, policy=policy, max_batch_size=4, queue_depth=len(arrivals)
            ) as cluster:
                handles = run_virtual_open_loop(
                    cluster,
                    [
                        np.random.default_rng(a.index).normal(size=DECODER.dim)
                        for a in arrivals
                    ],
                    arrival_gaps(arrivals),
                    submit_kwargs=lambda i: {
                        "session_id": arrivals[i].session,
                        "tenant": arrivals[i].tenant,
                    },
                    force_each=True,  # quiesce sessions between steps
                )["handles"]
                outputs[policy] = [handle.result(timeout=0) for handle in handles]
            metrics = cluster.metrics
            report[policy] = {
                "requests": len(arrivals),
                "affinity_hit_rate": metrics.affinity_hit_rate(),
                "migrations": metrics.migrations,
                "migrated_bytes": metrics.migrated_bytes,
                "tenants": metrics.tenant_counts(),
            }
        assert bit_equal(outputs["session_affinity"], outputs["round_robin"])
        rates = {policy: row["affinity_hit_rate"] for policy, row in report.items()}
        assert rates["session_affinity"] == 1.0
        assert rates["session_affinity"] > rates["round_robin"]
        pinned = golden("cluster", "affinity")
        assert report == {policy: pinned[policy] for policy in report}

    def test_migration_moves_kv_state_and_counts_bytes(self):
        # 4 sessions on 3 replicas: round robin must move sessions.
        steps = decode_steps(sessions=4, rounds=3)
        with decode_cluster(replicas=3, policy="round_robin", max_batch_size=4) as cluster:
            for sid, x in steps:
                cluster.submit(x, session_id=sid)
                cluster.step(force=True)
            metrics = cluster.metrics
            assert metrics.migrations > 0
            assert metrics.migrated_bytes > 0
            # Every session's KV lives on exactly the replica the
            # directory names, with all its steps.
            for sid, owner_id in cluster.router.directory.items():
                cache = cluster.replicas[owner_id].session_cache
                assert cache.has_session(sid)
                assert cache.session(sid).context_len == 3
                others = [
                    r
                    for rid, r in cluster.replicas.items()
                    if rid != owner_id and r.session_cache is not None
                ]
                assert not any(r.session_cache.has_session(sid) for r in others)


class TestFailover:
    def test_failed_replica_requeues_without_losing_handles(self):
        steps = decode_steps(sessions=3, rounds=3)
        reference = sequential_outputs(
            DecodeServable(DECODER, seed=0),
            [x for _, x in steps],
            [sid for sid, _ in steps],
        )
        with decode_cluster(replicas=3, policy="session_affinity") as cluster:
            handles = [cluster.submit(x, session_id=sid) for sid, x in steps]
            victim = cluster.router.directory["s1"]
            rerouted = cluster.fail_replica(victim)
            assert rerouted == 3  # all of s1's queued steps moved
            cluster.run_until_idle()
            outputs = [handle.result(timeout=0) for handle in handles]
        assert bit_equal(outputs, reference)
        assert cluster.replicas[victim].state == FAILED
        assert cluster.metrics.failovers >= 3
        assert [e.kind for e in cluster.metrics.events] == ["replica_failed"]

    def test_failed_replica_sessions_are_rehomed_with_state(self):
        steps = decode_steps(sessions=3, rounds=2)
        with decode_cluster(replicas=3, policy="session_affinity") as cluster:
            for sid, x in steps:
                cluster.submit(x, session_id=sid)
                cluster.step(force=True)
            victim = cluster.router.directory["s0"]
            cluster.fail_replica(victim)
            new_owner = cluster.router.directory["s0"]
            assert new_owner != victim
            assert cluster.replicas[new_owner].session_cache.has_session("s0")
            assert cluster.metrics.sessions_rehomed >= 1

    def test_cacheless_sessions_move_without_kv_traffic(self):
        # Echo replicas hold no KV: a moved session changes placement
        # only.  Re-homing is always counted; migration only with KV.
        with echo_cluster(replicas=2, policy="round_robin") as cluster:
            for value in range(3):
                cluster.submit(value, session_id="a")
                cluster.run_until_idle()
            victim = cluster.router.directory["a"]
            cluster.fail_replica(victim)
            assert cluster.router.directory["a"] != victim
        assert cluster.metrics.sessions_rehomed == 1
        assert cluster.metrics.migrations == 0
        assert cluster.metrics.migrated_bytes == 0

    def test_execution_error_retries_on_another_replica(self):
        servables = {}

        def factory(rid):
            servables[rid] = EchoServable(fail_times=1 if rid == 0 else 0)
            return servables[rid]

        cluster = manual_cluster(factory, 2, max_batch_size=1)
        with cluster:
            handle = cluster.submit(21)  # round robin -> replica 0, which fails
            cluster.run_until_idle()
            assert handle.result(timeout=0) == 42
            assert handle.retries == 1
        assert cluster.metrics.retries == 1
        assert cluster.metrics.failed == 0

    def test_error_propagates_once_retries_exhausted(self):
        cluster = manual_cluster(
            lambda rid: EchoServable(fail_times=10), 2, max_batch_size=1
        )
        with cluster:
            handle = cluster.submit(1)
            cluster.run_until_idle()
            with pytest.raises(RuntimeError, match="fell over"):
                handle.result(timeout=0)
        assert cluster.metrics.failed == 1

    def test_failing_last_replica_fails_requeued_handles(self):
        with echo_cluster(replicas=1, max_batch_size=8) as cluster:
            handle = cluster.submit(1)
            cluster.fail_replica(0)
            assert isinstance(handle.exception(timeout=0), NoHealthyReplica)


class TestDrainLifecycle:
    def test_drain_finishes_backlog_then_retires(self):
        with echo_cluster(replicas=2, max_batch_size=2) as cluster:
            handles = [cluster.submit(i) for i in range(6)]
            cluster.drain_replica(1)
            assert cluster.replicas[1].state == "draining"
            cluster.run_until_idle()
            assert [h.result(timeout=0) for h in handles] == [2 * i for i in range(6)]
            assert cluster.replicas[1].state == STOPPED
            kinds = [e.kind for e in cluster.metrics.events]
            assert kinds == ["drain", "retire"]
            # New work only lands on the survivor.
            survivor = cluster.submit(7)
            cluster.run_until_idle()
            assert survivor.result(timeout=0) == 14
            assert survivor.replica_id == 0

    def test_draining_replica_sessions_rehome_on_retire(self):
        steps = decode_steps(sessions=2, rounds=2)
        with decode_cluster(replicas=2, policy="session_affinity") as cluster:
            for sid, x in steps:
                cluster.submit(x, session_id=sid)
                cluster.step(force=True)
            victim = cluster.router.directory["s0"]
            cluster.drain_replica(victim)
            cluster.run_until_idle()
            assert cluster.replicas[victim].state == STOPPED
            new_owner = cluster.router.directory["s0"]
            assert new_owner != victim
            assert cluster.replicas[new_owner].session_cache.has_session("s0")


class TestVirtualTime:
    def test_service_model_requires_simulated_clock(self):
        with pytest.raises(ValueError, match="SimulatedClock"):
            ServingCluster(
                lambda rid: EchoServable(),
                config=ClusterConfig(replicas=1, service_model=IterationCost()),
            )

    def test_virtual_stamps_follow_the_service_model(self):
        model = IterationCost(base_s=1e-3, per_request_s=0.5e-3)
        with echo_cluster(replicas=1, max_batch_size=2, service_model=model) as cluster:
            handles = [cluster.submit(i) for i in range(4)]
            cluster.run_until_idle()
            # Two batches of 2, back to back: [0, 2e-3) and [2e-3, 4e-3).
            assert handles[0].started == 0.0
            assert handles[0].finished == pytest.approx(2e-3)
            assert handles[1].finished == pytest.approx(2e-3)
            assert handles[2].started == pytest.approx(2e-3)
            assert handles[3].finished == pytest.approx(4e-3)
            assert cluster.metrics.throughput() == pytest.approx(4 / 4e-3)

    def test_replicas_overlap_in_virtual_time(self):
        """The fleet-scaling mechanism: N replicas drain N times faster."""
        model = IterationCost(base_s=1e-3, per_request_s=0.0)

        def makespan(replicas):
            with echo_cluster(
                replicas=replicas, max_batch_size=1, service_model=model
            ) as cluster:
                for i in range(8):
                    cluster.submit(i)
                cluster.run_until_idle()
                records = cluster.metrics.records()
                return max(r.finished for r in records)

        assert makespan(1) == pytest.approx(8e-3)
        assert makespan(2) == pytest.approx(4e-3)
        assert makespan(4) == pytest.approx(2e-3)


class TestSnapshot:
    def test_snapshot_is_json_shaped(self):
        import json

        with echo_cluster(replicas=2) as cluster:
            cluster.submit(1, tenant="a")
            cluster.run_until_idle()
            snapshot = cluster.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["completed"] == 1
        assert snapshot["fleet_size"] == 2
        assert set(snapshot["replicas"]) == {"0", "1"}
        assert "engines" in snapshot
