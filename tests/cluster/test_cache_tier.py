"""Cluster-level shared cache tier: fleet-wide memo hits that survive
any routing policy, prefix-fork adoption (shared and private), cache-
aware placement, failover custody of chains and swapped sessions, and
adopt/release properties that never orphan or double-free KV pages."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterConfig,
    ServingCluster,
    SharedCacheTier,
)
from repro.obs import Tracer
from repro.serving import (
    DecodeServable,
    DecodeSessionSpec,
    EngineConfig,
    IterationCost,
    MemoCache,
    ServingEngine,
    SessionCache,
    SimulatedClock,
    VisionServable,
    decode_payload,
    mixed_decode_trace,
    run_decode_trace,
)
from repro.serving.loadgen import bit_equal, sequential_decode, sequential_outputs
from repro.workloads.llm import (
    DecoderConfig,
    decode_servable,
    kv_cache_bytes,
    shared_kv_cache_bytes,
)
from repro.workloads.transformer import servable_model
from tests.cluster.sim_gates import TINY_VIT, golden

DECODER = DecoderConfig("tier-test", depth=2, dim=16, heads=2, mlp_ratio=2.0)
COST = IterationCost(base_s=2e-4, per_request_s=5e-5)
BLOCK = 2
PROMPT = 4  # page-aligned: two BLOCK-token pages
PREFIX = "sys"


class EchoServable:
    name = "echo"

    def prepare(self, payload):
        return payload

    def execute(self, requests):
        return [2 * request.payload for request in requests]


def echo_tier_cluster(replicas=2, policy="round_robin", *, shared=True):
    config = ClusterConfig(
        replicas=replicas,
        policy=policy,
        engine=EngineConfig(max_wait_us=0.0),
        shared_cache=shared,
        memo_bytes=1 << 20,
    )
    return ServingCluster(
        lambda rid: EchoServable(), config=config, clock=SimulatedClock()
    )


def decode_tier_cluster(
    replicas=3,
    policy="cache_aware",
    *,
    share=True,
    kv_capacity_bytes=None,
    prompt=PROMPT,
):
    engine = EngineConfig(
        max_batch_size=4,
        max_wait_us=0.0,
        queue_depth=256,
        scheduler="continuous",
        iteration_cost=COST,
        block_size=BLOCK,
        kv_capacity_bytes=kv_capacity_bytes,
        seed=0,
    )
    config = ClusterConfig(
        replicas=replicas,
        policy=policy,
        engine=engine,
        shared_cache=True,
        share_prefixes=share,
    )
    cluster = ServingCluster(
        lambda rid: DecodeServable(
            DECODER, seed=0, block_size=BLOCK, kv_capacity_bytes=kv_capacity_bytes
        ),
        config=config,
        clock=SimulatedClock(),
    )
    cluster.register_prefix(PREFIX, prompt)
    return cluster


def payload_fn(i, t):
    return decode_payload(9, i, t, DECODER.dim)


def prompt_oracle(session_steps, prompt=PROMPT):
    """Each session decoded alone with its prompt pre-opened."""
    specs = [DecodeSessionSpec(sid, 0.0, n) for sid, n in sorted(session_steps.items())]
    return sequential_decode(
        lambda: DecodeServable(DECODER, seed=0, block_size=BLOCK),
        specs,
        payload_fn,
        prompt_len=prompt,
    )


#: The fleet prefix-sharing gate: 8 sessions forked from one 6-token
#: (three-page) prompt, decoding 2-6 steps each.
FORK_PROMPT = 6


def fork_trace():
    return mixed_decode_trace(8, seed=42, min_steps=2, max_steps=6, horizon_s=5e-3)


def run_forks(policy, *, share):
    """Decode the fork trace with every session kept resident, audit the
    fleet's KV custody, then release every session.  Returns the
    outputs and the audit."""
    specs = fork_trace()
    with decode_tier_cluster(policy=policy, share=share, prompt=FORK_PROMPT) as cluster:
        result = run_decode_trace(
            cluster,
            specs,
            payload_fn=payload_fn,
            release=False,
            submit_kwargs=lambda i: {"prefix_id": PREFIX},
        )
        tier = cluster.tier
        caches = [r.session_cache for r in cluster.replicas.values() if r.alive]
        audit = {
            # Replica-private pages plus the tier's chains, counted once.
            "fleet_bytes": sum(c.pool.in_use_bytes for c in caches) + tier.shared_bytes,
            "refcount": tier.refcount(PREFIX),
            "holders": tier.replicas_holding(PREFIX),
            "snapshot": cluster.snapshot(),
        }
        for spec in specs:
            cluster.release_session(spec.session_id)
        audit["release_clean"] = (
            tier.refcount(PREFIX) == 0
            and not tier.replicas_holding(PREFIX)
            and all(c.pool.in_use == 0 for c in caches)
        )
    return result["outputs"], audit


def owner_of(cluster, session_id):
    for replica in cluster.replicas.values():
        cache = replica.session_cache
        if replica.alive and cache is not None and cache.has_session(session_id):
            return replica
    return None


class TestFleetMemo:
    def test_hit_crosses_replicas_under_round_robin(self):
        with echo_tier_cluster(shared=True) as cluster:
            first = cluster.submit(np.ones(4), cache_key="k")
            cluster.run_until_idle()
            np.testing.assert_array_equal(first.result(timeout=0), 2 * np.ones(4))
            # Round-robin sends the repeat to the *other* replica; the
            # tier hit resolves it at submit, before any dispatch.
            second = cluster.submit(np.ones(4), cache_key="k")
            np.testing.assert_array_equal(second.result(timeout=0), 2 * np.ones(4))
            assert cluster.tier.memo.hits == 1
            snapshot = cluster.snapshot()
            assert snapshot["cache"]["hits"] == 1
            assert snapshot["cache"]["hit_rate"] == 0.5
            assert snapshot["tier"]["hits"] == 1

    @pytest.mark.parametrize("shared", [True, False], ids=["tier", "replica-memo"])
    def test_hit_reads_agree_with_a_record_scan(self, shared):
        # One replica keeps the private memo hit local; misses interleave.
        with echo_tier_cluster(replicas=2 if shared else 1, shared=shared) as cluster:
            for key in ("a", "b", "a", "c", "a", "b"):
                cluster.submit(np.ones(4), cache_key=key)
                cluster.run_until_idle()
            records = cluster.metrics.records()
            hits = sum(record.cache_hit for record in records)
            assert hits == 3 and len(records) == 6
            assert cluster.snapshot()["cache"]["hits"] == hits
            assert cluster.metrics.cache_hit_rate() == hits / len(records)
            assert (cluster.tier is not None) is shared
            if shared:
                assert cluster.tier.memo.hits == hits

    def test_shared_tier_recovers_the_affinity_hit_rate(self):
        """5 prompts replayed in 6 waves on 4 replicas.  Private memos
        keep repeats only under session_affinity; round_robin walks each
        prompt across every replica, and the shared tier must win back
        >= 0.9x the affinity hit rate, every wave bit-identical."""
        engine = EngineConfig(max_wait_us=0.0, queue_depth=64, seed=1)

        def servable(replica_id=None):
            return VisionServable(servable_model(TINY_VIT, engine=engine))

        rng = np.random.default_rng(7)
        prompts = [rng.normal(size=(16, 16)) for _ in range(5)]
        reference = [sequential_outputs(servable(), prompts)] * 6
        rates = {}
        for policy, shared in (
            ("session_affinity", False), ("round_robin", False), ("round_robin", True)
        ):
            config = ClusterConfig(
                replicas=4, policy=policy, engine=engine,
                shared_cache=shared, memo_bytes=1 << 20,
            )
            sticky = policy == "session_affinity"
            with ServingCluster(servable, config=config, clock=SimulatedClock()) as cluster:
                waves = []
                for _ in range(6):
                    handles = [
                        cluster.submit(
                            prompt,
                            cache_key=f"prompt-{j}",
                            session_id=f"user-{j}" if sticky else None,
                        )
                        for j, prompt in enumerate(prompts)
                    ]
                    cluster.run_until_idle()
                    waves.append([handle.result(timeout=0) for handle in handles])
            assert bit_equal(waves, reference), (policy, shared)
            rates[policy, shared] = cluster.metrics.cache_hit_rate()
        affinity = rates["session_affinity", False]
        private, tier = rates["round_robin", False], rates["round_robin", True]
        assert tier > private
        assert tier / affinity >= 0.9
        memo = golden("cache_tier", "memo")
        assert (affinity, private, tier, tier / affinity) == (
            memo["affinity_private_hit_rate"],
            memo["round_robin_private_hit_rate"],
            memo["round_robin_shared_hit_rate"],
            memo["recovery"],
        )

    def test_private_memos_forfeit_the_cross_replica_hit(self):
        with echo_tier_cluster(shared=False) as cluster:
            cluster.submit(np.ones(4), cache_key="k")
            cluster.run_until_idle()
            repeat = cluster.submit(np.ones(4), cache_key="k")
            cluster.run_until_idle()
            np.testing.assert_array_equal(repeat.result(timeout=0), 2 * np.ones(4))
            assert cluster.snapshot()["cache"]["hits"] == 0

    def test_a_replica_memo_hit_settles_after_its_dispatch(self):
        """A replica-private memo hit resolves inside the engine's submit;
        the cluster finishes dispatching before it settles the caller, so
        nothing stays outstanding and the span reads submit, route,
        complete."""
        clock = SimulatedClock()
        config = ClusterConfig(
            replicas=1, engine=EngineConfig(max_wait_us=0.0), memo_bytes=1 << 20
        )
        tracer = Tracer(clock=clock)
        with ServingCluster(
            lambda rid: EchoServable(), config=config, clock=clock, tracer=tracer
        ) as cluster:
            cluster.submit(np.ones(4), cache_key="k")
            cluster.run_until_idle()
            repeat = cluster.submit(np.ones(4), cache_key="k")
            assert repeat.done() and repeat.cache_hit and repeat.replica_id == 0
            np.testing.assert_array_equal(repeat.result(timeout=0), 2 * np.ones(4))
            assert cluster.replicas[0].outstanding == 0
        spans = [
            span
            for span in tracer.collector.spans()
            if span.name == "cluster.request"
            and span.attrs["request_id"] == repeat.request_id
        ]
        assert [event.name for event in spans[0].events] == ["submit", "route", "complete"]

    def test_hit_values_are_isolated(self):
        with echo_tier_cluster(shared=True) as cluster:
            first = cluster.submit(np.ones(4), cache_key="k")
            cluster.run_until_idle()
            first.result(timeout=0)[:] = 99  # caller scribbles on it
            second = cluster.submit(np.ones(4), cache_key="k")
            np.testing.assert_array_equal(second.result(timeout=0), 2 * np.ones(4))

    def test_tier_hits_are_isolated_copies(self):
        with echo_tier_cluster(shared=True) as cluster:
            cluster.submit(np.ones(4), cache_key="k")
            cluster.run_until_idle()
            hit = cluster.submit(np.ones(4), cache_key="k")
            assert hit.cache_hit
            hit.result(timeout=0)[:] = 99  # caller scribbles on a hit
            again = cluster.submit(np.ones(4), cache_key="k")
            assert again.cache_hit
            np.testing.assert_array_equal(again.result(timeout=0), 2 * np.ones(4))

    @pytest.mark.parametrize("shared", [True, False])
    def test_mutable_hits_are_never_shared(self, shared):
        # A list result: the requester and every later hit each get
        # their own copy, from the tier and from a replica's memo.
        with echo_tier_cluster(replicas=1, shared=shared) as cluster:
            first = cluster.submit([1.0, 2.0], cache_key="k")
            cluster.run_until_idle()
            first.result(timeout=0).append(99.0)
            results = []
            for _ in range(2):
                hit = cluster.submit([1.0, 2.0], cache_key="k")
                cluster.run_until_idle()
                assert hit.cache_hit
                results.append(hit.result(timeout=0))
                results[-1].append(99.0)  # a receiver mutates its hit
            assert results == [[1.0, 2.0, 1.0, 2.0, 99.0]] * 2

    def test_equal_repr_keys_do_not_collide(self):
        # 1 and "1" are different keys to the replica memo; the tier
        # must not serve one's result for the other.
        with echo_tier_cluster(shared=True) as cluster:
            first = cluster.submit(np.ones(2), cache_key=1)
            cluster.run_until_idle()
            second = cluster.submit(5 * np.ones(2), cache_key="1")
            cluster.run_until_idle()
            np.testing.assert_array_equal(first.result(timeout=0), [2, 2])
            np.testing.assert_array_equal(second.result(timeout=0), [10, 10])
            assert not second.cache_hit


class TestMemoizedDecodeSteps:
    """A memo hit on a decode step would skip that step's K/V commit,
    leaving the session one token short of its inputs; so a ``cache_key``
    on a KV session's step is refused at submit, before any memo lookup
    or session state, by the engine's memo, the replica-private memos
    and the shared tier alike."""

    ENGINE = EngineConfig(max_wait_us=0.0, scheduler="continuous", seed=0)

    def target(self, memo):
        def servable(replica_id=None):
            return decode_servable(DECODER, engine=self.ENGINE)

        if memo == "engine":
            return ServingEngine(
                servable(), config=self.ENGINE, clock=SimulatedClock(),
                cache=MemoCache(),
            )
        config = ClusterConfig(
            replicas=2, engine=self.ENGINE, memo_bytes=1 << 20,
            shared_cache=memo == "tier",
        )
        return ServingCluster(servable, config=config, clock=SimulatedClock())

    @staticmethod
    def memos(target, memo):
        if memo == "engine":
            return [target.cache]
        if memo == "tier":
            return [target.tier.memo]
        return [r.engine.cache for r in target.replicas.values()]

    @pytest.mark.parametrize("memo", ["engine", "replica", "tier"])
    def test_cache_key_on_a_decode_session_is_refused(self, memo):
        with self.target(memo) as target:
            for sid in ("a", "b"):
                with pytest.raises(ValueError, match="cache_key"):
                    target.submit(
                        np.ones(DECODER.dim), cache_key="first-token", session_id=sid
                    )
            assert target.pending == 0
            assert all(
                cache.hits == cache.misses == cache.memo_entries == 0
                for cache in self.memos(target, memo)
            )
            # Without the key both sessions see identical inputs, so
            # they hold identical context and decode identical outputs.
            outputs = {}
            for sid in ("a", "b"):
                target.submit(np.ones(DECODER.dim), session_id=sid)
                outputs[sid] = target.submit(np.full(DECODER.dim, 0.5), session_id=sid)
            target.run_until_idle()
            assert bit_equal(outputs["a"].result(timeout=0), outputs["b"].result(timeout=0))


class TestPrefixRegistration:
    def test_submit_requires_registered_prefix(self):
        with decode_tier_cluster() as cluster:
            with pytest.raises(ValueError, match="unregistered prefix"):
                cluster.submit(
                    payload_fn(0, 0), session_id="s", prefix_id="ghost"
                )

    def test_prefix_requires_session(self):
        with decode_tier_cluster() as cluster:
            with pytest.raises(ValueError, match="session_id"):
                cluster.submit(payload_fn(0, 0), prefix_id=PREFIX)

    def test_reregister_idempotent_but_length_strict(self):
        with decode_tier_cluster() as cluster:
            cluster.register_prefix(PREFIX, PROMPT)  # same length: fine
            with pytest.raises(ValueError):
                cluster.register_prefix(PREFIX, PROMPT + 1)

    def test_sharing_needs_decoder_replicas(self):
        config = ClusterConfig(
            replicas=1,
            engine=EngineConfig(max_wait_us=0.0),
            shared_cache=True,
        )
        with ServingCluster(
            lambda rid: EchoServable(), config=config, clock=SimulatedClock()
        ) as cluster:
            with pytest.raises(ValueError, match="SessionCache"):
                cluster.register_prefix(PREFIX, PROMPT)


class TestPrefixAdoption:
    def test_shared_forks_alias_the_chain(self):
        with decode_tier_cluster() as cluster:
            for i, sid in enumerate(("a", "b")):
                cluster.submit(payload_fn(i, 0), session_id=sid, prefix_id=PREFIX)
            cluster.run_until_idle()
            assert cluster.tier.refcount(PREFIX) == 2
            snapshot = cluster.snapshot()
            assert snapshot["prefixes"]["shared_adoptions"] == 2
            assert snapshot["prefixes"]["private_adoptions"] == 0
            chain = cluster.tier.prefix(PREFIX)
            for sid in ("a", "b"):
                session = owner_of(cluster, sid).session_cache.session(sid)
                assert session.prefix_id == PREFIX
                assert session.shared_blocks == chain.n_blocks
                # the leading pages ARE the chain's pages, not copies
                for own, shared in zip(session.blocks, chain.blocks):
                    assert own is shared
                assert session.private_blocks == 1  # one generated token

    def test_private_mode_materializes_prompts(self):
        with decode_tier_cluster(share=False) as cluster:
            cluster.submit(payload_fn(0, 0), session_id="a", prefix_id=PREFIX)
            cluster.run_until_idle()
            assert cluster.tier.prefix(PREFIX) is None  # no chain built
            snapshot = cluster.snapshot()
            assert snapshot["prefixes"]["shared_adoptions"] == 0
            assert snapshot["prefixes"]["private_adoptions"] == 1
            session = owner_of(cluster, "a").session_cache.session("a")
            assert session.shared_blocks == 0
            assert session.prompt_len == PROMPT

    @pytest.mark.parametrize("share", [True, False])
    def test_forked_sessions_bit_equal_solo(self, share):
        steps = {"a": 3, "b": 2, "c": 4}
        reference = prompt_oracle(steps)
        with decode_tier_cluster(share=share) as cluster:
            outputs = {sid: [] for sid in steps}
            for t in range(max(steps.values())):
                handles = {
                    sid: cluster.submit(
                        payload_fn(i, t), session_id=sid, prefix_id=PREFIX
                    )
                    for i, (sid, n) in enumerate(sorted(steps.items()))
                    if t < n
                }
                cluster.run_until_idle()
                for sid, handle in handles.items():
                    outputs[sid].append(handle.result(timeout=0))
        assert bit_equal(outputs, reference)

    def test_release_returns_chain_refs_and_pages(self):
        with decode_tier_cluster() as cluster:
            for i, sid in enumerate(("a", "b")):
                cluster.submit(payload_fn(i, 0), session_id=sid, prefix_id=PREFIX)
            cluster.run_until_idle()
            for sid in ("a", "b"):
                cluster.release_session(sid)
            assert cluster.tier.refcount(PREFIX) == 0
            assert cluster.tier.replicas_holding(PREFIX) == []
            assert all(
                r.session_cache.pool.in_use == 0
                for r in cluster.replicas.values()
                if r.session_cache is not None
            )
            # the chain survives for the next fork
            cluster.submit(payload_fn(5, 0), session_id="c", prefix_id=PREFIX)
            cluster.run_until_idle()
            assert cluster.tier.refcount(PREFIX) == 1

    def test_fleet_forks_charge_the_prompt_once(self):
        """Shared chain pages are charged once fleet-wide: total fleet KV
        bytes fall strictly below the unshared fleet's and equal
        ``shared_kv_cache_bytes`` exactly; releasing every fork leaves
        no chain reference, holder or pool page behind."""
        specs = fork_trace()
        reference = prompt_oracle({s.session_id: s.steps for s in specs}, FORK_PROMPT)
        shared_outputs, shared = run_forks("round_robin", share=True)
        unshared_outputs, unshared = run_forks("round_robin", share=False)
        contexts = [FORK_PROMPT + spec.steps for spec in specs]
        assert shared["fleet_bytes"] < unshared["fleet_bytes"]
        assert shared["fleet_bytes"] == shared_kv_cache_bytes(
            DECODER, FORK_PROMPT, contexts, block_size=BLOCK
        )
        assert unshared["fleet_bytes"] == shared_kv_cache_bytes(
            DECODER, 0, contexts, block_size=BLOCK
        )
        assert shared["refcount"] == len(specs)
        assert shared["release_clean"] and unshared["release_clean"]
        assert bit_equal(shared_outputs, reference)
        assert bit_equal(unshared_outputs, reference)
        pinned = golden("cache_tier", "prefix_sharing")
        assert (
            shared["fleet_bytes"],
            unshared["fleet_bytes"],
            shared["holders"],
            shared["snapshot"]["prefixes"]["shared_adoptions"],
            unshared["snapshot"]["prefixes"]["private_adoptions"],
        ) == (
            pinned["shared_fleet_bytes"],
            pinned["unshared_fleet_bytes"],
            pinned["chain_holders_at_peak"],
            pinned["shared_adoptions"],
            pinned["private_adoptions"],
        )


class TestCacheAwarePlacement:
    def test_forks_colocate_with_the_chain_holder(self):
        with decode_tier_cluster(policy="cache_aware") as cluster:
            cluster.submit(payload_fn(0, 0), session_id="a", prefix_id=PREFIX)
            cluster.run_until_idle()
            anchor = owner_of(cluster, "a")
            for i, sid in enumerate(("b", "c"), start=1):
                cluster.submit(payload_fn(i, 0), session_id=sid, prefix_id=PREFIX)
            cluster.run_until_idle()
            assert owner_of(cluster, "b") is anchor
            assert owner_of(cluster, "c") is anchor
            assert cluster.tier.replicas_holding(PREFIX) == [anchor.replica_id]

    @pytest.mark.parametrize(
        "policy", ["round_robin", "least_outstanding", "session_affinity", "cache_aware"]
    )
    def test_every_policy_bit_identical_with_shared_forks(self, policy):
        specs = fork_trace()
        outputs, audit = run_forks(policy, share=True)
        snapshot = audit["snapshot"]
        assert bit_equal(
            outputs, prompt_oracle({s.session_id: s.steps for s in specs}, FORK_PROMPT)
        )
        assert snapshot["prefixes"]["shared_adoptions"] == len(specs)
        assert snapshot["migrations"]["count"] == golden(
            "cache_tier", "policies", policy, "migrations"
        )

    def test_round_robin_spreads_the_same_forks(self):
        with decode_tier_cluster(policy="round_robin") as cluster:
            for i, sid in enumerate(("a", "b", "c")):
                cluster.submit(payload_fn(i, 0), session_id=sid, prefix_id=PREFIX)
            cluster.run_until_idle()
            assert len(cluster.tier.replicas_holding(PREFIX)) == 3


class TestFailoverCustody:
    def test_holders_move_with_rehomed_sessions(self):
        steps = {"a": 4, "b": 4}
        reference = prompt_oracle(steps)
        with decode_tier_cluster(policy="cache_aware") as cluster:
            outputs = {sid: [] for sid in steps}
            for t in range(2):
                handles = {
                    sid: cluster.submit(
                        payload_fn(i, t), session_id=sid, prefix_id=PREFIX
                    )
                    for i, sid in enumerate(sorted(steps))
                }
                cluster.run_until_idle()
                for sid, handle in handles.items():
                    outputs[sid].append(handle.result(timeout=0))
            anchor = owner_of(cluster, "a")
            assert owner_of(cluster, "b") is anchor
            cluster.fail_replica(anchor.replica_id)
            target = owner_of(cluster, "a")
            assert target is not None and target is not anchor
            assert cluster.tier.replicas_holding(PREFIX) == [target.replica_id]
            assert cluster.tier.refcount(PREFIX) == 2
            for t in range(2, 4):
                handles = {
                    sid: cluster.submit(
                        payload_fn(i, t), session_id=sid, prefix_id=PREFIX
                    )
                    for i, sid in enumerate(sorted(steps))
                }
                cluster.run_until_idle()
                for sid, handle in handles.items():
                    outputs[sid].append(handle.result(timeout=0))
        assert bit_equal(outputs, reference)

    def test_rehome_to_nobody_releases_the_chain(self):
        with decode_tier_cluster(replicas=1) as cluster:
            cluster.submit(payload_fn(0, 0), session_id="a", prefix_id=PREFIX)
            cluster.run_until_idle()
            assert cluster.tier.refcount(PREFIX) == 1
            cluster.fail_replica(0)
            # No survivor could adopt: the ref must not leak as pinned.
            assert cluster.tier.refcount(PREFIX) == 0
            assert cluster.tier.replicas_holding(PREFIX) == []


class TestSwappedSessionFailover:
    """Regression: a preempted (swapped-out) session that fails over
    must keep its ``swapped`` flag through pop/adopt, so the target
    pool is never charged for pages that are not resident."""

    def test_no_double_charge_and_bit_equal(self):
        capacity = kv_cache_bytes(DECODER, 2 * BLOCK)  # two private pages
        steps = {"a": 4, "b": 3}
        reference = prompt_oracle(steps)
        with decode_tier_cluster(
            policy="cache_aware", kv_capacity_bytes=capacity
        ) as cluster:
            outputs = {sid: [] for sid in steps}

            def run_step(sid, i, t):
                handle = cluster.submit(
                    payload_fn(i, t), session_id=sid, prefix_id=PREFIX
                )
                cluster.run_until_idle()
                outputs[sid].append(handle.result(timeout=0))

            for t in range(2):  # each session fills one private page
                run_step("a", 0, t)
                run_step("b", 1, t)
            run_step("a", 0, 2)  # needs a second page: preempts "b"
            anchor = owner_of(cluster, "a")
            source_cache = anchor.session_cache
            assert source_cache.session("b").swapped
            assert source_cache.pool.in_use == 2
            cluster.fail_replica(anchor.replica_id)
            target = owner_of(cluster, "a")
            cache = target.session_cache
            assert cache.session("b").swapped  # flag survived the move
            assert cache.pool.in_use == 2  # only "a" is resident
            assert cache.resident_kv_bytes() == cache.pool.in_use_bytes
            run_step("b", 1, 2)  # swaps "b" back in (and "a" out)
            run_step("a", 0, 3)
            assert cache.resident_kv_bytes() == cache.pool.in_use_bytes
        assert bit_equal(outputs, reference)


class TestSnapshotTier:
    def test_snapshot_reports_tier_stats(self):
        with decode_tier_cluster() as cluster:
            cluster.submit(payload_fn(0, 0), session_id="a", prefix_id=PREFIX)
            cluster.run_until_idle()
            snapshot = cluster.snapshot()
            tier = snapshot["tier"]
            assert tier["prefixes"] == 1
            assert tier["referenced_prefixes"] == 1
            assert tier["shared_bytes"] == cluster.tier.shared_bytes
            assert snapshot["cache"]["hit_rate"] == 0.0

    def test_untiered_cluster_has_no_tier_section(self):
        with echo_tier_cluster(shared=False) as cluster:
            assert "tier" not in cluster.snapshot()


class TestAdoptReleaseProperties:
    """Random adopt/append/close interleavings across three replica
    caches: the chain's pages must never enter a pool free list (no
    double-free) and every private page must be released (no orphans)."""

    @settings(max_examples=30, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=24,
        )
    )
    def test_never_orphans_or_double_frees(self, ops):
        tier = SharedCacheTier()
        chain = tier.ensure_prefix(PREFIX, PROMPT, config=DECODER, block_size=BLOCK)
        chain_ids = {id(block) for block in chain.blocks}
        fills = [block.fill for block in chain.blocks]
        caches = [SessionCache(DECODER, block_size=BLOCK) for _ in range(3)]
        open_sessions = []
        counter = 0
        token = np.ones(DECODER.dim)

        def check():
            assert tier.refcount(PREFIX) == len(open_sessions)
            for i, cache in enumerate(caches):
                private = sum(
                    cache.session(sid).private_blocks
                    for r, sid in open_sessions
                    if r == i
                )
                assert cache.pool.in_use == private
                assert all(id(b) not in chain_ids for b in cache.pool._free)
            assert [block.fill for block in chain.blocks] == fills

        for replica, action in ops:
            if action == 0 and open_sessions:
                r, sid = open_sessions.pop(0)
                caches[r].close_session(sid)
                tier.release_prefix(PREFIX, r)
            else:
                sid = f"s{counter}"
                counter += 1
                caches[replica].adopt_prefix(
                    sid, tier.acquire_prefix(PREFIX, replica)
                )
                for _ in range(max(1, action) - 1):
                    caches[replica].append_kv(sid, token, token)
                open_sessions.append((replica, sid))
            check()
        while open_sessions:
            r, sid = open_sessions.pop(0)
            caches[r].close_session(sid)
            tier.release_prefix(PREFIX, r)
        check()
        assert all(cache.pool.in_use == 0 for cache in caches)
