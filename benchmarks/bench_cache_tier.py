"""Cluster-wide shared cache tier: hit-rate, prefix-sharing, bit gates.

Everything runs under a :class:`SimulatedClock`, so every number is a
pure function of the seeds.  Sections, each with a hard gate:

* **Fleet memo hit rate** — a wave workload of repeated prompts.  With
  per-replica *private* memo caches, ``round_robin`` routing forfeits
  hits (repeats land on replicas that never computed them) while
  ``session_affinity`` keeps them; with the shared
  :class:`~repro.cluster.store.SharedCacheTier`, ``round_robin``'s
  fleet hit rate must recover to >= 0.9x the affinity baseline
  (``--report-only`` relaxes this floor; the strict
  shared-beats-private ordering always applies).
* **Prefix sharing** — N decode sessions forked from one registered
  system prompt.  Shared :class:`~repro.serving.cache.PrefixChain`
  pages are charged once fleet-wide, so total fleet KV bytes
  (sum of replica pools + tier chains) must be *strictly* below the
  unshared baseline for N >= 2 forks, and must equal
  :func:`repro.workloads.llm.shared_kv_cache_bytes` exactly.  After
  releasing every session the chain refcount must be zero and every
  pool empty — no orphaned or double-freed pages.
* **Bit equivalence** — every routing policy (including
  ``cache_aware``), shared and unshared prefix modes alike, must
  produce per-session outputs bit-identical to a single sequential
  engine decoding each session alone.

Emits a ``BENCH_cache_tier.json`` artifact (``--out PATH`` to relocate).
"""

import json
import os

import numpy as np

from repro.cluster import ClusterConfig, ServingCluster
from repro.serving import (
    EngineConfig,
    IterationCost,
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
from repro.workloads.transformer import TransformerConfig, servable_model

WEIGHT_SEED = 1
PAYLOAD_SEED = 7
TRACE_SEED = 42

#: Memo-wave workload: K distinct prompts replayed over W waves on R
#: replicas.  K % R != 0, so round_robin walks each prompt across every
#: replica and private caches only warm up after R waves.
MEMO_PROMPTS = 5
MEMO_WAVES = 6
MEMO_REPLICAS = 4

#: Hit-rate recovery floor (relaxed by --report-only).
MIN_HIT_RECOVERY = 0.9

#: Prefix-sharing decode trace.
PREFIX_ID = "sys-prompt"
PROMPT_LEN = 6
BLOCK_SIZE = 2
PREFIX_SESSIONS = 8
PREFIX_REPLICAS = 3
COST = IterationCost(base_s=200e-6, per_request_s=50e-6)

POLICIES = ("round_robin", "least_outstanding", "session_affinity", "cache_aware")


# -- section 1: fleet memo hit rate ------------------------------------------
def _vision_config() -> TransformerConfig:
    return TransformerConfig(
        "bench-tier-vit", depth=1, dim=32, heads=2, seq_len=17,
        mlp_ratio=2.0, n_classes=4, patch_size=4, image_size=16,
        in_channels=1,
    )


def _memo_payloads() -> list[np.ndarray]:
    rng = np.random.default_rng(PAYLOAD_SEED)
    return [rng.normal(size=(16, 16)) for _ in range(MEMO_PROMPTS)]


def _memo_engine_config() -> EngineConfig:
    return EngineConfig(max_wait_us=0.0, queue_depth=64, seed=WEIGHT_SEED)


def _memo_cluster(policy: str, *, shared: bool) -> ServingCluster:
    engine = _memo_engine_config()
    config = ClusterConfig(
        replicas=MEMO_REPLICAS,
        policy=policy,
        engine=engine,
        shared_cache=shared,
        memo_bytes=1 << 20,
    )
    return ServingCluster(
        lambda replica_id: _memo_servable(), config=config, clock=SimulatedClock()
    )


def _memo_servable() -> VisionServable:
    return VisionServable(servable_model(_vision_config(), engine=_memo_engine_config()))


def _run_memo_waves(cluster: ServingCluster, *, with_sessions: bool):
    """W waves of the K prompts; returns (hit_rate, all wave results)."""
    payloads = _memo_payloads()
    waves = []
    with cluster:
        for _ in range(MEMO_WAVES):
            handles = [
                cluster.submit(
                    payloads[j],
                    cache_key=f"prompt-{j}",
                    session_id=f"user-{j}" if with_sessions else None,
                )
                for j in range(MEMO_PROMPTS)
            ]
            cluster.run_until_idle()
            waves.append([handle.result(timeout=0) for handle in handles])
        hit_rate = cluster.metrics.cache_hit_rate()
    return hit_rate, waves


def memo_hit_rates() -> dict:
    reference = [sequential_outputs(_memo_servable(), _memo_payloads())] * MEMO_WAVES
    affinity_rate, affinity_waves = _run_memo_waves(
        _memo_cluster("session_affinity", shared=False), with_sessions=True
    )
    rr_private_rate, rr_private_waves = _run_memo_waves(
        _memo_cluster("round_robin", shared=False), with_sessions=False
    )
    rr_shared_rate, rr_shared_waves = _run_memo_waves(
        _memo_cluster("round_robin", shared=True), with_sessions=False
    )
    return {
        "prompts": MEMO_PROMPTS,
        "waves": MEMO_WAVES,
        "replicas": MEMO_REPLICAS,
        "affinity_private_hit_rate": affinity_rate,
        "round_robin_private_hit_rate": rr_private_rate,
        "round_robin_shared_hit_rate": rr_shared_rate,
        "recovery": (
            rr_shared_rate / affinity_rate if affinity_rate else float("nan")
        ),
        "bit_identical": all(
            bit_equal(waves, reference)
            for waves in (affinity_waves, rr_private_waves, rr_shared_waves)
        ),
    }


# -- sections 2 + 3: prefix sharing + bit equivalence ------------------------
def _decoder() -> DecoderConfig:
    return DecoderConfig("bench-tier", depth=2, dim=16, heads=2, mlp_ratio=2.0)


def _prefix_engine_config() -> EngineConfig:
    return EngineConfig(
        max_batch_size=4,
        max_wait_us=0.0,
        queue_depth=8 * PREFIX_SESSIONS,
        scheduler="continuous",
        iteration_cost=COST,
        block_size=BLOCK_SIZE,
        seed=WEIGHT_SEED,
    )


def _prefix_specs():
    return mixed_decode_trace(
        PREFIX_SESSIONS,
        seed=TRACE_SEED,
        min_steps=2,
        max_steps=6,
        horizon_s=5e-3,
    )


def _payload_fn(config):
    return lambda i, t: decode_payload(PAYLOAD_SEED, i, t, config.dim)


def _prefix_cluster(policy: str, *, share: bool) -> ServingCluster:
    engine = _prefix_engine_config()
    config = ClusterConfig(
        replicas=PREFIX_REPLICAS,
        policy=policy,
        engine=engine,
        shared_cache=True,
        share_prefixes=share,
    )
    cluster = ServingCluster(
        lambda replica_id: decode_servable(_decoder(), engine=engine),
        config=config,
        clock=SimulatedClock(),
    )
    cluster.register_prefix(PREFIX_ID, PROMPT_LEN)
    return cluster


def _fleet_kv_bytes(cluster: ServingCluster) -> int:
    """Replica-private pool bytes + tier chain bytes (counted once)."""
    private = sum(
        replica.session_cache.pool.in_use_bytes
        for replica in cluster.replicas.values()
        if replica.alive and replica.session_cache is not None
    )
    tier = cluster.tier.shared_bytes if cluster.tier is not None else 0
    return private + tier


def _run_prefix_trace(policy: str, *, share: bool) -> dict:
    config = _decoder()
    specs = _prefix_specs()
    cluster = _prefix_cluster(policy, share=share)
    with cluster:
        result = run_decode_trace(
            cluster,
            specs,
            payload_fn=_payload_fn(config),
            release=False,  # keep sessions resident for the byte audit
            submit_kwargs=lambda i: {"prefix_id": PREFIX_ID},
        )
        fleet_bytes = _fleet_kv_bytes(cluster)
        tier_bytes = cluster.tier.shared_bytes
        refcount = cluster.tier.refcount(PREFIX_ID)
        holders = cluster.tier.replicas_holding(PREFIX_ID)
        snapshot = cluster.snapshot()
        for spec in specs:
            cluster.release_session(spec.session_id)
        released_refcount = cluster.tier.refcount(PREFIX_ID)
        released_holders = cluster.tier.replicas_holding(PREFIX_ID)
        pools_empty = all(
            replica.session_cache.pool.in_use == 0
            for replica in cluster.replicas.values()
            if replica.alive and replica.session_cache is not None
        )
    return {
        "outputs": result["outputs"],
        "specs": specs,
        "fleet_bytes": fleet_bytes,
        "tier_bytes": tier_bytes,
        "refcount": refcount,
        "holders": holders,
        "released_refcount": released_refcount,
        "released_holders": released_holders,
        "pools_empty": pools_empty,
        "shared_adoptions": snapshot["prefixes"]["shared_adoptions"],
        "private_adoptions": snapshot["prefixes"]["private_adoptions"],
        "migrations": snapshot["migrations"]["count"],
    }


def prefix_sharing(reference) -> dict:
    """Shared vs unshared fleet KV bytes, plus custody hygiene."""
    config = _decoder()
    shared = _run_prefix_trace("round_robin", share=True)
    unshared = _run_prefix_trace("round_robin", share=False)
    specs = shared["specs"]
    context_lens = [PROMPT_LEN + spec.steps for spec in specs]
    pages = lambda tokens: -(-tokens // BLOCK_SIZE)  # noqa: E731
    expected_shared = shared_kv_cache_bytes(
        config, PROMPT_LEN, context_lens, block_size=BLOCK_SIZE
    )
    expected_unshared = sum(
        kv_cache_bytes(config, pages(context) * BLOCK_SIZE)
        for context in context_lens
    )
    return {
        "sessions": len(specs),
        "prompt_len": PROMPT_LEN,
        "block_size": BLOCK_SIZE,
        "shared_fleet_bytes": shared["fleet_bytes"],
        "unshared_fleet_bytes": unshared["fleet_bytes"],
        "shared_matches_formula": shared["fleet_bytes"] == expected_shared,
        "unshared_matches_formula": unshared["fleet_bytes"] == expected_unshared,
        "savings_bytes": unshared["fleet_bytes"] - shared["fleet_bytes"],
        "chain_refcount_at_peak": shared["refcount"],
        "chain_holders_at_peak": shared["holders"],
        "shared_adoptions": shared["shared_adoptions"],
        "private_adoptions": unshared["private_adoptions"],
        "release_clean": bool(
            shared["released_refcount"] == 0
            and not shared["released_holders"]
            and shared["pools_empty"]
            and unshared["pools_empty"]
        ),
        "shared_bit_identical": bit_equal(shared["outputs"], reference),
        "unshared_bit_identical": bit_equal(unshared["outputs"], reference),
    }


def policy_equivalence(reference) -> dict:
    """Every routing policy bit-identical with shared prefix forks."""
    report = {}
    for policy in POLICIES:
        run = _run_prefix_trace(policy, share=True)
        report[policy] = {
            "bit_identical": bit_equal(run["outputs"], reference),
            "shared_adoptions": run["shared_adoptions"],
            "migrations": run["migrations"],
        }
    return report


def run(
    enforce_floors: bool = True, out_path: str = "BENCH_cache_tier.json"
) -> dict:
    memo = memo_hit_rates()
    floor = MIN_HIT_RECOVERY if enforce_floors else 0.0
    print(
        f"Fleet memo hit rate ({MEMO_PROMPTS} prompts x {MEMO_WAVES} waves, "
        f"{MEMO_REPLICAS} replicas)"
    )
    print(f"  session_affinity + private memos: {memo['affinity_private_hit_rate']:.3f}")
    print(f"  round_robin      + private memos: {memo['round_robin_private_hit_rate']:.3f}")
    print(f"  round_robin      + shared tier:   {memo['round_robin_shared_hit_rate']:.3f}")
    print(f"  recovery: {memo['recovery']:.3f} (floor {floor:.2f})")
    assert memo["bit_identical"], "memo results must be bit-identical to solo compute"
    assert (
        memo["round_robin_shared_hit_rate"] > memo["round_robin_private_hit_rate"]
    ), "the shared tier must strictly beat private per-replica memos"
    assert memo["recovery"] >= floor, (
        f"shared-tier hit-rate recovery {memo['recovery']:.3f} below the "
        f"{floor:.2f} floor"
    )

    config = _decoder()
    # Each forked session decoded alone, opened at the fork's prompt length.
    reference = sequential_decode(
        lambda: decode_servable(config, engine=_prefix_engine_config()),
        _prefix_specs(),
        _payload_fn(config),
        prompt_len=PROMPT_LEN,
    )

    sharing = prefix_sharing(reference)
    print(
        f"\nPrefix sharing ({sharing['sessions']} sessions forked from a "
        f"{PROMPT_LEN}-token prompt, block_size={BLOCK_SIZE})"
    )
    print(
        f"  shared fleet KV bytes:   {sharing['shared_fleet_bytes']} "
        f"(formula match {sharing['shared_matches_formula']})"
    )
    print(
        f"  unshared fleet KV bytes: {sharing['unshared_fleet_bytes']} "
        f"(formula match {sharing['unshared_matches_formula']})"
    )
    print(
        f"  savings: {sharing['savings_bytes']} bytes; chain refcount at "
        f"peak {sharing['chain_refcount_at_peak']}, holders "
        f"{sharing['chain_holders_at_peak']}; release clean "
        f"{sharing['release_clean']}"
    )
    assert sharing["shared_fleet_bytes"] < sharing["unshared_fleet_bytes"], (
        "prefix sharing must strictly reduce fleet KV bytes for >= 2 forks"
    )
    assert sharing["shared_matches_formula"], (
        "shared fleet bytes must equal shared_kv_cache_bytes exactly"
    )
    assert sharing["unshared_matches_formula"], (
        "unshared fleet bytes must equal the per-session kv_cache_bytes sum"
    )
    assert sharing["chain_refcount_at_peak"] == sharing["sessions"]
    assert sharing["release_clean"], (
        "releasing every fork must zero the chain refcount and empty pools"
    )
    assert sharing["shared_bit_identical"] and sharing["unshared_bit_identical"], (
        "prefix forks must stay bit-identical to the sequential oracle"
    )

    policies = policy_equivalence(reference)
    print("\nRouting policies with shared prefix forks")
    for name, check in policies.items():
        print(
            f"  {name:18s} bit_identical={check['bit_identical']} "
            f"(adoptions={check['shared_adoptions']}, "
            f"migrations={check['migrations']})"
        )
        assert check["bit_identical"], f"policy equivalence gate failed: {name}"
        assert check["shared_adoptions"] == PREFIX_SESSIONS

    report = {
        "host_cpus": os.cpu_count() or 1,
        "memo": memo,
        "prefix_sharing": {
            k: v for k, v in sharing.items() if not k.endswith("outputs")
        },
        "policies": policies,
    }
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"\nwrote {out_path}")
    return report


if __name__ == "__main__":
    from _gate import main

    main(run, __doc__, "the 0.9x hit-rate recovery floor")
