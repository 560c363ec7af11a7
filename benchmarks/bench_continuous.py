"""Continuous (iteration-level) decode batching: equivalence + win gates.

Everything runs under a :class:`SimulatedClock` with a shared
:class:`IterationCost` virtual service model, so every number is a pure
function of the seeds.  Sections, each with a hard gate:

* **Bit equivalence** — on a seeded mixed-length multi-session decode
  trace, continuous (iteration-level) scheduling must produce
  bit-identical per-session outputs to sequential per-session decode
  *and* to request-level dynamic batching; a second continuous run
  under a deliberately tight KV :class:`BlockPool` must preempt (swap
  out / swap in) sessions and *still* be bit-identical — the paged-KV
  invariant that swapped pages keep their bits.
* **Throughput win** — the same trace through the same
  :class:`IterationCost` model: request-level batching pays the
  batching window on every partial batch while continuous admits every
  iteration, so iteration-level throughput must beat request-level
  strictly always, and by >= 1.2x unless ``--report-only`` relaxes the
  floor.
* **Paged accounting** — the per-session ledger
  (``SessionCache.session_bytes``), the pool budget
  (``BlockPool.in_use_bytes``), and ``workloads.llm.kv_cache_bytes``
  must agree page-for-page after every trace.
* **Cluster equivalence** — all three routing policies under
  ``scheduler="continuous"`` must stay bit-identical to the single
  sequential engine, with paged-KV sessions migrating wholesale; a
  mid-trace ``fail_replica`` must re-home block-structured KV state
  and still finish bit-identical.

Emits a ``BENCH_continuous.json`` artifact (``--out PATH`` to relocate).
"""

import json
import os

import numpy as np

from repro.cluster import ClusterConfig, ServingCluster
from repro.serving import (
    DecodeServable,
    EngineConfig,
    IterationCost,
    ServingEngine,
    SimulatedClock,
    decode_payload,
    mixed_decode_trace,
    run_decode_trace,
)
from repro.workloads.llm import DecoderConfig, kv_cache_bytes

#: The seeded mixed-length decode trace every section replays.
TRACE_SESSIONS = 12
TRACE_SEED = 42
PAYLOAD_SEED = 7
MIN_STEPS, MAX_STEPS = 2, 10
HORIZON_S = 10e-3

#: Shared virtual cost of one fused iteration (both schedulers).
COST = IterationCost(base_s=200e-6, per_request_s=50e-6)

#: Request-mode batching window (continuous has none by construction).
WINDOW_US = 2_000.0

MAX_BATCH = 8
WEIGHT_SEED = 1

#: Continuous-over-request throughput floor (relaxed by --report-only).
MIN_CONTINUOUS_GAIN = 1.2


def _decoder() -> DecoderConfig:
    return DecoderConfig("bench-cont", depth=2, dim=16, heads=2, mlp_ratio=2.0)


def _specs():
    return mixed_decode_trace(
        TRACE_SESSIONS,
        seed=TRACE_SEED,
        min_steps=MIN_STEPS,
        max_steps=MAX_STEPS,
        horizon_s=HORIZON_S,
    )


def _payload_fn(config):
    return lambda i, t: decode_payload(PAYLOAD_SEED, i, t, config.dim)


def sequential_reference(config, specs) -> dict:
    """Each session decoded alone on its own engine — the bit oracle."""
    payload_fn = _payload_fn(config)
    outputs = {}
    for i, spec in enumerate(specs):
        engine = ServingEngine(
            DecodeServable(config, seed=WEIGHT_SEED),
            config=EngineConfig(
                max_batch_size=1,
                max_wait_us=0.0,
                queue_depth=spec.steps,
            ),
            clock=SimulatedClock(),
        )
        with engine:
            outs = []
            for t in range(spec.steps):
                handle = engine.submit(payload_fn(i, t), session_id=spec.session_id)
                engine.step()
                outs.append(handle.result(timeout=0))
            outputs[spec.session_id] = outs
    return outputs


def _engine_trace(config, specs, *, scheduler, window_us, **servable_kwargs):
    servable = DecodeServable(config, seed=WEIGHT_SEED, **servable_kwargs)
    engine = ServingEngine(
        servable,
        config=EngineConfig(
            max_batch_size=MAX_BATCH,
            max_wait_us=window_us,
            queue_depth=4 * TRACE_SESSIONS,
            scheduler=scheduler,
            iteration_cost=COST,
        ),
        clock=SimulatedClock(),
    )
    with engine:
        result = run_decode_trace(
            engine,
            specs,
            payload_fn=_payload_fn(config),
            idle_tick_s=window_us * 1e-6,
        )
    return result, engine, servable


def _bit_equal(outputs, reference, specs) -> bool:
    return all(
        len(outputs[s.session_id]) == len(reference[s.session_id])
        and all(
            np.array_equal(a, b)
            for a, b in zip(outputs[s.session_id], reference[s.session_id])
        )
        for s in specs
    )


def bit_equivalence(reference, specs) -> dict:
    """Continuous == request-level == sequential, plus preempted == too."""
    config = _decoder()
    continuous, engine, _ = _engine_trace(
        config, specs, scheduler="continuous", window_us=0.0
    )
    request, _, _ = _engine_trace(
        config, specs, scheduler="request", window_us=WINDOW_US
    )
    # A pool of 5 two-token pages cannot hold the whole active set
    # (max session alone needs 5), so admission must preempt and resume.
    tight_capacity = kv_cache_bytes(config, 2) * 5
    tight, tight_engine, tight_servable = _engine_trace(
        config,
        specs,
        scheduler="continuous",
        window_us=0.0,
        block_size=2,
        kv_capacity_bytes=tight_capacity,
    )
    sched = tight_engine._scheduler
    return {
        "continuous_bit_identical": _bit_equal(continuous["outputs"], reference, specs),
        "request_bit_identical": _bit_equal(request["outputs"], reference, specs),
        "preempted_bit_identical": _bit_equal(tight["outputs"], reference, specs),
        "preemptions": sched.preemptions,
        "swap_ins": sched.swap_ins,
        "pool_reuses": tight_servable.cache.pool.reuses,
        "iteration_occupancy": {
            str(k): v for k, v in engine.metrics.iteration_occupancy().items()
        },
    }


def throughput_win(specs) -> dict:
    """Iteration-level vs request-level under the same cost model."""
    config = _decoder()
    continuous, engine, _ = _engine_trace(
        config, specs, scheduler="continuous", window_us=0.0
    )
    request, _, _ = _engine_trace(
        config, specs, scheduler="request", window_us=WINDOW_US
    )
    gain = continuous["throughput_sps"] / request["throughput_sps"]
    return {
        "steps": continuous["steps"],
        "continuous_makespan_s": continuous["makespan_s"],
        "request_makespan_s": request["makespan_s"],
        "continuous_sps": continuous["throughput_sps"],
        "request_sps": request["throughput_sps"],
        "gain": gain,
        "mean_iteration_occupancy": engine.metrics.mean_iteration_occupancy(),
    }


def paged_accounting(specs) -> dict:
    """Ledger == pool budget == kv_cache_bytes, page for page."""
    config = _decoder()
    checks = {}
    for block_size in (1, 2, 4):
        servable = DecodeServable(config, seed=WEIGHT_SEED, block_size=block_size)
        engine = ServingEngine(
            servable,
            config=EngineConfig(
                max_batch_size=MAX_BATCH,
                max_wait_us=0.0,
                queue_depth=4 * TRACE_SESSIONS,
                scheduler="continuous",
                iteration_cost=COST,
            ),
            clock=SimulatedClock(),
        )
        with engine:
            run_decode_trace(
                engine,
                specs,
                payload_fn=_payload_fn(config),
                release=False,  # keep every session resident for the audit
            )
            cache = servable.cache
            pool = cache.pool
            ledger_ok = True
            for i, spec in enumerate(specs):
                context = spec.steps
                pages = -(-context // block_size)
                expected = kv_cache_bytes(config, pages * block_size)
                ledger_ok &= cache.session_bytes(spec.session_id) == expected
            pool_ok = cache.resident_kv_bytes() == pool.in_use_bytes
        checks[f"block_size_{block_size}"] = {
            "ledger_matches_kv_cache_bytes": bool(ledger_ok),
            "pool_matches_ledger": bool(pool_ok),
            "resident_bytes": cache.resident_kv_bytes(),
        }
    return checks


def _cluster_trace(config, specs, *, policy, replicas=3, fail_after=None):
    cluster = ServingCluster(
        lambda replica_id: DecodeServable(config, seed=WEIGHT_SEED, block_size=2),
        config=ClusterConfig(
            replicas=replicas,
            policy=policy,
            engine=EngineConfig(
                max_batch_size=4,
                max_wait_us=0.0,
                queue_depth=8 * TRACE_SESSIONS,
                scheduler="continuous",
                iteration_cost=COST,
            ),
        ),
        clock=SimulatedClock(),
    )
    if fail_after is not None:
        state = {"executed": 0, "failed": False}
        original_step = cluster.step

        def failing_step(*, force=True):
            executed = original_step(force=force)
            state["executed"] += executed
            if not state["failed"] and state["executed"] >= fail_after:
                state["failed"] = True
                cluster.fail_replica(0)
            return executed

        cluster.step = failing_step
    with cluster:
        result = run_decode_trace(
            cluster, specs, payload_fn=_payload_fn(config)
        )
        snapshot = cluster.snapshot()
    return result, snapshot


def cluster_equivalence(reference, specs) -> dict:
    """Every routing policy + failover bit-identical under continuous."""
    config = _decoder()
    report = {}
    for policy in ("round_robin", "least_outstanding", "session_affinity"):
        result, snapshot = _cluster_trace(config, specs, policy=policy)
        report[policy] = {
            "bit_identical": _bit_equal(result["outputs"], reference, specs),
            "migrations": snapshot["migrations"]["count"],
        }
    result, snapshot = _cluster_trace(
        config, specs, policy="session_affinity", fail_after=30
    )
    report["failover"] = {
        "bit_identical": _bit_equal(result["outputs"], reference, specs),
        "failovers": snapshot["failovers"],
        "rehomed_sessions": snapshot["migrations"]["sessions_rehomed"],
    }
    return report


def run(assert_speedup: bool = True, out_path: str = "BENCH_continuous.json") -> dict:
    config = _decoder()
    specs = _specs()
    reference = sequential_reference(config, specs)
    lengths = ", ".join(str(s.steps) for s in specs)
    print(
        f"Mixed-length decode trace: {len(specs)} sessions, "
        f"steps [{lengths}], horizon {HORIZON_S * 1e3:.0f} ms (virtual)"
    )

    equiv = bit_equivalence(reference, specs)
    print("\nBit equivalence vs sequential per-session decode")
    for key in (
        "continuous_bit_identical",
        "request_bit_identical",
        "preempted_bit_identical",
    ):
        print(f"  {key:28s} {equiv[key]}")
        assert equiv[key], f"continuous-batching equivalence gate failed: {key}"
    print(
        f"  tight-pool preemptions {equiv['preemptions']}, "
        f"swap-ins {equiv['swap_ins']}, page reuses {equiv['pool_reuses']}"
    )
    assert equiv["preemptions"] > 0, "tight pool must force preemption"
    assert equiv["swap_ins"] > 0, "preempted sessions must resume"

    win = throughput_win(specs)
    floor = MIN_CONTINUOUS_GAIN if assert_speedup else 1.0
    print(
        f"\nThroughput (shared IterationCost base={COST.base_s * 1e6:.0f} us, "
        f"per-request={COST.per_request_s * 1e6:.0f} us; "
        f"request window {WINDOW_US:.0f} us)"
    )
    print(
        f"  request-level:   {win['request_sps']:8.0f} steps/s "
        f"(makespan {win['request_makespan_s'] * 1e3:.2f} ms)"
    )
    print(
        f"  continuous:      {win['continuous_sps']:8.0f} steps/s "
        f"(makespan {win['continuous_makespan_s'] * 1e3:.2f} ms, "
        f"mean occupancy {win['mean_iteration_occupancy']:.2f})"
    )
    print(f"  gain: {win['gain']:.2f}x (floor {floor:.2f}x)")
    assert win["continuous_sps"] > win["request_sps"], (
        "iteration-level scheduling must strictly beat request-level "
        f"({win['continuous_sps']:.0f} vs {win['request_sps']:.0f} steps/s)"
    )
    assert win["gain"] >= floor, (
        f"continuous gain {win['gain']:.2f}x below the {floor:.2f}x floor"
    )

    accounting = paged_accounting(specs)
    print("\nPaged KV accounting (ledger == pool == kv_cache_bytes)")
    for name, check in accounting.items():
        print(
            f"  {name}: ledger {check['ledger_matches_kv_cache_bytes']}, "
            f"pool {check['pool_matches_ledger']} "
            f"({check['resident_bytes']} resident bytes)"
        )
        assert check["ledger_matches_kv_cache_bytes"], f"ledger drift at {name}"
        assert check["pool_matches_ledger"], f"pool/ledger disagreement at {name}"

    cluster = cluster_equivalence(reference, specs)
    print("\nCluster routing policies under continuous scheduling")
    for name, check in cluster.items():
        detail = ", ".join(
            f"{k}={v}" for k, v in check.items() if k != "bit_identical"
        )
        print(f"  {name:18s} bit_identical={check['bit_identical']} ({detail})")
        assert check["bit_identical"], f"cluster equivalence gate failed: {name}"
    assert cluster["failover"]["rehomed_sessions"] > 0, (
        "failover section must re-home paged-KV sessions"
    )

    report = {
        "host_cpus": os.cpu_count() or 1,
        "trace": {
            "sessions": len(specs),
            "steps": [s.steps for s in specs],
            "horizon_s": HORIZON_S,
        },
        "equivalence": equiv,
        "throughput": win,
        "accounting": accounting,
        "cluster": cluster,
    }
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"\nwrote {out_path}")
    return report


def bench_continuous(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["gain"] = result["throughput"]["gain"]


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--report-only",
        action="store_true",
        help="relax the 1.2x continuous-gain floor (bit equivalence and "
        "the strict continuous-beats-request ordering always apply)",
    )
    parser.add_argument(
        "--out", default="BENCH_continuous.json", help="JSON artifact path"
    )
    cli = parser.parse_args()
    run(assert_speedup=not cli.report_only, out_path=cli.out)
