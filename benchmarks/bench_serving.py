"""Dynamic-batching serving benchmark: equivalence gates + load curves.

Sections, each with a hard gate and a measurement:

* **Batching equivalence** — dynamically coalesced batches must be
  *bit-identical* to sequential single-request execution for equal
  seeds, on all three servables: vision (fixed-shape images, 2-core
  sharded executor), text (**ragged** prompts coalesced under the
  pad-to-model-length policy), and decode (multi-session KV-cache
  streams whose photonic GEMV projections batch across sessions).
  Prompt memoization must return the bit-identical cached activation
  and count as a cache hit.
* **Throughput curve** — open-loop Poisson load (seeded arrival
  process) swept over ``max_batch_size in {1, 2, 4, 8}``: throughput
  must increase strictly from ``max_batch_size=1`` to
  ``max_batch_size=8`` (the whole point of dynamic batching), with a
  margin floor that ``--report-only`` relaxes for noisy CI runners.
  A closed-loop row records the sustainable service rate.
* **Simulated-clock metrics** — the deterministic no-sleep regime:
  batching deadlines and latency percentiles under a
  :class:`SimulatedClock` must come out exactly as computed by hand.

Emits a ``BENCH_serving.json`` artifact (``--out PATH`` to relocate)
with every number printed, for the CI trend record.
"""

import json
import os

import numpy as np

from repro.neural.photonic import PhotonicExecutor
from repro.neural.vision import TinyViT
from repro.serving import (
    DecodeServable,
    EngineConfig,
    ServingEngine,
    SessionCache,
    SimulatedClock,
    TenantSpec,
    TextServable,
    VisionServable,
    multi_tenant_arrivals,
    poisson_gaps,
    run_closed_loop,
    run_open_loop,
)
from repro.serving.loadgen import bit_equal, sequential_outputs
from repro.workloads.llm import DecoderConfig
from repro.workloads.transformer import KIND_TEXT, TransformerConfig, servable_model

#: Batch-size sweep of the throughput curve.
BATCH_SIZES = (1, 2, 4, 8)

#: Open-loop load: requests and mean Poisson inter-arrival gap.
LOAD_REQUESTS = 48
LOAD_MEAN_GAP_S = 0.25e-3

#: Throughput margin of max_batch_size=8 over 1 (relaxed by --report-only).
MIN_BATCHING_GAIN = 1.3


def _vision_model(seed: int = 0, num_cores: int = 1) -> TinyViT:
    """Small quantized-deterministic ViT (equal seeds => identical weights)."""
    return TinyViT(
        image_size=16,
        patch_size=4,
        dim=32,
        depth=1,
        heads=2,
        n_classes=4,
        mlp_ratio=2.0,
        executor=PhotonicExecutor(num_cores=num_cores),
        seed=seed,
    )


def _run_all(servable, payloads, max_batch_size, *, session_ids=None) -> list:
    """Submit everything into a manual-mode engine and drain it."""
    engine = ServingEngine(
        servable,
        config=EngineConfig(
            max_batch_size=max_batch_size,
            max_wait_us=0.0,
            queue_depth=len(payloads),
        ),
        clock=SimulatedClock(),
    )
    with engine:
        handles = [
            engine.submit(
                payload,
                session_id=None if session_ids is None else session_ids[i],
            )
            for i, payload in enumerate(payloads)
        ]
        engine.run_until_idle()
        return [handle.result(timeout=0) for handle in handles]


def batching_equivalence() -> dict:
    """Coalesced batches bit-identical to sequential execution."""
    rng = np.random.default_rng(0)

    # Vision: fixed-shape payloads on a 2-core sharded quantized executor.
    images = [rng.normal(size=(16, 16)) for _ in range(16)]
    sequential = sequential_outputs(VisionServable(_vision_model(num_cores=2)), images)
    batched = _run_all(VisionServable(_vision_model(num_cores=2)), images, 8)
    vision_ok = bit_equal(batched, sequential)

    # Text: ragged prompts coalesced under the pad-to-model-length policy.
    text_config = TransformerConfig(
        "bench-serve-bert", depth=1, dim=32, heads=2, seq_len=17,
        mlp_ratio=2.0, kind=KIND_TEXT, n_classes=2,
    )
    prompts = [
        rng.integers(1, 32, size=int(rng.integers(1, 17))) for _ in range(16)
    ]

    def text_servable():
        model = servable_model(
            text_config, executor=PhotonicExecutor(num_cores=2), seed=0
        )
        return TextServable(model, pad_id=0)

    sequential = sequential_outputs(text_servable(), prompts)
    batched = _run_all(text_servable(), prompts, 8)
    text_ok = bit_equal(batched, sequential)

    # Decode: 4 KV sessions x 3 steps; projections batch across sessions.
    decoder = DecoderConfig("bench-decode", depth=2, dim=16, heads=2, mlp_ratio=2.0)
    steps = [
        (f"session-{s}", rng.normal(size=16)) for _ in range(3) for s in range(4)
    ]
    payloads = [x for _, x in steps]
    sessions = [sid for sid, _ in steps]
    sequential = sequential_outputs(DecodeServable(decoder, seed=0), payloads, sessions)
    batched = _run_all(
        DecodeServable(decoder, seed=0), payloads, 8, session_ids=sessions
    )
    decode_ok = bit_equal(batched, sequential)

    # Prompt memoization: the repeat is a bit-identical cache hit.
    cache = SessionCache(capacity_bytes=1 << 20)
    engine = ServingEngine(
        VisionServable(_vision_model()),
        config=EngineConfig(max_batch_size=4),
        clock=SimulatedClock(),
        cache=cache,
    )
    with engine:
        first = engine.submit(images[0], cache_key="prompt-0")
        engine.run_until_idle()
        repeat = engine.submit(images[0], cache_key="prompt-0")
        cache_ok = (
            repeat.cache_hit
            and repeat.done()
            and bit_equal(repeat.result(timeout=0), first.result(timeout=0))
            and engine.metrics.cache_hits == 1
        )
    return {
        "vision_bit_identical": bool(vision_ok),
        "text_ragged_bit_identical": bool(text_ok),
        "decode_sessions_bit_identical": bool(decode_ok),
        "cache_hit_bit_identical": bool(cache_ok),
    }


def throughput_curve() -> list[dict]:
    """Open-loop Poisson throughput per ``max_batch_size`` (best of 2)."""
    rng = np.random.default_rng(1)
    images = [rng.normal(size=(16, 16)) for _ in range(LOAD_REQUESTS)]
    rows = []
    for max_batch_size in BATCH_SIZES:
        best = None
        for repeat in range(2):
            gaps = poisson_gaps(
                LOAD_REQUESTS, LOAD_MEAN_GAP_S, np.random.default_rng(2)
            )
            engine = ServingEngine(
                VisionServable(_vision_model()),
                config=EngineConfig(
                    max_batch_size=max_batch_size,
                    max_wait_us=500.0,
                    queue_depth=2 * LOAD_REQUESTS,
                ),
            )
            with engine:
                result = run_open_loop(engine, images, gaps)
            if best is None or result["throughput_rps"] > best["throughput_rps"]:
                best = result
        best["max_batch_size"] = max_batch_size
        rows.append(best)
    return rows


def closed_loop_row(max_batch_size: int = 8) -> dict:
    """Sustainable service rate: 8 users in submit-wait-repeat."""
    rng = np.random.default_rng(3)
    images = [rng.normal(size=(16, 16)) for _ in range(8)]
    engine = ServingEngine(
        VisionServable(_vision_model()),
        config=EngineConfig(max_batch_size=max_batch_size, max_wait_us=500.0),
    )
    with engine:
        result = run_closed_loop(engine, images, rounds=4)
    result["max_batch_size"] = max_batch_size
    return result


def simulated_metrics() -> dict:
    """Deterministic no-sleep metrics under a simulated clock."""
    clock = SimulatedClock()
    engine = ServingEngine(
        VisionServable(_vision_model()),
        config=EngineConfig(max_batch_size=4, max_wait_us=2_000.0),
        clock=clock,
    )
    rng = np.random.default_rng(4)
    with engine:
        for _ in range(4):  # full batch: dispatched without waiting
            engine.submit(rng.normal(size=(16, 16)))
        assert engine.step(force=False) == 4
        for _ in range(2):  # partial batch: dispatched when the wait expires
            engine.submit(rng.normal(size=(16, 16)))
        assert engine.step(force=False) == 0, "wait budget not yet expired"
        clock.advance(2.5e-3)
        assert engine.step(force=False) == 2
        snapshot = engine.metrics.snapshot()
    expected = {"4": 1, "2": 1}
    deterministic = (
        snapshot["batch_occupancy"] == expected
        and snapshot["completed"] == 6
        # The two waiting requests aged exactly 2.5 ms of virtual time.
        and abs(snapshot["latency_s"]["p99"] - 2.5e-3) < 1e-12
    )
    snapshot["deterministic"] = bool(deterministic)
    return snapshot


#: Multi-tenant decode mix (the generator, repro.serving.
#: multi_tenant_arrivals, also drives the fleet affinity gate test).
MIX_TENANTS = (
    TenantSpec("chat-a", rate_rps=2000.0, weights={"decode": 1.0}, sessions=3),
    TenantSpec("chat-b", rate_rps=1000.0, weights={"decode": 1.0}, sessions=2),
)


def multi_tenant_mix() -> dict:
    """Seeded multi-tenant decode arrivals through one manual engine.

    The same generator drives the fleet affinity gate test;
    here the gate is determinism on a single engine: two replays of an
    equal-seed mix must produce identical per-tenant counts and
    bit-identical outputs.
    """
    decoder = DecoderConfig("bench-serve-mix", depth=2, dim=16, heads=2, mlp_ratio=2.0)

    def replay():
        arrivals = multi_tenant_arrivals(
            MIX_TENANTS, horizon_s=10e-3, rng=np.random.default_rng(5)
        )
        engine = ServingEngine(
            DecodeServable(decoder, seed=0),
            config=EngineConfig(
                max_batch_size=4,
                max_wait_us=0.0,
                queue_depth=len(arrivals),
            ),
            clock=SimulatedClock(),
        )
        per_tenant: dict[str, int] = {}
        outputs = []
        with engine:
            for arrival in arrivals:
                payload = np.random.default_rng(arrival.index).normal(size=16)
                handle = engine.submit(payload, session_id=arrival.session)
                engine.step(force=True)
                outputs.append(handle.result(timeout=0))
                per_tenant[arrival.tenant] = per_tenant.get(arrival.tenant, 0) + 1
        return per_tenant, outputs

    (counts_a, outputs_a), (counts_b, outputs_b) = replay(), replay()
    deterministic = counts_a == counts_b and bit_equal(outputs_b, outputs_a)
    return {
        "tenants": counts_a,
        "requests": sum(counts_a.values()),
        "deterministic": bool(deterministic),
    }


def run(enforce_floors: bool = True, out_path: str = "BENCH_serving.json") -> dict:
    equiv = batching_equivalence()
    print("Batching equivalence (dynamic batch == sequential, equal seeds)")
    for key, ok in equiv.items():
        print(f"  {key:32s} {ok}")
        assert ok, f"serving equivalence gate failed: {key}"

    print(
        f"\nOpen-loop Poisson throughput ({LOAD_REQUESTS} requests, "
        f"mean gap {LOAD_MEAN_GAP_S * 1e3:.2f} ms, {os.cpu_count() or 1} host CPU(s))"
    )
    curve = throughput_curve()
    for row in curve:
        print(
            f"  max_batch_size={row['max_batch_size']}: "
            f"{row['throughput_rps']:8.0f} req/s | "
            f"p50 {row['latency_p50_ms']:6.2f} ms | "
            f"p99 {row['latency_p99_ms']:6.2f} ms | "
            f"mean batch {row['mean_batch_size']:.2f}"
        )
    tp_single = curve[0]["throughput_rps"]
    tp_batched = curve[-1]["throughput_rps"]
    gain = tp_batched / tp_single
    floor = MIN_BATCHING_GAIN if enforce_floors else 1.0
    print(f"  batching gain (mbs=8 vs mbs=1): {gain:.2f}x (floor {floor:.2f}x)")
    assert tp_batched > tp_single, (
        f"throughput must increase strictly from max_batch_size=1 "
        f"({tp_single:.0f} req/s) to max_batch_size=8 ({tp_batched:.0f} req/s)"
    )
    assert gain >= floor, (
        f"batching gain {gain:.2f}x below the {floor:.2f}x floor"
    )

    closed = closed_loop_row()
    print(
        f"\nClosed-loop ({closed['concurrency']} users x 4 rounds): "
        f"{closed['throughput_rps']:.0f} req/s, "
        f"p50 {closed['latency_p50_ms']:.2f} ms"
    )

    simulated = simulated_metrics()
    print(
        "\nSimulated-clock metrics deterministic: "
        f"{simulated['deterministic']} (occupancy {simulated['batch_occupancy']})"
    )
    assert simulated["deterministic"], "simulated-clock metrics must be exact"

    mix = multi_tenant_mix()
    print(
        f"\nMulti-tenant decode mix deterministic: {mix['deterministic']} "
        f"({mix['requests']} requests, per-tenant {mix['tenants']})"
    )
    assert mix["deterministic"], "equal-seed tenant mixes must replay exactly"

    report = {
        "host_cpus": os.cpu_count() or 1,
        "equivalence": equiv,
        "throughput": curve,
        "batching_gain": gain,
        "closed_loop": closed,
        "simulated_metrics": simulated,
        "multi_tenant_mix": mix,
    }
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"\nwrote {out_path}")
    return report


if __name__ == "__main__":
    from _gate import main

    main(run, __doc__, "the batching-gain margin")
