"""Cluster serving benchmark: routing equivalence + fleet scaling gates.

Everything runs under a :class:`SimulatedClock` (zero sleeps, virtual
service times), so every gate is bit-deterministic and holds on a 1-CPU
runner.  Sections, each with a hard gate:

* **Routing equivalence** — every dispatch policy (``round_robin``,
  ``least_outstanding``, ``session_affinity``) must produce results
  *bit-identical* to sequential single-engine execution for equal
  seeds, on vision (fixed-shape images), text (**ragged** prompts), and
  multi-session decode (KV streams; sessions migrate wholesale between
  replicas, so even non-sticky policies preserve bits).
* **Fleet scaling** — open-loop Poisson load over an
  :class:`IterationCost` service model: virtual fleet throughput must
  increase strictly from 1 to 2 to 4 replicas (replicas overlap in
  virtual time), with a margin floor on the 4-vs-1 gain that
  ``--report-only`` relaxes.
* **Affinity hit rate** — on a multi-tenant decode mix,
  ``session_affinity`` must beat ``round_robin`` on the affinity hit
  rate (the owner-routed fraction of session steps) while staying
  bit-identical to it.
* **Autoscaler determinism** — a bursty schedule under a latency SLO
  must produce scale-up, drain, and retire events, and the whole event
  log must replay identically from equal seeds.

Emits a ``BENCH_cluster.json`` artifact (``--out PATH`` to relocate).
"""

import json

import numpy as np

from repro.cluster import (
    AutoscalerPolicy,
    ClusterConfig,
    ServingCluster,
    run_virtual_open_loop,
    run_virtual_schedule,
)
from repro.neural.photonic import PhotonicExecutor
from repro.neural.vision import TinyViT
from repro.serving import (
    DecodeServable,
    EngineConfig,
    IterationCost,
    SimulatedClock,
    TenantSpec,
    TextServable,
    VisionServable,
    multi_tenant_arrivals,
)
from repro.serving.loadgen import bit_equal, sequential_outputs
from repro.workloads.llm import DecoderConfig
from repro.workloads.transformer import KIND_TEXT, TransformerConfig, servable_model

#: Every routing policy the equivalence gate covers.
POLICIES = ("round_robin", "least_outstanding", "session_affinity")

#: Replica counts of the fleet-scaling curve.
FLEET_SIZES = (1, 2, 4)

#: Open-loop Poisson load of the scaling curve (virtual time).  The
#: mean gap keeps the run service-dominated (not arrival-limited), so
#: extra replicas translate into throughput rather than idle capacity.
LOAD_REQUESTS = 64
LOAD_MEAN_GAP_S = 0.05e-3

#: Virtual service model: batching amortizes base_s, replicas overlap.
SERVICE_MODEL = IterationCost(base_s=1e-3, per_request_s=0.25e-3)

#: Throughput margin of 4 replicas over 1 (relaxed by --report-only).
MIN_FLEET_GAIN = 2.0

DECODER = DecoderConfig("bench-cluster-decode", depth=2, dim=16, heads=2, mlp_ratio=2.0)


def vision_factory(replica_id: int) -> VisionServable:
    """Equal-seed replicas: every one computes bit-identical logits."""
    model = TinyViT(
        image_size=16,
        patch_size=4,
        dim=32,
        depth=1,
        heads=2,
        n_classes=4,
        mlp_ratio=2.0,
        executor=PhotonicExecutor(num_cores=2),
        seed=0,
    )
    return VisionServable(model)


def text_factory(replica_id: int) -> TextServable:
    config = TransformerConfig(
        "bench-cluster-bert", depth=1, dim=32, heads=2, seq_len=17,
        mlp_ratio=2.0, kind=KIND_TEXT, n_classes=2,
    )
    model = servable_model(config, executor=PhotonicExecutor(num_cores=2), seed=0)
    return TextServable(model, pad_id=0)


def decode_factory(replica_id: int) -> DecodeServable:
    return DecodeServable(DECODER, seed=0)


def _clustered(factory, payloads, policy, session_ids=None, replicas=3) -> list:
    """3-replica cluster run; decode steps execute per arrival so
    sessions quiesce and non-sticky policies genuinely move them."""
    cluster = ServingCluster(
        factory,
        config=ClusterConfig(
            replicas=replicas,
            policy=policy,
            engine=EngineConfig(
                max_batch_size=4,
                max_wait_us=0.0,
                queue_depth=len(payloads),
            ),
        ),
        clock=SimulatedClock(),
    )
    with cluster:
        outputs = []
        for i, payload in enumerate(payloads):
            handle = cluster.submit(
                payload,
                session_id=None if session_ids is None else session_ids[i],
            )
            if session_ids is not None:
                cluster.step(force=True)
            outputs.append(handle)
        cluster.run_until_idle()
        return [handle.result(timeout=0) for handle in outputs]


def routing_equivalence() -> dict:
    """Every policy bit-identical to sequential single-engine runs."""
    rng = np.random.default_rng(0)
    images = [rng.normal(size=(16, 16)) for _ in range(12)]
    prompts = [
        rng.integers(1, 32, size=int(rng.integers(1, 17))) for _ in range(12)
    ]
    # 4 sessions on 3 replicas: deliberately coprime, so round robin
    # must migrate KV state and the bits still have to match.
    steps = [
        (f"session-{s}", rng.normal(size=DECODER.dim))
        for _ in range(3)
        for s in range(4)
    ]
    references = {
        "vision": sequential_outputs(vision_factory(0), images),
        "text_ragged": sequential_outputs(text_factory(0), prompts),
        "decode_sessions": sequential_outputs(
            decode_factory(0), [x for _, x in steps], [sid for sid, _ in steps]
        ),
    }
    results = {}
    for policy in POLICIES:
        runs = {
            "vision": _clustered(vision_factory, images, policy),
            "text_ragged": _clustered(text_factory, prompts, policy),
            "decode_sessions": _clustered(
                decode_factory,
                [x for _, x in steps],
                policy,
                [sid for sid, _ in steps],
            ),
        }
        for workload, outputs in runs.items():
            results[f"{policy}/{workload}"] = bit_equal(outputs, references[workload])
    return results


def fleet_scaling() -> list[dict]:
    """Virtual-time open-loop Poisson throughput per fleet size."""
    rows = []
    for replicas in FLEET_SIZES:
        rng = np.random.default_rng(2)
        gaps = rng.exponential(LOAD_MEAN_GAP_S, size=LOAD_REQUESTS)
        payload_rng = np.random.default_rng(3)
        images = [payload_rng.normal(size=(16, 16)) for _ in range(LOAD_REQUESTS)]
        cluster = ServingCluster(
            vision_factory,
            config=ClusterConfig(
                replicas=replicas,
                policy="least_outstanding",
                engine=EngineConfig(
                    max_batch_size=8,
                    max_wait_us=500.0,
                    queue_depth=2 * LOAD_REQUESTS,
                ),
                service_model=SERVICE_MODEL,
            ),
            clock=SimulatedClock(),
        )
        with cluster:
            report = run_virtual_open_loop(cluster, images, gaps)
        report.pop("handles")
        report["replicas"] = replicas
        rows.append(report)
    return rows


def affinity_hit_rates() -> dict:
    """session_affinity vs round_robin on a multi-tenant decode mix."""
    tenants = (
        TenantSpec("chat-a", rate_rps=2000.0, weights={"decode": 1.0}, sessions=4),
        TenantSpec("chat-b", rate_rps=1000.0, weights={"decode": 1.0}, sessions=3),
    )
    results = {}
    outputs = {}
    for policy in ("round_robin", "session_affinity"):
        arrivals = multi_tenant_arrivals(
            tenants, horizon_s=15e-3, rng=np.random.default_rng(4)
        )
        payloads = {
            arrival.index: np.random.default_rng(arrival.index).normal(
                size=DECODER.dim
            )
            for arrival in arrivals
        }
        cluster = ServingCluster(
            decode_factory,
            config=ClusterConfig(
                replicas=3,
                policy=policy,
                engine=EngineConfig(
                    max_batch_size=4,
                    max_wait_us=0.0,
                    queue_depth=len(arrivals),
                ),
            ),
            clock=SimulatedClock(),
        )
        with cluster:
            report = run_virtual_schedule(
                cluster,
                arrivals,
                lambda arrival: payloads[arrival.index],
                force_each=True,  # quiesce sessions between steps
            )
            outputs[policy] = [
                handle.result(timeout=0) for handle in report.pop("handles")
            ]
        results[policy] = {
            "requests": report["requests"],
            "affinity_hit_rate": cluster.metrics.affinity_hit_rate(),
            "migrations": cluster.metrics.migrations,
            "migrated_bytes": cluster.metrics.migrated_bytes,
            "tenants": cluster.metrics.tenant_counts(),
        }
    results["policies_bit_identical"] = bit_equal(
        outputs["session_affinity"], outputs["round_robin"]
    )
    return results


def autoscaler_trajectory() -> dict:
    """One bursty run: scale-up under SLO pressure, drain when quiet."""
    clock = SimulatedClock()
    cluster = ServingCluster(
        vision_factory,
        config=ClusterConfig(
            replicas=1,
            policy="least_outstanding",
            engine=EngineConfig(
                max_batch_size=2,
                max_wait_us=0.0,
                queue_depth=128,
            ),
            service_model=SERVICE_MODEL,
        ),
        clock=clock,
        autoscaler=AutoscalerPolicy(
            min_replicas=1,
            max_replicas=4,
            high_backlog=50.0,
            low_backlog=0.5,
            latency_slo_s=2e-3,
            cooldown_s=0.5e-3,
        ),
    )
    rng = np.random.default_rng(5)
    with cluster:
        # Burst far beyond one replica's virtual service rate.
        for _ in range(32):
            clock.advance(0.1e-3)
            cluster.submit(rng.normal(size=(16, 16)))
            cluster.step(force=False)
        cluster.run_until_idle()
        # Quiet tail: idle ticks drain the fleet back to min.
        for _ in range(8):
            clock.advance(5e-3)
            cluster.step()
        return {
            "events": [event.as_dict() for event in cluster.metrics.events],
            "final_fleet_size": cluster.fleet_size,
            "completed": cluster.metrics.completed,
            "failed": cluster.metrics.failed,
        }


def autoscaler_determinism() -> dict:
    first = autoscaler_trajectory()
    second = autoscaler_trajectory()
    kinds = [event["kind"] for event in first["events"]]
    return {
        **first,
        "deterministic": first == second,
        "scaled_up": "scale_up" in kinds,
        "drained": "drain" in kinds,
        "retired": "retire" in kinds,
    }


def run(enforce_floors: bool = True, out_path: str = "BENCH_cluster.json") -> dict:
    equiv = routing_equivalence()
    print("Routing equivalence (cluster == sequential single engine, equal seeds)")
    for key, ok in sorted(equiv.items()):
        print(f"  {key:40s} {ok}")
        assert ok, f"cluster routing equivalence gate failed: {key}"

    print(
        f"\nVirtual-time fleet scaling ({LOAD_REQUESTS} requests, Poisson "
        f"mean gap {LOAD_MEAN_GAP_S * 1e3:.2f} ms, service "
        f"{SERVICE_MODEL.base_s * 1e3:.1f} ms + "
        f"{SERVICE_MODEL.per_request_s * 1e3:.2f} ms/req)"
    )
    curve = fleet_scaling()
    for row in curve:
        print(
            f"  replicas={row['replicas']}: {row['throughput_rps']:8.0f} req/s | "
            f"p50 {row['latency_p50_ms']:6.2f} ms | "
            f"p99 {row['latency_p99_ms']:6.2f} ms"
        )
    throughputs = [row["throughput_rps"] for row in curve]
    assert all(a < b for a, b in zip(throughputs, throughputs[1:])), (
        f"fleet throughput must increase strictly with replica count, "
        f"got {throughputs}"
    )
    gain = throughputs[-1] / throughputs[0]
    floor = MIN_FLEET_GAIN if enforce_floors else 1.0
    print(f"  fleet gain (4 vs 1 replicas): {gain:.2f}x (floor {floor:.2f}x)")
    assert gain >= floor, f"fleet gain {gain:.2f}x below the {floor:.2f}x floor"

    affinity = affinity_hit_rates()
    rr = affinity["round_robin"]["affinity_hit_rate"]
    sa = affinity["session_affinity"]["affinity_hit_rate"]
    print(
        f"\nAffinity hit rate on the multi-tenant decode mix: "
        f"round_robin {rr:.3f} "
        f"({affinity['round_robin']['migrations']} migrations) vs "
        f"session_affinity {sa:.3f} "
        f"({affinity['session_affinity']['migrations']} migrations)"
    )
    assert affinity["policies_bit_identical"], (
        "policies disagreed on decode bits despite KV migration"
    )
    assert sa > rr, (
        f"session_affinity hit rate {sa:.3f} must beat round_robin {rr:.3f}"
    )

    autoscaler = autoscaler_determinism()
    kinds = [event["kind"] for event in autoscaler["events"]]
    print(
        f"\nAutoscaler trajectory deterministic: {autoscaler['deterministic']} "
        f"({len(kinds)} events: {kinds}; final fleet "
        f"{autoscaler['final_fleet_size']})"
    )
    assert autoscaler["deterministic"], "autoscaler event log must replay exactly"
    assert autoscaler["scaled_up"], "the burst must trigger a scale-up"
    assert autoscaler["drained"] and autoscaler["retired"], (
        "the quiet tail must drain and retire replicas"
    )
    assert autoscaler["failed"] == 0

    report = {
        "equivalence": equiv,
        "fleet_scaling": curve,
        "fleet_gain": gain,
        "affinity": affinity,
        "autoscaler": autoscaler,
    }
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"\nwrote {out_path}")
    return report


if __name__ == "__main__":
    from _gate import main

    main(run, __doc__, "the fleet-gain margin")
