"""Observability benchmark: tracing is free when off, cheap when on.

Sections, each with a hard gate and a measurement:

* **Disabled-tracer bit-equality** (always enforced) — with the
  default no-op tracer, every pre-existing equality suite still holds,
  and turning tracing ON changes *observability only*, never math:

  - hot path: a noisy two-core
    :class:`~repro.core.sharding.ShardedDPTC` matmul under an active
    :class:`~repro.obs.trace.Tracer` is bit-identical to the untraced
    run on both shard axes — one stage body serves both;
  - serving: the canonical demo workload
    (:func:`repro.obs.demo.run_workload`) returns bit-identical
    request results and an identical metrics snapshot traced vs
    untraced under a :class:`~repro.serving.clock.SimulatedClock`;
  - cluster: a virtual-time fleet run returns identical results and
    an identical fleet snapshot traced vs untraced.

* **Span-tree shape** (always enforced) — the traced demo workload
  emits the full promised chain with parent links intact::

      request (submit / dispatch / complete events)
      engine.iteration -> engine.batch -> shard.matmul -> shard.core
          -> stage.{sample,encode,compute,detect}

* **Byte determinism** (always enforced) — the JSONL dump of the demo
  workload is byte-for-byte identical across reruns for equal seeds
  (the ``repro trace --seed S`` contract).

* **Enabled-tracer overhead ceiling** (nightly) — an actively traced
  sharded matmul may cost at most :data:`MAX_TRACED_OVERHEAD` times the
  untraced run on the headline noisy matmul.  ``--report-only`` (fast
  lane, 1-CPU runners) records the ratio without asserting.

Emits a ``BENCH_obs.json`` artifact (``--out PATH`` to relocate) with
every number printed.
"""

import json
import os

import numpy as np

from repro.core import NoiseModel, ShardedDPTC
from repro.core.hotpath import best_of
from repro.obs import Tracer, to_jsonl
from repro.obs.demo import run_trace_workload, run_workload
from repro.serving.loadgen import bit_equal

#: Headline noisy batched case for equality + overhead — the same
#: attention-shaped stack ``bench_hotpath.py`` profiles, so the
#: overhead ratio is measured on the shape the hot path is tuned for.
HEAD_BATCH = 64
HEAD_M = 32
HEAD_D = 64
HEAD_N = 32
HEAD_CORES = 2

#: Nightly ceiling on traced-over-untraced hot-path wall-clock.
MAX_TRACED_OVERHEAD = 1.10

#: Demo-workload shape shared by the span-tree and determinism gates.
DEMO_SEED = 0
DEMO_REQUESTS = 12
DEMO_BATCH = 4

#: The stage spans every traced noisy core matmul must emit.
STAGES = ("stage.sample", "stage.encode", "stage.compute", "stage.detect")


def _operands() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(7)
    a = rng.normal(size=(HEAD_BATCH, HEAD_M, HEAD_D))
    b = rng.normal(size=(HEAD_BATCH, HEAD_D, HEAD_N))
    return a, b


def _sharded(shard_axis: str = "batch") -> ShardedDPTC:
    return ShardedDPTC(
        num_cores=HEAD_CORES,
        noise=NoiseModel.paper_default(),
        shard_axis=shard_axis,
    )


def hotpath_equality() -> dict:
    """Traced == untraced on the sharded noisy matmul, both axes."""
    a, b = _operands()
    tracer = Tracer()
    equal = {}
    for shard_axis in ("batch", "contraction"):
        engine = _sharded(shard_axis)
        untraced = engine.matmul(a, b, rng=np.random.default_rng(3))
        with tracer.activate():
            traced = engine.matmul(a, b, rng=np.random.default_rng(3))
        equal[f"{shard_axis}_traced_equals_untraced"] = bit_equal(traced, untraced)
    return {"bit_equal": equal, "spans_emitted": len(tracer.collector)}


def serving_equality() -> dict:
    """Demo workload: identical results + snapshot, traced vs untraced."""
    _, plain_results, plain_snap = run_workload(
        traced=False, seed=DEMO_SEED, requests=DEMO_REQUESTS,
        max_batch_size=DEMO_BATCH,
    )
    collector, traced_results, traced_snap = run_workload(
        traced=True, seed=DEMO_SEED, requests=DEMO_REQUESTS,
        max_batch_size=DEMO_BATCH,
    )
    return {
        "results_bit_equal": bit_equal(traced_results, plain_results),
        "snapshots_equal": plain_snap == traced_snap,
        "spans_emitted": len(collector),
    }


def _run_cluster(traced: bool) -> tuple[list, dict]:
    from repro.cluster import (
        ClusterConfig,
        ServingCluster,
        run_virtual_open_loop,
    )
    from repro.obs.demo import TracedMatmulServable
    from repro.serving import EngineConfig, IterationCost, SimulatedClock

    config = ClusterConfig(
        replicas=2,
        policy="least_outstanding",
        engine=EngineConfig(max_batch_size=4, max_wait_us=500.0),
        service_model=IterationCost(),
    )
    clock = SimulatedClock()
    tracer = Tracer(clock=clock) if traced else None
    cluster = ServingCluster(
        lambda replica_id: TracedMatmulServable(seed=11),
        config=config,
        clock=clock,
        tracer=tracer,
    )
    rng = np.random.default_rng(13)
    payloads = [rng.uniform(-1.0, 1.0, (4, 16)) for _ in range(16)]
    gaps = rng.exponential(1e-4, size=len(payloads))
    with cluster:
        report = run_virtual_open_loop(cluster, payloads, gaps)
        results = [handle.result(timeout=0) for handle in report.pop("handles")]
        snapshot = cluster.snapshot()
    return results, snapshot


def cluster_equality() -> dict:
    """Virtual-time fleet run: identical results + fleet snapshot."""
    plain_results, plain_snap = _run_cluster(traced=False)
    traced_results, traced_snap = _run_cluster(traced=True)
    return {
        "results_bit_equal": bit_equal(traced_results, plain_results),
        "snapshots_equal": plain_snap == traced_snap,
    }


def span_tree_shape() -> dict:
    """The demo trace covers request -> iteration -> shard -> stage."""
    collector = run_trace_workload(
        seed=DEMO_SEED, requests=DEMO_REQUESTS, max_batch_size=DEMO_BATCH
    )
    by_id = {span.span_id: span for span in collector.spans()}
    by_name: dict[str, list] = {}
    for span in collector.spans():
        by_name.setdefault(span.name, []).append(span)

    def parents_are(name: str, parent_name: str) -> bool:
        spans = by_name.get(name, [])
        return bool(spans) and all(
            span.parent_id is not None
            and by_id[span.parent_id].name == parent_name
            for span in spans
        )

    requests = by_name.get("request", [])
    request_events = [
        {event.name for event in span.events} for span in requests
    ]
    counts = {name: len(spans) for name, spans in sorted(by_name.items())}
    return {
        "counts": counts,
        "requests_are_roots": bool(requests)
        and all(span.parent_id is None for span in requests),
        "request_count": len(requests),
        "request_lifecycle_events": bool(request_events)
        and all(
            {"submit", "dispatch", "complete"} <= names
            for names in request_events
        ),
        "chain": {
            "engine.batch<-engine.iteration": parents_are(
                "engine.batch", "engine.iteration"
            ),
            "shard.matmul<-engine.batch": parents_are(
                "shard.matmul", "engine.batch"
            ),
            "shard.core<-shard.matmul": parents_are(
                "shard.core", "shard.matmul"
            ),
            **{
                f"{stage}<-shard.core": parents_are(stage, "shard.core")
                for stage in STAGES
            },
        },
    }


def byte_determinism() -> dict:
    """Equal seeds -> byte-identical JSONL dumps across reruns."""
    first = to_jsonl(
        run_trace_workload(
            seed=DEMO_SEED, requests=DEMO_REQUESTS, max_batch_size=DEMO_BATCH
        )
    )
    second = to_jsonl(
        run_trace_workload(
            seed=DEMO_SEED, requests=DEMO_REQUESTS, max_batch_size=DEMO_BATCH
        )
    )
    other_shape = to_jsonl(
        run_trace_workload(
            seed=DEMO_SEED, requests=DEMO_REQUESTS + 1,
            max_batch_size=DEMO_BATCH,
        )
    )
    return {
        "byte_identical": first == second,
        "bytes": len(first.encode()),
        "shape_sensitive": first != other_shape,
    }


def traced_overhead(repeats: int = 5) -> dict:
    """Best-of wall-clock of the traced vs untraced sharded noisy matmul."""
    engine = _sharded()
    a, b = _operands()

    def run() -> np.ndarray:
        return engine.matmul(a, b, rng=np.random.default_rng(3))

    def run_traced() -> np.ndarray:
        tracer = Tracer()
        with tracer.activate():
            return run()

    untraced_s = best_of(run, repeats)
    traced_s = best_of(run_traced, repeats)
    return {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "overhead_ratio": traced_s / untraced_s,
        "ceiling": MAX_TRACED_OVERHEAD,
    }


def run(enforce_floors: bool = True, out_path: str = "BENCH_obs.json") -> dict:
    print("Disabled-tracer bit-equality")
    hotpath = hotpath_equality()
    for key, equal in hotpath["bit_equal"].items():
        print(f"  hotpath {key:36s}: {equal}")
        assert equal, f"hot-path equality broke: {key}"

    serving = serving_equality()
    print(f"  serving results bit-equal     : {serving['results_bit_equal']}")
    print(f"  serving snapshots equal       : {serving['snapshots_equal']}")
    assert serving["results_bit_equal"], "tracing changed serving results"
    assert serving["snapshots_equal"], "tracing changed the metrics snapshot"

    cluster = cluster_equality()
    print(f"  cluster results bit-equal     : {cluster['results_bit_equal']}")
    print(f"  cluster snapshots equal       : {cluster['snapshots_equal']}")
    assert cluster["results_bit_equal"], "tracing changed cluster results"
    assert cluster["snapshots_equal"], "tracing changed the fleet snapshot"

    tree = span_tree_shape()
    print("\nSpan-tree shape "
          f"({sum(tree['counts'].values())} spans: {tree['counts']})")
    print(f"  requests are roots            : {tree['requests_are_roots']}")
    print(f"  request lifecycle events      : {tree['request_lifecycle_events']}")
    assert tree["requests_are_roots"], "request spans are not roots"
    assert tree["request_count"] == DEMO_REQUESTS, "missing request spans"
    assert tree["request_lifecycle_events"], (
        "request spans miss submit/dispatch/complete events"
    )
    for link, intact in tree["chain"].items():
        print(f"  {link:34s}: {intact}")
        assert intact, f"span parent link broke: {link}"

    determinism = byte_determinism()
    print(f"\nByte determinism ({determinism['bytes']} JSONL bytes)")
    print(f"  rerun byte-identical          : {determinism['byte_identical']}")
    print(f"  different workload differs    : {determinism['shape_sensitive']}")
    assert determinism["byte_identical"], "trace JSONL drifted across reruns"
    assert determinism["shape_sensitive"], "trace JSONL ignores the workload"

    cpus = os.cpu_count() or 1
    overhead = traced_overhead()
    print(f"\nEnabled-tracer overhead ({cpus} host CPU(s))")
    print(
        f"  untraced {overhead['untraced_s'] * 1e3:7.2f} ms | "
        f"traced {overhead['traced_s'] * 1e3:7.2f} ms "
        f"({overhead['overhead_ratio']:.3f}x, ceiling "
        f"{MAX_TRACED_OVERHEAD:.2f}x)"
    )
    if enforce_floors:
        assert overhead["overhead_ratio"] <= MAX_TRACED_OVERHEAD, (
            f"traced sharded matmul costs {overhead['overhead_ratio']:.3f}x the "
            f"untraced run (ceiling {MAX_TRACED_OVERHEAD:.2f}x)"
        )

    report = {
        "host_cpus": cpus,
        "hotpath_equality": hotpath,
        "serving_equality": serving,
        "cluster_equality": cluster,
        "span_tree": tree,
        "determinism": determinism,
        "overhead": overhead,
    }
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"\nwrote {out_path}")
    return report


if __name__ == "__main__":
    from _gate import main

    main(run, __doc__, "the 1.10x traced-overhead ceiling")
