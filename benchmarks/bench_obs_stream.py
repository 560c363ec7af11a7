"""Online-telemetry benchmark: streaming export, SLO alerts, postmortems.

Sections, each with a hard gate and a measurement:

* **Bounded streaming residency** (always enforced) — a
  :class:`~repro.obs.stream.StreamingSpanWriter` under the demo
  workload emits exactly the batch exporter's canonical lines (sorted:
  end-order vs id-order) while holding only *open* spans in memory:
  ``peak_open`` does not grow when the workload doubles, and the
  writer is empty after close.

* **Sampled determinism + strict subset** (always enforced) — head
  sampling at rate R streams byte-identical output across reruns,
  matches :func:`~repro.obs.stream.sampled_lines` over the batch
  collector, and is a strict subset of the unsampled dump (same span
  ids/timestamps — sampling filters emission, never content).

* **Reproducible SLO alert ledger** (always enforced) — a virtual-time
  fleet run that overloads one replica drives the p95-latency
  objective's multi-window burn rates over their ceilings; the
  resulting :class:`~repro.obs.timeseries.SLOMonitor` ledger is
  non-empty and *exactly* equal across reruns (times, burns, order).

* **Flight-recorder postmortem** (always enforced) — injecting
  :meth:`ServingCluster.fail_replica` mid-run freezes a bundle with
  the recent span ring, the registry snapshot, and the fleet snapshot,
  and dumps it to ``postmortem-000.json`` (the CI artifact).

* **Streaming overhead ceiling** (nightly) — the traced demo workload
  with a streaming writer may cost at most
  :data:`MAX_STREAM_OVERHEAD` times the batch-collector run *including
  its end-of-run JSONL dump* (same bytes, different schedule).
  ``--report-only`` records the ratio without asserting.

Emits a ``BENCH_obs_stream.json`` artifact (``--out PATH`` to
relocate).
"""

import io
import json
import os

import numpy as np

from repro.core.hotpath import best_of
from repro.obs import (
    FlightRecorder,
    SLOMonitor,
    StreamingSpanWriter,
    TimeSeriesRecorder,
    TraceSampler,
    Tracer,
    latency_objective,
    sampled_lines,
    span_lines,
)
from repro.obs.timeseries import BurnWindow
from repro.obs.demo import run_trace_workload, run_workload

#: Demo-workload shape shared with ``bench_obs.py``'s gates.
DEMO_SEED = 0
DEMO_REQUESTS = 24
DEMO_BATCH = 4

#: Head-sampling rate of the determinism/subset gates.
SAMPLE_RATE = 2

#: Nightly ceiling on streamed-over-batch traced wall-clock.
MAX_STREAM_OVERHEAD = 1.10

#: Virtual-time burn windows sized for millisecond-scale demo runs.
BENCH_WINDOWS = (
    BurnWindow("fast", long_s=2e-3, short_s=0.5e-3, max_burn=2.0),
    BurnWindow("slow", long_s=8e-3, short_s=2e-3, max_burn=1.5),
)


def _stream_demo(requests: int, sampler: TraceSampler | None = None):
    """Run the demo workload through a streaming writer; (writer, text)."""
    sink = io.StringIO()
    writer = StreamingSpanWriter(sink, sampler=sampler)
    run_workload(
        seed=DEMO_SEED, requests=requests, max_batch_size=DEMO_BATCH,
        sink=writer,
    )
    writer.close()
    return writer, sink.getvalue()


def streaming_residency() -> dict:
    """Streamed lines == batch lines; open-span residency is bounded."""
    writer, text = _stream_demo(DEMO_REQUESTS)
    collector = run_trace_workload(
        seed=DEMO_SEED, requests=DEMO_REQUESTS, max_batch_size=DEMO_BATCH
    )
    batch = sorted(span_lines(collector))
    streamed = sorted(text.splitlines())
    double_writer, _ = _stream_demo(2 * DEMO_REQUESTS)
    return {
        "streamed_equals_batch": streamed == batch,
        "spans": writer.spans_seen,
        "peak_open": writer.peak_open,
        "open_after_close": writer.open_spans,
        "doubled_spans": double_writer.spans_seen,
        "doubled_peak_open": double_writer.peak_open,
        # Residency is the *open* span set (queue depth), not the span
        # count: doubling the workload must shrink the open fraction —
        # a writer that retained everything would hold it flat at 1.0.
        "residency_bounded": (
            double_writer.spans_seen > writer.spans_seen
            and 4 * writer.peak_open < writer.spans_seen
            and double_writer.peak_open * writer.spans_seen
            < writer.peak_open * double_writer.spans_seen
        ),
    }


def sampled_subset() -> dict:
    """Sampling is byte-deterministic and a strict subset of the dump."""
    first_writer, first = _stream_demo(
        DEMO_REQUESTS, TraceSampler(SAMPLE_RATE)
    )
    _, second = _stream_demo(DEMO_REQUESTS, TraceSampler(SAMPLE_RATE))
    collector = run_trace_workload(
        seed=DEMO_SEED, requests=DEMO_REQUESTS, max_batch_size=DEMO_BATCH
    )
    batch_sampled = sampled_lines(collector, TraceSampler(SAMPLE_RATE))
    full = set(span_lines(collector))
    streamed = set(first.splitlines())
    return {
        "byte_identical": first == second,
        "matches_batch_sampler": sorted(first.splitlines()) == sorted(
            batch_sampled
        ),
        "strict_subset": streamed < full,
        "spans_written": first_writer.spans_written,
        "spans_seen": first_writer.spans_seen,
        "spans_dropped": first_writer.spans_dropped,
    }


def _run_slo_cluster() -> tuple[list[dict], list[dict]]:
    """One overloaded virtual fleet run; (alert ledger, status rows)."""
    from repro.cluster import (
        ClusterConfig,
        ServingCluster,
        run_virtual_open_loop,
    )
    from repro.obs.demo import TracedMatmulServable
    from repro.serving import EngineConfig, IterationCost, SimulatedClock

    clock = SimulatedClock()
    cluster = ServingCluster(
        lambda replica_id: TracedMatmulServable(seed=11),
        config=ClusterConfig(
            replicas=1,
            policy="least_outstanding",
            engine=EngineConfig(
                max_batch_size=4, max_wait_us=200.0, queue_depth=256
            ),
            # Every batch costs >= 1 ms of virtual service time, so an
            # open-loop burst pushes latencies past the 1 ms objective.
            service_model=IterationCost(base_s=1e-3, per_request_s=250e-6),
        ),
        clock=clock,
    )
    monitor = SLOMonitor(
        [
            latency_objective(
                "p95-latency", "cluster_request_latency_seconds", 1e-3
            )
        ],
        TimeSeriesRecorder(cluster.metrics.registry, interval_s=0.2e-3),
        windows=BENCH_WINDOWS,
    )
    # The monitor reads the cluster's own registry, so it attaches after
    # construction; maintain() ticks it on every step.
    cluster.slo_monitor = monitor
    rng = np.random.default_rng(13)
    payloads = [rng.uniform(-1.0, 1.0, (4, 16)) for _ in range(48)]
    gaps = rng.exponential(1e-4, size=len(payloads))
    with cluster:
        run_virtual_open_loop(cluster, payloads, gaps)
    return monitor.ledger_dicts(), monitor.status()


def slo_ledger() -> dict:
    """Burn-rate alerts fire under overload, reproducibly."""
    first, status = _run_slo_cluster()
    second, _ = _run_slo_cluster()
    return {
        "alerts": len(first),
        "fired": sum(1 for alert in first if alert["state"] == "firing"),
        "ledger_reproducible": first == second,
        "ledger_nonempty": bool(first),
        "final_status": status,
        "ledger": first,
    }


def flight_recorder_postmortem(dump_dir: str = ".") -> dict:
    """fail_replica() freezes and dumps a postmortem bundle."""
    from repro.cluster import (
        ClusterConfig,
        ServingCluster,
    )
    from repro.obs.demo import TracedMatmulServable
    from repro.serving import EngineConfig, IterationCost, SimulatedClock

    clock = SimulatedClock()
    recorder = FlightRecorder(capacity=128, clock=clock, dump_dir=dump_dir)
    tracer = Tracer(clock=clock)
    recorder.attach(tracer)
    cluster = ServingCluster(
        lambda replica_id: TracedMatmulServable(seed=11),
        config=ClusterConfig(
            replicas=2,
            policy="least_outstanding",
            engine=EngineConfig(max_batch_size=4, max_wait_us=500.0),
            service_model=IterationCost(),
        ),
        clock=clock,
        tracer=tracer,
        recorder=recorder,
    )
    rng = np.random.default_rng(29)
    with cluster:
        for index in range(16):
            clock.advance(float(rng.exponential(1e-4)))
            cluster.submit(rng.uniform(-1.0, 1.0, (4, 16)))
            cluster.step(force=False)
            if index == 8:
                rerouted = cluster.fail_replica(0)
        cluster.run_until_idle()
    bundle = recorder.bundles[0] if recorder.bundles else None
    return {
        "bundles": len(recorder.bundles),
        "reason": bundle["reason"] if bundle else None,
        "rerouted": rerouted,
        "bundle_spans": len(bundle["spans"]) if bundle else 0,
        "bundle_events": len(bundle["events"]) if bundle else 0,
        "has_registry": bool(bundle and bundle["registry"] is not None),
        "has_snapshot": bool(bundle and bundle["snapshot"] is not None),
        "dumped": [str(path) for path in recorder.dumped],
    }


#: Overhead-gate servable shape: per-request math heavy enough that
#: per-span costs amortize (the regime streaming targets — the tiny
#: demo shape would measure serializer cache effects, not streaming).
HEAD_M = 16
HEAD_D = 64
HEAD_N = 32


def _overhead_run(sink=None):
    """The demo loop on the heavier servable; returns the collector."""
    from repro.obs.demo import TracedMatmulServable, trace_workload_config
    from repro.serving import ServingEngine, SimulatedClock

    clock = SimulatedClock()
    tracer = (
        Tracer(clock=clock, collector=sink)
        if sink is not None
        else Tracer(clock=clock)
    )
    servable = TracedMatmulServable(
        seed=DEMO_SEED, m=HEAD_M, d=HEAD_D, n=HEAD_N
    )
    rng = np.random.default_rng(DEMO_SEED + 2)
    engine = ServingEngine(
        servable,
        config=trace_workload_config(DEMO_BATCH),
        clock=clock,
        tracer=tracer,
    )
    with engine:
        for index in range(2 * DEMO_REQUESTS):
            engine.submit(
                rng.uniform(-1.0, 1.0, (HEAD_M, HEAD_D)),
                session_id=f"session-{index % 3}",
            )
            if index % DEMO_BATCH == DEMO_BATCH - 1:
                engine.step()
        engine.run_until_idle()
    return tracer.collector


def stream_overhead(repeats: int = 5) -> dict:
    """Best-of wall-clock: streamed vs batch-dumped traced workload."""

    def batch_run() -> str:
        lines = span_lines(_overhead_run())
        return "\n".join(lines) + ("\n" if lines else "")

    def stream_run() -> str:
        sink = io.StringIO()
        with StreamingSpanWriter(sink) as writer:
            _overhead_run(sink=writer)
        return sink.getvalue()

    batch_s = best_of(batch_run, repeats)
    stream_s = best_of(stream_run, repeats)
    return {
        "batch_s": batch_s,
        "stream_s": stream_s,
        "overhead_ratio": stream_s / batch_s,
        "ceiling": MAX_STREAM_OVERHEAD,
    }


def run(
    enforce_floors: bool = True, out_path: str = "BENCH_obs_stream.json"
) -> dict:
    print("Bounded streaming residency")
    residency = streaming_residency()
    print(
        f"  streamed == batch lines       : "
        f"{residency['streamed_equals_batch']}"
    )
    print(
        f"  peak open {residency['peak_open']} of {residency['spans']} spans"
        f" | doubled workload: {residency['doubled_peak_open']} of "
        f"{residency['doubled_spans']}"
    )
    assert residency["streamed_equals_batch"], "streamed lines drifted"
    assert residency["open_after_close"] == 0, "writer leaked open spans"
    assert residency["residency_bounded"], (
        "peak open spans grew with workload length"
    )

    sampled = sampled_subset()
    print(
        f"\nSampled streaming (1 in {SAMPLE_RATE}): "
        f"{sampled['spans_written']}/{sampled['spans_seen']} spans kept"
    )
    print(f"  rerun byte-identical          : {sampled['byte_identical']}")
    print(f"  matches batch sampler         : {sampled['matches_batch_sampler']}")
    print(f"  strict subset of full dump    : {sampled['strict_subset']}")
    assert sampled["byte_identical"], "sampled stream drifted across reruns"
    assert sampled["matches_batch_sampler"], (
        "streamed sampling disagrees with sampled_lines()"
    )
    assert sampled["strict_subset"], "sampled output is not a strict subset"

    slo = slo_ledger()
    print(
        f"\nSLO burn-rate ledger: {slo['alerts']} alert(s), "
        f"{slo['fired']} firing"
    )
    print(f"  ledger reproducible           : {slo['ledger_reproducible']}")
    assert slo["ledger_nonempty"], "overload fired no burn-rate alerts"
    assert slo["fired"] >= 1, "no alert reached the firing state"
    assert slo["ledger_reproducible"], "alert ledger drifted across reruns"

    postmortem = flight_recorder_postmortem()
    print(
        f"\nFlight recorder: {postmortem['bundles']} bundle(s), reason "
        f"{postmortem['reason']!r}, {postmortem['bundle_spans']} spans, "
        f"{postmortem['rerouted']} rerouted"
    )
    print(f"  dumped: {postmortem['dumped']}")
    assert postmortem["bundles"] == 1, "replica failure froze no bundle"
    assert postmortem["reason"] == "replica_failed", "wrong bundle reason"
    assert postmortem["bundle_spans"] > 0, "bundle carries no spans"
    assert postmortem["has_registry"], "bundle misses the registry snapshot"
    assert postmortem["has_snapshot"], "bundle misses the fleet snapshot"
    assert postmortem["dumped"], "no postmortem artifact written"

    cpus = os.cpu_count() or 1
    overhead = stream_overhead()
    print(f"\nStreaming overhead ({cpus} host CPU(s))")
    print(
        f"  batch {overhead['batch_s'] * 1e3:7.2f} ms | "
        f"streamed {overhead['stream_s'] * 1e3:7.2f} ms "
        f"({overhead['overhead_ratio']:.3f}x, ceiling "
        f"{MAX_STREAM_OVERHEAD:.2f}x)"
    )
    if enforce_floors:
        assert overhead["overhead_ratio"] <= MAX_STREAM_OVERHEAD, (
            f"streaming costs {overhead['overhead_ratio']:.3f}x the batch "
            f"run (ceiling {MAX_STREAM_OVERHEAD:.2f}x)"
        )

    report = {
        "host_cpus": cpus,
        "residency": residency,
        "sampled": sampled,
        "slo": slo,
        "postmortem": postmortem,
        "overhead": overhead,
    }
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"\nwrote {out_path}")
    return report


if __name__ == "__main__":
    from _gate import main

    main(run, __doc__, "the 1.10x streamed-overhead ceiling")
