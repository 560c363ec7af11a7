"""Command-line interface to the accelerator models.

Usage::

    python -m repro.cli area   [--config lt-b|lt-l] [--bits N]
    python -m repro.cli power  [--config lt-b|lt-l] [--bits N]
    python -m repro.cli run    [--config lt-b|lt-l] [--bits N] [--model NAME]
    python -m repro.cli compare [--bits N] [--model NAME]
    python -m repro.cli report [--skip-accuracy]
    python -m repro.cli serve-bench [--model tiny-vit|tiny-bert] [--requests N]
    python -m repro.cli cluster-bench [--replicas N] [--policy NAME] [--autoscale]
    python -m repro.cli hotpath-bench [--batch N] [--noise paper|off] [--out FILE]
    python -m repro.cli trace  [--seed N] [--requests N] [--out FILE]
                               [--sample RATE] [--stream]
    python -m repro.cli top    [--replicas N] [--frames N] [--fail-replica ID]
    python -m repro.cli metrics [--requests N] [--port P]

``trace`` runs the deterministic demo workload from
:mod:`repro.obs.demo` and dumps the span tree (JSONL by default; a
``--out`` ending in anything but ``.jsonl`` writes Chrome trace-event
JSON for Perfetto).  ``--sample RATE`` keeps one in RATE traces
(incident spans always survive) and ``--stream`` exports each span the
moment it ends instead of holding the run in memory — both produce
deterministic subsets of the full dump.  ``top`` renders live ANSI
fleet-dashboard frames over a demo cluster (optionally failing a
replica mid-run, which drops a flight-recorder postmortem), and
``metrics`` prints the demo registry in Prometheus text format (with
``--port``, serves exactly one HTTP scrape of it).  The bench verbs
take ``--trace PATH`` to capture the same span tree for a real
benchmark run.

The serving verbs construct from the unified config objects
(:class:`~repro.serving.config.EngineConfig` /
:class:`~repro.cluster.config.ClusterConfig`): ``--config`` takes the
config as inline JSON or a path to a JSON file, and the per-field flags
(``--max-batch-size``, ``--scheduler``, ...) override individual
fields on top.

Models: deit-t, deit-s, deit-b, bert-base, bert-large.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.analysis.tables import render_table
from repro.arch import (
    AcceleratorConfig,
    LighteningTransformer,
    area_breakdown,
    lt_base,
    lt_large,
    power_breakdown,
)
from repro.baselines import MRRAccelerator, MZIAccelerator, all_platforms
from repro.units import MJ, MM2, MS
from repro.workloads import (
    TransformerConfig,
    bert_base,
    bert_large,
    deit_base,
    deit_small,
    deit_tiny,
    gemm_trace,
)

CONFIGS: dict[str, Callable[[int], AcceleratorConfig]] = {
    "lt-b": lt_base,
    "lt-l": lt_large,
}

MODELS: dict[str, Callable[[], TransformerConfig]] = {
    "deit-t": deit_tiny,
    "deit-s": deit_small,
    "deit-b": deit_base,
    "bert-base": bert_base,
    "bert-large": bert_large,
}


def _resolve_config(args: argparse.Namespace) -> AcceleratorConfig:
    return CONFIGS[args.config](args.bits)


def cmd_area(args: argparse.Namespace) -> int:
    breakdown = area_breakdown(_resolve_config(args))
    rows = [
        {"category": cat, "area_mm2": area / MM2, "share_pct": 100 * breakdown.fraction(cat)}
        for cat, area in breakdown.by_category.items()
    ]
    rows.append({"category": "TOTAL", "area_mm2": breakdown.total_mm2, "share_pct": 100.0})
    print(render_table(rows, title=f"Area breakdown: {args.config} @ {args.bits}-bit"))
    return 0


def cmd_power(args: argparse.Namespace) -> int:
    breakdown = power_breakdown(_resolve_config(args))
    rows = [
        {"category": cat, "power_w": power, "share_pct": 100 * breakdown.fraction(cat)}
        for cat, power in breakdown.by_category.items()
    ]
    rows.append({"category": "TOTAL", "power_w": breakdown.total, "share_pct": 100.0})
    print(render_table(rows, title=f"Power breakdown: {args.config} @ {args.bits}-bit"))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    accelerator = LighteningTransformer(_resolve_config(args))
    model = MODELS[args.model]()
    result = accelerator.run(model)
    print(
        render_table(
            [
                {
                    "workload": model.name,
                    "energy_mJ": result.energy_joules / MJ,
                    "latency_ms": result.latency / MS,
                    "fps": result.fps,
                    "edp_mJ_ms": result.edp / (MJ * MS),
                    "cycles": result.cycles,
                }
            ],
            title=f"{args.config} @ {args.bits}-bit",
        )
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    model = MODELS[args.model]()
    trace = gemm_trace(model)
    lt = LighteningTransformer(lt_base(args.bits)).run(trace)
    rows = [
        {
            "design": "LT-B",
            "energy_mJ": lt.energy_joules / MJ,
            "latency_ms": lt.latency / MS,
            "vs_lt_energy": 1.0,
            "vs_lt_latency": 1.0,
        }
    ]
    for name, accelerator in (
        ("MRR bank", MRRAccelerator(bits=args.bits)),
        ("MZI array", MZIAccelerator(bits=args.bits)),
    ):
        run = accelerator.run(trace)
        rows.append(
            {
                "design": name,
                "energy_mJ": run.energy_joules / MJ,
                "latency_ms": run.latency / MS,
                "vs_lt_energy": run.energy_joules / lt.energy_joules,
                "vs_lt_latency": run.latency / lt.latency,
            }
        )
    for platform in all_platforms():
        rows.append(
            {
                "design": platform.name,
                "energy_mJ": platform.energy(trace) / MJ,
                "latency_ms": platform.latency(trace) / MS,
                "vs_lt_energy": platform.energy(trace) / lt.energy_joules,
                "vs_lt_latency": platform.latency(trace) / lt.latency,
            }
        )
    print(render_table(rows, title=f"{model.name} @ {args.bits}-bit"))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.analysis.scorecard import run_scorecard

    results = run_scorecard()
    print(
        render_table(
            [result.as_row() for result in results],
            title="Reproduction scorecard (paper vs measured)",
        )
    )
    failing = [result for result in results if not result.passed]
    if failing:
        print(f"{len(failing)} claim(s) FAILED")
        return 1
    print(f"all {len(results)} claims hold")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Deterministic demo trace: run the obs workload, dump the spans."""
    from repro.obs import (
        StreamingSpanWriter,
        TraceSampler,
        sampled_lines,
        to_jsonl,
        write_trace,
    )
    from repro.obs.demo import run_trace_workload, run_workload

    if args.requests < 1:
        raise SystemExit("trace: --requests must be >= 1")
    try:
        sampler = TraceSampler(args.sample) if args.sample is not None else None
    except ValueError as error:
        raise SystemExit(f"trace: {error}")
    if args.stream:
        if not args.out:
            raise SystemExit("trace: --stream needs --out FILE")
        if not args.out.endswith(".jsonl"):
            raise SystemExit("trace: --stream writes JSONL; --out must end in .jsonl")
        # Spans hit disk at span end instead of accumulating in memory;
        # the workload (and therefore every span id/timestamp) is the
        # batch path's, so the file sorts into the same canonical lines.
        with StreamingSpanWriter(args.out, sampler=sampler) as writer:
            run_workload(
                seed=args.seed,
                requests=args.requests,
                max_batch_size=args.max_batch_size,
                sink=writer,
            )
        print(
            f"streamed {writer.spans_written}/{writer.spans_seen} spans "
            f"-> {args.out} (peak {writer.peak_open} open)"
        )
        return 0
    collector = run_trace_workload(
        seed=args.seed,
        requests=args.requests,
        max_batch_size=args.max_batch_size,
    )
    if sampler is not None:
        if args.out and not args.out.endswith(".jsonl"):
            raise SystemExit(
                "trace: --sample writes JSONL; --out must end in .jsonl"
            )
        lines = sampled_lines(collector, sampler)
        text = "\n".join(lines) + ("\n" if lines else "")
        if args.out:
            from repro.obs.export import _atomic_write_text

            _atomic_write_text(args.out, text)
            print(
                f"wrote {len(lines)}/{len(collector)} sampled spans -> {args.out}"
            )
        else:
            sys.stdout.write(text)
        return 0
    if args.out:
        path = write_trace(collector, args.out)
        print(f"wrote {len(collector)} spans -> {path}")
    else:
        sys.stdout.write(to_jsonl(collector))
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Fleet dashboard frames over a deterministic demo cluster run."""
    import numpy as np

    from repro.cluster import ClusterConfig, ServingCluster
    from repro.obs import (
        FleetTop,
        FlightRecorder,
        SLOMonitor,
        TimeSeriesRecorder,
        latency_objective,
    )
    from repro.obs.demo import TracedMatmulServable
    from repro.obs.live import ANSI_HOME
    from repro.serving import EngineConfig, IterationCost, SimulatedClock

    if args.replicas < 1:
        raise SystemExit("top: --replicas must be >= 1")
    if args.requests < 1:
        raise SystemExit("top: --requests must be >= 1")
    if args.frames < 1:
        raise SystemExit("top: --frames must be >= 1")
    if args.rate <= 0:
        raise SystemExit("top: --rate must be > 0")
    from repro.obs import Tracer

    clock = SimulatedClock()
    recorder = FlightRecorder(clock=clock)
    # Trace the run and tee span ends into the recorder's ring, so a
    # mid-run failure freezes actual recent spans into the postmortem.
    tracer = Tracer(clock=clock)
    recorder.attach(tracer)
    config = ClusterConfig(
        replicas=args.replicas,
        policy="least_outstanding",
        engine=EngineConfig(
            max_batch_size=4,
            max_wait_us=500.0,
            queue_depth=max(64, args.requests),
        ),
        service_model=IterationCost(),
    )
    cluster = ServingCluster(
        lambda rid: TracedMatmulServable(seed=args.seed + rid),
        config=config,
        clock=clock,
        tracer=tracer,
        recorder=recorder,
    )
    # The monitor reads the cluster's own registry, so it is built after
    # the cluster and attached; maintain() ticks it on every step.
    monitor = SLOMonitor(
        [
            latency_objective(
                "p95-latency", "cluster_request_latency_seconds", 0.01
            )
        ],
        TimeSeriesRecorder(cluster.metrics.registry, interval_s=0.5e-3),
    )
    cluster.slo_monitor = monitor
    top = FleetTop(cluster, monitor=monitor, color=not args.no_color)
    payload_rng = np.random.default_rng(args.seed + 2)
    gap_rng = np.random.default_rng(args.seed + 3)
    servable = TracedMatmulServable(seed=args.seed)
    frame_every = max(1, args.requests // args.frames)
    fail_at = args.requests // 2 if args.fail_replica is not None else None

    def show() -> None:
        if not args.no_color:
            sys.stdout.write(ANSI_HOME)
        sys.stdout.write(top.frame())

    with cluster:
        for index in range(args.requests):
            clock.advance(float(gap_rng.exponential(1.0 / args.rate)))
            payload = payload_rng.uniform(-1.0, 1.0, (servable.m, servable.d))
            cluster.submit(payload, session_id=f"session-{index % 4}")
            cluster.step(force=False)
            if fail_at is not None and index == fail_at:
                try:
                    cluster.fail_replica(args.fail_replica)
                except KeyError:
                    raise SystemExit(
                        f"top: no replica {args.fail_replica} to fail"
                    )
                fail_at = None
            if (index + 1) % frame_every == 0:
                show()
        cluster.run_until_idle()
        show()
    for bundle in recorder.bundles:
        print(
            f"postmortem: {bundle['reason']} at t={bundle['time'] * 1e3:.3f} ms "
            f"({len(bundle['spans'])} spans, {len(bundle['events'])} events)"
        )
    print(f"{top.frames_rendered} frames rendered")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Prometheus text dump of the demo workload's registry."""
    import numpy as np

    from repro.obs.demo import TracedMatmulServable, trace_workload_config
    from repro.obs.live import MetricsExposition, threaded_fetch
    from repro.serving import ServingEngine, SimulatedClock

    if args.requests < 1:
        raise SystemExit("metrics: --requests must be >= 1")
    servable = TracedMatmulServable(seed=args.seed)
    payload_rng = np.random.default_rng(args.seed + 2)
    engine = ServingEngine(
        servable,
        config=trace_workload_config(args.max_batch_size),
        clock=SimulatedClock(),
    )
    with engine:
        handles = [
            engine.submit(
                payload_rng.uniform(-1.0, 1.0, (servable.m, servable.d)),
                session_id=f"session-{index % 3}",
            )
            for index in range(args.requests)
        ]
        engine.run_until_idle()
        for handle in handles:
            handle.result(timeout=0)
        text = engine.metrics.registry.to_prometheus()
    if args.port is not None:
        exposition = MetricsExposition(lambda: text, port=args.port)
        print(f"serving one scrape at {exposition.url}")
        if args.self_scrape:
            threaded_fetch(exposition.url)
        exposition.serve_once(timeout=args.timeout)
        print("served 1 scrape")
        return 0
    sys.stdout.write(text)
    return 0


def _build_tracer(args: argparse.Namespace):
    """The bench verbs' ``--trace PATH`` tracer (``None`` when off)."""
    if not getattr(args, "trace", None):
        return None
    from repro.obs import Tracer

    return Tracer()


def _dump_tracer(tracer, path: str) -> None:
    from repro.obs import write_trace

    written = write_trace(tracer.collector, path)
    print(f"wrote {len(tracer.collector)} spans -> {written}")


#: Small serving-demo architectures (fast enough for interactive runs).
SERVE_MODELS = ("tiny-vit", "tiny-bert")


def _load_config(verb: str, cls, text: str):
    """``cls`` from a ``--config`` value: inline JSON (starts with ``{``)
    or a path to a JSON file.  Any bad value is a one-line exit."""
    import json
    from pathlib import Path

    text = text.strip()
    try:
        data = json.loads(text if text.startswith("{") else Path(text).read_text())
        return cls.from_dict(data)
    except (OSError, TypeError, ValueError) as error:
        raise SystemExit(f"{verb}: bad --config: {error}")


def _engine_overrides(args: argparse.Namespace) -> dict:
    """EngineConfig field overrides from the per-field CLI flags."""
    overrides = {}
    for flag in (
        "max_batch_size",
        "max_wait_us",
        "scheduler",
        "num_cores",
        "seed",
    ):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[flag] = value
    return overrides


def _serve_setup(args: argparse.Namespace, engine_config):
    """(servable, payloads) for the serve-bench workload."""
    import numpy as np

    from repro.serving import TextServable, VisionServable
    from repro.workloads.transformer import KIND_TEXT, servable_model

    rng = np.random.default_rng(engine_config.seed)
    if args.model == "tiny-vit":
        config = TransformerConfig(
            "serve-tiny-vit", depth=1, dim=32, heads=2, seq_len=17,
            mlp_ratio=2.0, n_classes=4, patch_size=4, image_size=16,
            in_channels=1,
        )
        model = servable_model(config, engine=engine_config)
        servable = VisionServable(model)
        payloads = [rng.normal(size=(16, 16)) for _ in range(args.requests)]
    else:
        config = TransformerConfig(
            "serve-tiny-bert", depth=1, dim=32, heads=2, seq_len=17,
            mlp_ratio=2.0, kind=KIND_TEXT, n_classes=2,
        )
        model = servable_model(config, engine=engine_config)
        servable = TextServable(model, pad_id=0)
        payloads = [
            rng.integers(1, 32, size=int(rng.integers(1, 17)))
            for _ in range(args.requests)
        ]
    return servable, payloads


def cmd_serve_bench(args: argparse.Namespace) -> int:
    """Dynamic-batching serving benchmark (open- and closed-loop load)."""
    import numpy as np

    from repro.serving import (
        EngineConfig,
        ServingEngine,
        poisson_gaps,
        run_closed_loop,
        run_open_loop,
    )

    if args.requests < 1:
        raise SystemExit("serve-bench: --requests must be >= 1")
    if args.rate <= 0:
        raise SystemExit("serve-bench: --rate must be > 0")
    if args.users < 1 or args.rounds < 1:
        raise SystemExit("serve-bench: --users and --rounds must be >= 1")
    base = (
        _load_config("serve-bench", EngineConfig, args.config)
        if args.config
        else EngineConfig(max_wait_us=2_000.0)
    )
    try:
        engine_config = base.replace(
            queue_depth=max(base.queue_depth, args.requests),
            **_engine_overrides(args),
        )
    except ValueError as error:
        raise SystemExit(f"serve-bench: {error}")
    servable, payloads = _serve_setup(args, engine_config)
    tracer = _build_tracer(args)
    rng = np.random.default_rng(engine_config.seed + 1)
    gaps = poisson_gaps(len(payloads), 1.0 / args.rate, rng)
    rows = []
    with ServingEngine(servable, config=engine_config, tracer=tracer) as engine:
        rows.append(run_open_loop(engine, payloads, gaps))
        users = min(args.users, len(payloads))
        rows.append(run_closed_loop(engine, payloads[:users], rounds=args.rounds))
        occupancy = engine.metrics.batch_occupancy()
        iteration_occupancy = engine.metrics.iteration_occupancy()
    for row in rows:
        row.setdefault("concurrency", "-")
    print(
        render_table(
            rows,
            title=(
                f"serve-bench {args.model}: "
                f"max_batch_size={engine_config.max_batch_size}, "
                f"max_wait_us={engine_config.max_wait_us:g}, "
                f"rate={args.rate:g} req/s, "
                f"scheduler={engine_config.scheduler}"
            ),
        )
    )
    print(
        "batch occupancy: "
        + ", ".join(f"{size}x{count}" for size, count in occupancy.items())
    )
    if iteration_occupancy:
        print(
            "iteration occupancy: "
            + ", ".join(
                f"{size}x{count}" for size, count in iteration_occupancy.items()
            )
        )
    if tracer is not None:
        _dump_tracer(tracer, args.trace)
    return 0


#: Cluster-bench workloads: stateless vision or session-pinned decode.
CLUSTER_MODELS = ("tiny-vit", "decode")


def cmd_cluster_bench(args: argparse.Namespace) -> int:
    """Multi-replica routing/autoscaling demo (simulated clock, no sleeps)."""
    import numpy as np

    from repro.cluster import (
        AutoscalerPolicy,
        ClusterConfig,
        ServingCluster,
        run_virtual_open_loop,
        run_virtual_schedule,
    )
    from repro.serving import (
        EngineConfig,
        IterationCost,
        SimulatedClock,
        TenantSpec,
        VisionServable,
        multi_tenant_arrivals,
    )
    from repro.workloads.llm import DecoderConfig, decode_servable
    from repro.workloads.transformer import servable_model

    if args.requests < 1:
        raise SystemExit("cluster-bench: --requests must be >= 1")
    if args.rate <= 0:
        raise SystemExit("cluster-bench: --rate must be > 0")

    base = (
        _load_config("cluster-bench", ClusterConfig, args.config)
        if args.config
        else ClusterConfig(
            replicas=3,
            policy="least_outstanding",
            engine=EngineConfig(max_wait_us=500.0),
            service_model=IterationCost(),
        )
    )
    cluster_overrides = {}
    if args.replicas is not None:
        cluster_overrides["replicas"] = args.replicas
    if args.policy is not None:
        cluster_overrides["policy"] = args.policy
    if args.shared_cache:
        cluster_overrides["shared_cache"] = True
    if args.service_base_us is not None or args.service_per_request_us is not None:
        model = base.service_model if base.service_model is not None else IterationCost()
        cluster_overrides["service_model"] = IterationCost(
            base_s=(
                args.service_base_us * 1e-6
                if args.service_base_us is not None
                else model.base_s
            ),
            per_request_s=(
                args.service_per_request_us * 1e-6
                if args.service_per_request_us is not None
                else model.per_request_s
            ),
        )
    try:
        config = base.replace(
            engine=base.engine.replace(
                queue_depth=max(base.engine.queue_depth, args.requests),
                **_engine_overrides(args),
            ),
            **cluster_overrides,
        )
    except ValueError as error:
        raise SystemExit(f"cluster-bench: {error}")

    seed = config.engine.seed
    if args.model == "tiny-vit":
        model_config = TransformerConfig(
            "cluster-tiny-vit", depth=1, dim=32, heads=2, seq_len=17,
            mlp_ratio=2.0, n_classes=4, patch_size=4, image_size=16,
            in_channels=1,
        )

        def factory(replica_id: int):
            model = servable_model(model_config, engine=config.engine)
            return VisionServable(model)
    else:
        decoder = DecoderConfig(
            "cluster-decode", depth=2, dim=16, heads=2, mlp_ratio=2.0
        )

        def factory(replica_id: int):
            return decode_servable(decoder, engine=config.engine)

    autoscaler = (
        AutoscalerPolicy(
            min_replicas=1,
            max_replicas=config.replicas,
            high_backlog=50.0,
            low_backlog=0.5,
            latency_slo_s=args.slo_ms * 1e-3,
            cooldown_s=0.5e-3,
        )
        if args.autoscale
        else None
    )
    target_replicas = config.replicas
    if args.autoscale:
        config = config.replace(replicas=1)
    tracer = _build_tracer(args)
    cluster = ServingCluster(
        factory,
        config=config,
        clock=SimulatedClock(),
        autoscaler=autoscaler,
        tracer=tracer,
    )
    rng = np.random.default_rng(seed + 1)
    with cluster:
        if args.model == "tiny-vit":
            payloads = [rng.normal(size=(16, 16)) for _ in range(args.requests)]
            gaps = rng.exponential(1.0 / args.rate, size=args.requests)
            report = run_virtual_open_loop(cluster, payloads, gaps)
        else:
            tenants = (
                TenantSpec("chat-a", rate_rps=2 * args.rate / 3, sessions=4),
                TenantSpec("chat-b", rate_rps=args.rate / 3, sessions=3),
            )
            arrivals = multi_tenant_arrivals(
                tenants, horizon_s=args.requests / args.rate, rng=rng
            )
            report = run_virtual_schedule(
                cluster,
                arrivals,
                lambda arrival: np.random.default_rng(arrival.index).normal(size=16),
            )
        report.pop("handles")
        snapshot = cluster.snapshot()
    print(
        render_table(
            [report],
            title=(
                f"cluster-bench {args.model}: policy={config.policy}, "
                f"replicas={target_replicas}"
                f"{' (autoscaled)' if args.autoscale else ''}, "
                f"rate={args.rate:g} req/s (virtual time), "
                f"scheduler={config.engine.scheduler}"
                f"{', shared cache' if config.shared_cache else ''}"
            ),
        )
    )
    print(
        "dispatches: "
        + ", ".join(
            f"replica-{rid}x{count}"
            for rid, count in snapshot["dispatches"].items()
        )
    )
    if args.model == "decode":
        affinity = snapshot["affinity"]
        print(
            f"affinity: hit rate {affinity['hit_rate']:.3f} "
            f"({affinity['hits']} hits / {affinity['misses']} misses), "
            f"{snapshot['migrations']['count']} KV migrations "
            f"({snapshot['migrations']['bytes']} bytes)"
        )
    if "tier" in snapshot:
        tier = snapshot["tier"]
        print(
            f"tier: {tier['hits']} memo hits / {tier['misses']} misses, "
            f"{tier['prefixes']} prefix chains "
            f"({tier['shared_bytes']} shared bytes)"
        )
    for event in snapshot["events"]:
        print(
            f"event t={event['time'] * 1e3:8.3f} ms  {event['kind']:14s} "
            f"replica-{event['replica_id']} (fleet {event['fleet_size']}): "
            f"{event['reason']}"
        )
    if tracer is not None:
        _dump_tracer(tracer, args.trace)
    return 0


def cmd_hotpath_bench(args: argparse.Namespace) -> int:
    """Engine hot-path profile: per-stage timings and matmul throughput."""
    import json

    import numpy as np

    from repro.core.dptc import DPTC
    from repro.core.hotpath import STAGES, profile_stages
    from repro.core.noise import NoiseModel

    if min(args.batch, args.m, args.d, args.n) < 1:
        raise SystemExit("hotpath-bench: --batch/--m/--d/--n must be >= 1")
    if args.repeats < 1:
        raise SystemExit("hotpath-bench: --repeats must be >= 1")
    core = (
        DPTC() if args.noise == "off" else DPTC(noise=NoiseModel.paper_default())
    )
    rng = np.random.default_rng(args.seed)
    a = rng.uniform(-1.0, 1.0, (args.batch, args.m, args.d))
    b = rng.uniform(-1.0, 1.0, (args.batch, args.d, args.n))

    stages = profile_stages(core, a, b, seed=args.seed, repeats=args.repeats)
    tracer = _build_tracer(args)
    if tracer is not None:
        # One extra call outside the timing loops, so the profile stays
        # untraced.
        with tracer.activate():
            core.matmul(a, b, rng=np.random.default_rng(args.seed))
    flop = 2.0 * args.batch * args.m * args.d * args.n
    report = {
        "shape": {"batch": args.batch, "m": args.m, "d": args.d, "n": args.n},
        "noise": args.noise,
        "stage_seconds": stages,
        "throughput_gflops": flop / stages["total"] / 1e9,
    }
    rows = [
        {"stage": name, "best_us": stages[name] * 1e6,
         "share_pct": 100.0 * stages[name] / stages["total"]}
        for name in STAGES
        if name in stages
    ]
    rows.append({"stage": "total", "best_us": stages["total"] * 1e6, "share_pct": 100.0})
    print(
        render_table(
            rows,
            title=(
                f"hotpath-bench [{args.batch}x{args.m}x{args.d}]x"
                f"[{args.batch}x{args.d}x{args.n}], noise={args.noise}"
            ),
        )
    )
    print(f"matmul throughput: {report['throughput_gflops']:.3f} GFLOP/s")
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True))
        print(f"wrote {args.out}")
    if tracer is not None:
        _dump_tracer(tracer, args.trace)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.report import generate

    generate(Path(args.output), skip_accuracy=args.skip_accuracy)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Lightening-Transformer accelerator models"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", choices=sorted(CONFIGS), default="lt-b")
        p.add_argument("--bits", type=int, default=4, choices=(4, 8))

    p_area = sub.add_parser("area", help="chip area breakdown (Fig. 7)")
    common(p_area)
    p_area.set_defaults(func=cmd_area)

    p_power = sub.add_parser("power", help="chip power breakdown (Fig. 8)")
    common(p_power)
    p_power.set_defaults(func=cmd_power)

    p_run = sub.add_parser("run", help="energy/latency of a workload (Table V)")
    common(p_run)
    p_run.add_argument("--model", choices=sorted(MODELS), default="deit-t")
    p_run.set_defaults(func=cmd_run)

    p_compare = sub.add_parser(
        "compare", help="compare against baselines (Table V / Fig. 13)"
    )
    p_compare.add_argument("--bits", type=int, default=4, choices=(4, 8))
    p_compare.add_argument("--model", choices=sorted(MODELS), default="deit-t")
    p_compare.set_defaults(func=cmd_compare)

    p_verify = sub.add_parser(
        "verify", help="check every headline claim against the paper"
    )
    p_verify.set_defaults(func=cmd_verify)

    def serving_config_flags(
        p: argparse.ArgumentParser, kind: str, wait_default: float
    ) -> None:
        """The shared config surface of the serving verbs.

        Every flag defaults to None: resolution order is explicit flag >
        ``--config`` JSON > the verb's built-in default.
        """
        p.add_argument(
            "--config", metavar="JSON",
            help=f"{kind} as inline JSON or a path to a JSON file; "
            "the flags below override individual fields",
        )
        p.add_argument(
            "--max-batch-size", type=int, default=None, help="(default 8)"
        )
        p.add_argument(
            "--max-wait-us", type=float, default=None,
            help=f"(default {wait_default:g})",
        )
        p.add_argument(
            "--scheduler",
            choices=("request", "continuous"),
            default=None,
            help="batch composition: request-level or iteration-level "
            "(default request)",
        )
        p.add_argument("--seed", type=int, default=None, help="(default 0)")
        p.add_argument(
            "--trace", metavar="PATH", default=None,
            help="capture a span trace of the run (.jsonl for JSON lines, "
            "anything else for Chrome trace-event JSON)",
        )

    p_serve = sub.add_parser(
        "serve-bench",
        help="dynamic-batching serving benchmark (open/closed-loop load)",
    )
    p_serve.add_argument("--model", choices=SERVE_MODELS, default="tiny-vit")
    p_serve.add_argument("--requests", type=int, default=32)
    serving_config_flags(p_serve, "EngineConfig", 2_000.0)
    p_serve.add_argument(
        "--rate", type=float, default=2_000.0, help="open-loop arrival rate (req/s)"
    )
    p_serve.add_argument("--users", type=int, default=4, help="closed-loop users")
    p_serve.add_argument("--rounds", type=int, default=2, help="closed-loop rounds")
    p_serve.add_argument("--num-cores", type=int, default=None, help="(default 1)")
    p_serve.set_defaults(func=cmd_serve_bench)

    p_cluster = sub.add_parser(
        "cluster-bench",
        help="multi-replica routing/autoscaling benchmark (virtual time)",
    )
    p_cluster.add_argument("--model", choices=CLUSTER_MODELS, default="tiny-vit")
    p_cluster.add_argument("--replicas", type=int, default=None, help="(default 3)")
    p_cluster.add_argument(
        "--policy",
        choices=(
            "round_robin", "least_outstanding", "session_affinity",
            "cache_aware",
        ),
        default=None,
        help="(default least_outstanding)",
    )
    p_cluster.add_argument("--requests", type=int, default=48)
    serving_config_flags(p_cluster, "ClusterConfig", 500.0)
    p_cluster.add_argument(
        "--rate", type=float, default=8_000.0,
        help="open-loop arrival rate (req/s, virtual time)",
    )
    p_cluster.add_argument(
        "--service-base-us", type=float, default=None,
        help="virtual per-batch base service time (default 1000)",
    )
    p_cluster.add_argument(
        "--service-per-request-us", type=float, default=None,
        help="virtual incremental service time per batched request "
        "(default 250)",
    )
    p_cluster.add_argument(
        "--shared-cache", action="store_true",
        help="build the fleet-wide shared cache tier "
        "(prompt memo + prefix chains)",
    )
    p_cluster.add_argument(
        "--autoscale", action="store_true",
        help="start at 1 replica and let the SLO autoscaler grow to --replicas",
    )
    p_cluster.add_argument(
        "--slo-ms", type=float, default=2.0,
        help="p95 latency SLO for --autoscale (milliseconds)",
    )
    p_cluster.set_defaults(func=cmd_cluster_bench)

    p_hotpath = sub.add_parser(
        "hotpath-bench",
        help="engine hot-path profile (per-stage timings, throughput)",
    )
    p_hotpath.add_argument("--batch", type=int, default=64)
    p_hotpath.add_argument("--m", type=int, default=24)
    p_hotpath.add_argument("--d", type=int, default=32)
    p_hotpath.add_argument("--n", type=int, default=24)
    p_hotpath.add_argument("--repeats", type=int, default=3)
    p_hotpath.add_argument("--seed", type=int, default=0)
    p_hotpath.add_argument(
        "--noise", choices=("paper", "off"), default="paper",
        help="noise model: the paper's calibrated stack, or an ideal "
        "(noise-free) engine profiling compute/detect only",
    )
    p_hotpath.add_argument("--out", metavar="FILE", help="write the JSON report")
    p_hotpath.add_argument(
        "--trace", metavar="PATH", default=None,
        help="capture the stage spans of one untimed matmul",
    )
    p_hotpath.set_defaults(func=cmd_hotpath_bench)

    p_trace = sub.add_parser(
        "trace",
        help="deterministic demo span trace (request -> iteration -> "
        "shard -> stage)",
    )
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--requests", type=int, default=12)
    p_trace.add_argument("--max-batch-size", type=int, default=4)
    p_trace.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the trace here (.jsonl for JSON lines, anything else "
        "for Chrome trace-event JSON viewable in Perfetto); default: "
        "JSONL to stdout",
    )
    p_trace.add_argument(
        "--sample", type=int, default=None, metavar="RATE",
        help="head-based sampling: keep one in RATE traces (by root-span "
        "hash, deterministic across runs); incident spans always kept",
    )
    p_trace.add_argument(
        "--stream", action="store_true",
        help="stream each span to --out the moment it ends (bounded "
        "memory) instead of dumping the collector at the end",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_top = sub.add_parser(
        "top",
        help="live fleet dashboard over a demo cluster run (virtual time)",
    )
    p_top.add_argument("--replicas", type=int, default=3)
    p_top.add_argument("--requests", type=int, default=48)
    p_top.add_argument("--frames", type=int, default=6, help="frames to render")
    p_top.add_argument(
        "--rate", type=float, default=8_000.0,
        help="open-loop arrival rate (req/s, virtual time)",
    )
    p_top.add_argument("--seed", type=int, default=0)
    p_top.add_argument(
        "--fail-replica", type=int, default=None, metavar="ID",
        help="inject a failure of this replica mid-run (flight recorder "
        "dumps a postmortem bundle)",
    )
    p_top.add_argument(
        "--no-color", action="store_true",
        help="plain frames, no ANSI colors or screen clearing",
    )
    p_top.set_defaults(func=cmd_top)

    p_metrics = sub.add_parser(
        "metrics",
        help="Prometheus text dump of the demo workload's registry",
    )
    p_metrics.add_argument("--seed", type=int, default=0)
    p_metrics.add_argument("--requests", type=int, default=12)
    p_metrics.add_argument("--max-batch-size", type=int, default=4)
    p_metrics.add_argument(
        "--port", type=int, default=None,
        help="serve exactly one HTTP scrape on this port (0 = ephemeral) "
        "instead of printing",
    )
    p_metrics.add_argument(
        "--self-scrape", action="store_true",
        help="with --port: fire the one scrape from a background thread "
        "(demo/CI mode — no external curl needed)",
    )
    p_metrics.add_argument(
        "--timeout", type=float, default=10.0,
        help="with --port: give up waiting for the scrape after this "
        "many seconds",
    )
    p_metrics.set_defaults(func=cmd_metrics)

    p_report = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    p_report.add_argument("--output", default="EXPERIMENTS.md")
    p_report.add_argument("--skip-accuracy", action="store_true")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
