"""Command-line interface to the accelerator models.

Usage::

    python -m repro.cli area   [--config lt-b|lt-l] [--bits N]
    python -m repro.cli power  [--config lt-b|lt-l] [--bits N]
    python -m repro.cli run    [--config lt-b|lt-l] [--bits N] [--model NAME]
    python -m repro.cli compare [--bits N] [--model NAME]
    python -m repro.cli report [--skip-accuracy]
    python -m repro.cli bench  SCENARIO [--config JSON] [--requests N]
                               [--rate R] [--trace PATH] [--out FILE]
    python -m repro.cli trace  [--seed N] [--requests N] [--out FILE]
                               [--sample RATE] [--stream]
    python -m repro.cli top    [--replicas N] [--frames N] [--fail-replica ID]
    python -m repro.cli metrics [--requests N] [--port P]

``bench`` builds and drives one scenario of
:mod:`repro.workloads.scenarios` (``serve-vit``, ``fleet-decode``,
``hotpath``, ...) and prints its table.  ``--config`` takes the
scenario's settings as inline JSON or a path to a JSON file, laid field
by field over the scenario's default config; a bad value is a one-line
exit.  ``--trace PATH`` captures the run's span tree and ``--out FILE``
writes the report as JSON.

``trace`` runs the deterministic ``demo`` scenario and dumps the span
tree (JSONL by default; a ``--out`` ending in anything but ``.jsonl``
writes Chrome trace-event JSON for Perfetto).  ``--sample RATE`` keeps
one in RATE traces (incident spans always survive) and ``--stream``
exports each span the moment it ends instead of holding the run in
memory — both produce deterministic subsets of the full dump.  ``top``
renders live ANSI fleet-dashboard frames over a cluster of demo
servables (optionally failing a replica mid-run, which drops a
flight-recorder postmortem), and ``metrics`` prints the demo registry
in Prometheus text format (with ``--port``, serves exactly one HTTP
scrape of it).

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
    """Deterministic demo trace: run the demo scenario, dump the spans."""
    from repro.obs import (
        StreamingSpanWriter,
        TraceSampler,
        sampled_lines,
        to_jsonl,
        write_trace,
    )
    from repro.workloads.scenarios import DEMO, demo_workload

    if args.requests < 1:
        raise SystemExit("trace: --requests must be >= 1")
    try:
        sampler = TraceSampler(args.sample) if args.sample is not None else None
    except ValueError as error:
        raise SystemExit(f"trace: {error}")
    if args.stream and not args.out:
        raise SystemExit("trace: --stream needs --out FILE")
    if (args.stream or sampler is not None) and args.out and not args.out.endswith(".jsonl"):
        flag = "--stream" if args.stream else "--sample"
        raise SystemExit(f"trace: {flag} writes JSONL; --out must end in .jsonl")
    config = DEMO.replace(seed=args.seed, max_batch_size=args.max_batch_size)
    if args.stream:
        # Spans hit disk at span end instead of accumulating in memory;
        # the workload (and therefore every span id/timestamp) is the
        # batch path's, so the file sorts into the same canonical lines.
        with StreamingSpanWriter(args.out, sampler=sampler) as writer:
            demo_workload(config, requests=args.requests, sink=writer)
        print(
            f"streamed {writer.spans_written}/{writer.spans_seen} spans "
            f"-> {args.out} (peak {writer.peak_open} open)"
        )
        return 0
    collector, _, _ = demo_workload(config, requests=args.requests, traced=True)
    if sampler is not None:
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
        Tracer,
        latency_objective,
    )
    from repro.obs.live import ANSI_HOME
    from repro.serving import EngineConfig, IterationCost, SimulatedClock
    from repro.workloads.scenarios import TracedMatmulServable, demo_payloads

    if args.replicas < 1:
        raise SystemExit("top: --replicas must be >= 1")
    if args.requests < 1:
        raise SystemExit("top: --requests must be >= 1")
    if args.frames < 1:
        raise SystemExit("top: --frames must be >= 1")
    if args.rate <= 0:
        raise SystemExit("top: --rate must be > 0")
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
    payloads = demo_payloads(args.seed)
    gap_rng = np.random.default_rng(args.seed + 3)
    frame_every = max(1, args.requests // args.frames)
    fail_at = args.requests // 2 if args.fail_replica is not None else None

    def show() -> None:
        if not args.no_color:
            sys.stdout.write(ANSI_HOME)
        sys.stdout.write(top.frame())

    with cluster:
        for index in range(args.requests):
            clock.advance(float(gap_rng.exponential(1.0 / args.rate)))
            cluster.submit(next(payloads), session_id=f"session-{index % 4}")
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
    from repro.obs.live import MetricsExposition, threaded_fetch
    from repro.serving import SimulatedClock
    from repro.workloads.scenarios import DEMO, demo_engine, demo_payloads

    if args.requests < 1:
        raise SystemExit("metrics: --requests must be >= 1")
    config = DEMO.replace(seed=args.seed, max_batch_size=args.max_batch_size)
    payloads = demo_payloads(args.seed)
    with demo_engine(config, clock=SimulatedClock()) as engine:
        handles = [
            engine.submit(next(payloads), session_id=f"session-{index % 3}")
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


def cmd_bench(args: argparse.Namespace) -> int:
    """Build and drive one scenario of :mod:`repro.workloads.scenarios`."""
    import json
    from pathlib import Path

    from repro.obs import Tracer, write_trace
    from repro.workloads.scenarios import SCENARIOS, configure

    verb = f"bench {args.scenario}"
    if args.requests is not None and args.requests < 1:
        raise SystemExit(f"{verb}: --requests must be >= 1")
    if args.rate is not None and args.rate <= 0:
        raise SystemExit(f"{verb}: --rate must be > 0")
    config, run = SCENARIOS[args.scenario]
    if args.config:
        text = args.config.strip()
        try:
            data = json.loads(text if text.startswith("{") else Path(text).read_text())
            config = configure(config, data)
        except (OSError, TypeError, ValueError) as error:
            raise SystemExit(f"{verb}: bad --config: {error}")
    load = {
        name: value
        for name in ("requests", "rate")
        if (value := getattr(args, name)) is not None
    }
    tracer = Tracer() if args.trace else None
    try:
        title, rows, notes = run(config, tracer=tracer, **load)
    except ValueError as error:
        raise SystemExit(f"{verb}: {error}")
    print(render_table(rows, title=f"{args.scenario}: {title}"))
    for note in notes:
        print(note)
    if args.out:
        report = {"scenario": args.scenario, "config": config.to_dict(),
                  "title": title, "rows": rows, "notes": notes}
        Path(args.out).write_text(json.dumps(report, indent=2, default=float))
        print(f"wrote {args.out}")
    if tracer is not None:
        written = write_trace(tracer.collector, args.trace)
        print(f"wrote {len(tracer.collector)} spans -> {written}")
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

    from repro.workloads.scenarios import SCENARIOS

    p_bench = sub.add_parser(
        "bench",
        help="build and drive one named, seeded scenario "
        "(serving, fleet, hot-path or demo)",
    )
    p_bench.add_argument("scenario", choices=list(SCENARIOS))
    p_bench.add_argument(
        "--config", metavar="JSON",
        help="settings as inline JSON or a path to a JSON file, laid "
        "field by field over the scenario's default config",
    )
    p_bench.add_argument(
        "--requests", type=int, default=None,
        help="requests to drive (default: the scenario's)",
    )
    p_bench.add_argument(
        "--rate", type=float, default=None,
        help="open-loop arrival rate, req/s (default: the scenario's)",
    )
    p_bench.add_argument(
        "--trace", metavar="PATH", default=None,
        help="capture a span trace of the run (.jsonl for JSON lines, "
        "anything else for Chrome trace-event JSON)",
    )
    p_bench.add_argument(
        "--out", metavar="FILE", help="write the report as JSON"
    )
    p_bench.set_defaults(func=cmd_bench)

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
