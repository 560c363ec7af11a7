"""Named, seeded traffic scenarios: one builder and driver per shape.

:data:`SCENARIOS` maps a scenario name to a plain ``(default config,
run)`` pair.  ``run(config, *, requests, rate, tracer)`` builds the
system from ``config`` with one seeded builder, drives it with the
existing load primitives and returns ``(title, rows, notes)``: a
settings line, the result rows and any extra report lines.  ``repro
bench SCENARIO`` renders them; ``--config`` JSON is laid over the
default's ``to_dict()`` (:func:`configure`), so every scenario has one
settings object and one bad-config message format.

* ``serve-vit`` / ``serve-bert``: one engine on the wall clock under
  open-loop Poisson load, then :data:`USERS` closed-loop users for
  :data:`ROUNDS` rounds (tiny ViT images, ragged tiny BERT prompts).
* ``fleet-vit`` / ``fleet-decode`` / ``fleet-autoscale``: a
  :class:`~repro.cluster.cluster.ServingCluster` in virtual time
  (:func:`fleet`), driven by :func:`drive_fleet`; the autoscaled fleet
  starts at one replica and may grow to ``config.replicas``.
* ``hotpath``: the per-stage profile of one noisy DPTC matmul.
* ``demo``: the small, fully layered traced workload behind ``repro
  trace``, ``repro metrics`` and ``repro top`` (:func:`demo_workload`).

This module is not imported by :mod:`repro.workloads`, so loading the
paper's workload models never loads serving or cluster.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from repro.cluster import (
    AutoscalerPolicy,
    ClusterConfig,
    ServingCluster,
    run_virtual_open_loop,
    run_virtual_schedule,
)
from repro.core.dptc import DPTC
from repro.core.hotpath import STAGES, profile_stages
from repro.core.noise import NoiseModel
from repro.core.sharding import ShardedDPTC
from repro.obs.trace import SpanCollector, Tracer
from repro.serving import (
    Arrival,
    EngineConfig,
    IterationCost,
    ServingEngine,
    SimulatedClock,
    TenantSpec,
    TextServable,
    VisionServable,
    multi_tenant_arrivals,
    poisson_gaps,
    run_closed_loop,
    run_open_loop,
)
from repro.serving.config import check_scalar_types, fields_from_dict
from repro.serving.servable import Servable
from repro.workloads.llm import DecoderConfig, decode_servable
from repro.workloads.transformer import KIND_TEXT, TransformerConfig, servable_model

#: Closed-loop users and rounds of the ``serve-*`` scenarios.
USERS = 4
ROUNDS = 2
#: p95 latency objective of the ``fleet-autoscale`` autoscaler, seconds.
SLO_S = 2e-3

TINY_VIT = TransformerConfig(
    "tiny-vit", depth=1, dim=32, heads=2, seq_len=17, mlp_ratio=2.0,
    n_classes=4, patch_size=4, image_size=16, in_channels=1,
)
TINY_BERT = TransformerConfig(
    "tiny-bert", depth=1, dim=32, heads=2, seq_len=17, mlp_ratio=2.0,
    kind=KIND_TEXT, n_classes=2,
)
DECODER = DecoderConfig("fleet-decode", depth=2, dim=16, heads=2, mlp_ratio=2.0)

#: Default of the ``serve-*`` scenarios.
SERVE = EngineConfig(max_wait_us=2_000.0)
#: Default of the ``fleet-*`` scenarios: three replicas behind
#: least-outstanding routing, charged a virtual service time per batch.
FLEET = ClusterConfig(
    replicas=3,
    policy="least_outstanding",
    engine=EngineConfig(max_wait_us=500.0),
    service_model=IterationCost(),
)
#: Default of the ``demo`` scenario; ``seed`` seeds its weights and
#: payloads.
DEMO = EngineConfig(
    max_batch_size=4, scheduler="continuous", iteration_cost=IterationCost()
)


def configure(default, overrides: Any):
    """``default`` with the JSON value ``overrides`` laid over it.

    Mappings merge key by key, recursively, over ``default.to_dict()``;
    any other value replaces the default's.  The result goes through
    ``type(default).from_dict``, so an unknown field or a bad value is a
    ``ValueError`` naming it.
    """
    return type(default).from_dict(_merged(default.to_dict(), overrides))


def _merged(base: Any, override: Any) -> Any:
    if not (isinstance(base, dict) and isinstance(override, dict)):
        return override
    return {**base, **{k: _merged(base.get(k), v) for k, v in override.items()}}


def _occupancy(label: str, histogram: dict) -> str:
    return f"{label}: " + ", ".join(f"{size}x{n}" for size, n in histogram.items())


# -- serve-vit / serve-bert ------------------------------------------------


def _vit(config: EngineConfig, rng: np.random.Generator, n: int):
    servable = VisionServable(servable_model(TINY_VIT, engine=config))
    return servable, [rng.normal(size=(16, 16)) for _ in range(n)]


def _bert(config: EngineConfig, rng: np.random.Generator, n: int):
    servable = TextServable(servable_model(TINY_BERT, engine=config), pad_id=0)
    prompts = [rng.integers(1, 32, size=int(rng.integers(1, 17))) for _ in range(n)]
    return servable, prompts


def run_serve(setup, config: EngineConfig, *, requests=32, rate=2_000.0, tracer=None):
    """Open-loop Poisson load on one engine, then closed-loop users."""
    config = config.replace(queue_depth=max(config.queue_depth, requests))
    servable, payloads = setup(config, np.random.default_rng(config.seed), requests)
    gaps = poisson_gaps(requests, 1.0 / rate, np.random.default_rng(config.seed + 1))
    with ServingEngine(servable, config=config, tracer=tracer) as engine:
        rows = [
            run_open_loop(engine, payloads, gaps),
            run_closed_loop(engine, payloads[:USERS], rounds=ROUNDS),
        ]
        batches = engine.metrics.batch_occupancy()
        iterations = engine.metrics.iteration_occupancy()
    for row in rows:
        row.setdefault("concurrency", "-")
    title = (
        f"max_batch_size={config.max_batch_size}, "
        f"max_wait_us={config.max_wait_us:g}, rate={rate:g} req/s, "
        f"scheduler={config.scheduler}"
    )
    notes = [_occupancy("batch occupancy", batches)]
    if iterations:
        notes.append(_occupancy("iteration occupancy", iterations))
    return title, rows, notes


# -- fleet-vit / fleet-decode / fleet-autoscale ---------------------------


def fleet(
    config: ClusterConfig, model: str, *, tracer=None, autoscale: bool = False
) -> ServingCluster:
    """The fleet of ``model`` (``"vit"`` or ``"decode"``) on a simulated clock.

    With ``autoscale`` it starts at one replica under an SLO autoscaler
    that may grow it to ``config.replicas``.  A ``tracer``'s collector
    receives the fleet's spans stamped on the fleet's own clock, so a
    traced run is byte-identical across reruns and its span times are
    the virtual times of the report.
    """
    clock = SimulatedClock()
    if tracer is not None:
        tracer = Tracer(clock=clock, collector=tracer.collector)
    if model == "vit":
        def factory(replica_id: int):
            return VisionServable(servable_model(TINY_VIT, engine=config.engine))
    else:
        def factory(replica_id: int):
            return decode_servable(DECODER, engine=config.engine)
    autoscaler = None
    if autoscale:
        autoscaler = AutoscalerPolicy(
            min_replicas=1, max_replicas=config.replicas, high_backlog=50.0,
            low_backlog=0.5, latency_slo_s=SLO_S, cooldown_s=0.5e-3,
        )
        config = config.replace(replicas=1)
    return ServingCluster(
        factory, config=config, clock=clock, autoscaler=autoscaler, tracer=tracer,
    )


def decode_arrivals(seed: int, requests: int, rate: float) -> list[Arrival]:
    """Two chat tenants' decode steps: ``requests / rate`` seconds of arrivals."""
    tenants = (
        TenantSpec("chat-a", rate_rps=2 * rate / 3, sessions=4),
        TenantSpec("chat-b", rate_rps=rate / 3, sessions=3),
    )
    return multi_tenant_arrivals(
        tenants, horizon_s=requests / rate, rng=np.random.default_rng(seed + 1)
    )


def decode_token(arrival: Arrival) -> np.ndarray:
    """The token vector of one decode step, seeded by its arrival index."""
    return np.random.default_rng(arrival.index).normal(size=DECODER.dim)


def drive_fleet(cluster: ServingCluster, model: str, *, requests: int, rate: float) -> dict:
    """Open-loop virtual-time load; the report keeps its ``handles``."""
    seed = cluster.config.engine.seed
    if model == "decode":
        arrivals = decode_arrivals(seed, requests, rate)
        return run_virtual_schedule(cluster, arrivals, decode_token)
    rng = np.random.default_rng(seed + 1)
    payloads = [rng.normal(size=(16, 16)) for _ in range(requests)]
    gaps = rng.exponential(1.0 / rate, size=requests)
    return run_virtual_open_loop(cluster, payloads, gaps)


def run_fleet(
    model: str, autoscale: bool, config: ClusterConfig, *,
    requests=48, rate=8_000.0, tracer=None,
):
    """A virtual-time fleet run: report row, dispatches, affinity, events."""
    engine = config.engine
    config = config.replace(
        engine=engine.replace(queue_depth=max(engine.queue_depth, requests))
    )
    with fleet(config, model, tracer=tracer, autoscale=autoscale) as cluster:
        report = drive_fleet(cluster, model, requests=requests, rate=rate)
        report.pop("handles")
        snapshot = cluster.snapshot()
    title = (
        f"policy={config.policy}, replicas={config.replicas}"
        f"{' (autoscaled)' if autoscale else ''}, "
        f"rate={rate:g} req/s (virtual time), "
        f"scheduler={config.engine.scheduler}"
        f"{', shared cache' if config.shared_cache else ''}"
    )
    notes = [
        "dispatches: " + ", ".join(
            f"replica-{rid}x{count}" for rid, count in snapshot["dispatches"].items()
        )
    ]
    if model == "decode":
        affinity, moved = snapshot["affinity"], snapshot["migrations"]
        notes.append(
            f"affinity: hit rate {affinity['hit_rate']:.3f} "
            f"({affinity['hits']} hits / {affinity['misses']} misses), "
            f"{moved['count']} KV migrations ({moved['bytes']} bytes)"
        )
    if "tier" in snapshot:
        tier = snapshot["tier"]
        notes.append(
            f"tier: {tier['hits']} memo hits / {tier['misses']} misses, "
            f"{tier['prefixes']} prefix chains ({tier['shared_bytes']} shared bytes)"
        )
    notes.extend(
        f"event t={event['time'] * 1e3:8.3f} ms  {event['kind']:14s} "
        f"replica-{event['replica_id']} (fleet {event['fleet_size']}): "
        f"{event['reason']}"
        for event in snapshot["events"]
    )
    return title, [report], notes


# -- hotpath ----------------------------------------------------------------


@dataclass(frozen=True)
class HotpathConfig:
    """Shape, timing repeats, seed and noise of the ``hotpath`` profile.

    The profiled product is ``[batch, m, d] @ [batch, d, n]``; ``noise``
    is ``"paper"`` (the calibrated stack) or ``"off"`` (an ideal engine,
    timing compute and detect only).
    """

    batch: int = 64
    m: int = 24
    d: int = 32
    n: int = 24
    repeats: int = 3
    seed: int = 0
    noise: str = "paper"

    def __post_init__(self) -> None:
        check_scalar_types(self)
        if min(self.batch, self.m, self.d, self.n, self.repeats) < 1:
            raise ValueError(
                f"batch, m, d, n and repeats must be >= 1, got {self.to_dict()}"
            )
        if self.noise not in ("paper", "off"):
            raise ValueError(f"noise must be 'paper' or 'off', got {self.noise!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "HotpathConfig":
        return cls(**fields_from_dict(cls, data))


def run_hotpath(config: HotpathConfig, *, requests=None, rate=None, tracer=None):
    """Best-of-``repeats`` time of each stage of one noisy matmul.

    ``tracer`` records the stage spans of one extra call outside the
    timing loops, so the profile stays untraced.
    """
    if requests is not None or rate is not None:
        raise ValueError("hotpath profiles one matmul; it takes no --requests or --rate")
    core = DPTC() if config.noise == "off" else DPTC(noise=NoiseModel.paper_default())
    rng = np.random.default_rng(config.seed)
    a = rng.uniform(-1.0, 1.0, (config.batch, config.m, config.d))
    b = rng.uniform(-1.0, 1.0, (config.batch, config.d, config.n))
    stages = profile_stages(core, a, b, seed=config.seed, repeats=config.repeats)
    if tracer is not None:
        with tracer.activate():
            core.matmul(a, b, rng=np.random.default_rng(config.seed))
    total = stages["total"]
    rows = [
        {"stage": name, "best_us": stages[name] * 1e6,
         "share_pct": 100.0 * stages[name] / total}
        for name in (*STAGES, "total")
        if name in stages
    ]
    flop = 2.0 * a.size * config.n
    title = (
        f"[{config.batch}x{config.m}x{config.d}]x"
        f"[{config.batch}x{config.d}x{config.n}], noise={config.noise}"
    )
    return title, rows, [f"matmul throughput: {flop / total / 1e9:.3f} GFLOP/s"]


# -- demo ---------------------------------------------------------------------

#: Shape of one demo activation payload, ``[m, d]``.
DEMO_M, DEMO_D = 4, 16


class TracedMatmulServable(Servable):
    """Serves noisy matmuls against a fixed weight matrix.

    Payloads are ``[m, d]`` activations; a batch stacks them and runs
    one ``[batch, m, d] @ [d, n]`` noisy product through a sharded
    engine — the smallest servable that exercises the full 4-stage hot
    path under the serving layers.
    """

    name = "traced-matmul"

    def __init__(
        self,
        *,
        seed: int = 0,
        m: int = DEMO_M,
        d: int = DEMO_D,
        n: int = 8,
        num_cores: int = 1,
    ) -> None:
        self.m = m
        self.d = d
        #: The sharded engine every batch runs on; its cores run in
        #: core order, so the trace is the same on every run.
        self.executor = ShardedDPTC(
            num_cores=num_cores, noise=NoiseModel.paper_default()
        )
        rng = np.random.default_rng(seed)
        self.weight = rng.uniform(-1.0, 1.0, (d, n))
        self._rng = np.random.default_rng(seed + 1)

    def prepare(self, payload) -> np.ndarray:
        activation = np.asarray(payload, dtype=float)
        if activation.shape != (self.m, self.d):
            raise ValueError(
                f"expected one ({self.m}, {self.d}) activation, "
                f"got {activation.shape}"
            )
        return activation

    def execute(self, requests) -> list[np.ndarray]:
        stacked = np.stack([request.payload for request in requests])
        out = self.executor.matmul(stacked, self.weight, rng=self._rng)
        return [row.copy() for row in out]


def demo_payloads(seed: int) -> Iterator[np.ndarray]:
    """The demo's endless stream of ``[DEMO_M, DEMO_D]`` activations."""
    rng = np.random.default_rng(seed + 2)
    while True:
        yield rng.uniform(-1.0, 1.0, (DEMO_M, DEMO_D))


def demo_engine(config: EngineConfig, *, clock, tracer=None) -> ServingEngine:
    """One engine serving a :class:`TracedMatmulServable` seeded by ``config.seed``."""
    return ServingEngine(
        TracedMatmulServable(seed=config.seed), config=config, clock=clock, tracer=tracer
    )


def demo_workload(
    config: EngineConfig = DEMO,
    *,
    requests: int = 12,
    traced: bool = False,
    sink=None,
) -> tuple[SpanCollector | None, list, dict]:
    """Run the demo workload; returns (collector, results, snapshot).

    A noisy :class:`~repro.core.sharding.ShardedDPTC` under a
    continuous-batching engine on a :class:`SimulatedClock`, so tracing
    it gives the full span chain: ``request`` (submit/queue/dispatch/
    complete events), ``engine.iteration -> engine.batch ->
    shard.matmul -> shard.core -> stage.sample / stage.encode /
    stage.compute / stage.detect``.  Everything is seeded and runs on
    the calling thread, so the span tree (ids, parents, virtual
    timestamps, event order) is a pure function of ``(config,
    requests)`` and its JSONL dump is byte-identical across reruns.

    ``traced=False`` runs the identical workload under the no-op tracer
    (the collector is then ``None``).  ``sink`` replaces the tracer's
    collector and implies tracing: ``repro trace --stream`` hangs a
    :class:`~repro.obs.stream.StreamingSpanWriter` here, and the
    returned collector is the sink itself.
    """
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    clock = SimulatedClock()
    tracer = None
    if traced or sink is not None:
        tracer = Tracer(clock=clock, collector=sink)
    payloads = demo_payloads(config.seed)
    with demo_engine(config, clock=clock, tracer=tracer) as engine:
        handles = []
        for index in range(requests):
            handles.append(
                engine.submit(next(payloads), session_id=f"session-{index % 3}")
            )
            # Interleave arrivals with execution so iterations compose
            # from a moving active set (admissions land mid-run).
            if index % config.max_batch_size == config.max_batch_size - 1:
                engine.step()
        engine.run_until_idle()
        results = [handle.result(timeout=0) for handle in handles]
        snapshot = engine.metrics.snapshot()
    return (tracer.collector if tracer is not None else None), results, snapshot


def run_demo(config: EngineConfig, *, requests=12, rate=None, tracer=None):
    """The demo workload in virtual time; ``tracer`` collects its spans."""
    if rate is not None:
        raise ValueError(
            "demo steps its engine every max_batch_size arrivals; it takes no --rate"
        )
    sink = tracer.collector if tracer is not None else None
    _, _, snapshot = demo_workload(config, requests=requests, sink=sink)
    latency = snapshot["latency_s"]
    row = {
        "pattern": "demo",
        "requests": requests,
        "completed": snapshot["completed"],
        "failed": snapshot["failed"],
        "throughput_rps": snapshot["throughput_rps"],
        "latency_p50_ms": latency["p50"] * 1e3,
        "latency_p95_ms": latency["p95"] * 1e3,
    }
    title = (
        f"max_batch_size={config.max_batch_size}, scheduler={config.scheduler}, "
        f"seed={config.seed} (virtual time)"
    )
    return title, [row], [_occupancy("iteration occupancy", snapshot["iteration_occupancy"])]


SCENARIOS: dict[str, tuple[Any, Any]] = {
    "serve-vit": (SERVE, functools.partial(run_serve, _vit)),
    "serve-bert": (SERVE, functools.partial(run_serve, _bert)),
    "fleet-vit": (FLEET, functools.partial(run_fleet, "vit", False)),
    "fleet-decode": (FLEET, functools.partial(run_fleet, "decode", False)),
    "fleet-autoscale": (FLEET, functools.partial(run_fleet, "vit", True)),
    "hotpath": (HotpathConfig(), run_hotpath),
    "demo": (DEMO, run_demo),
}
