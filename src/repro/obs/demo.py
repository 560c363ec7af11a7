"""The canonical traced workload behind ``repro trace`` and the obs tests.

A deliberately small — but *fully layered* — serving run: a noisy
:class:`~repro.core.sharding.ShardedDPTC` under a
continuous-batching :class:`~repro.serving.engine.ServingEngine` on a
:class:`~repro.serving.clock.SimulatedClock`.  Tracing it produces the
complete span chain the subsystem promises:

    request (submit/queue/dispatch/complete events)
    engine.iteration -> engine.batch -> shard.matmul -> shard.core
        -> stage.sample / stage.encode / stage.compute / stage.detect

Everything is seeded and single-threaded (manual stepping, one core
running on the caller thread), so the resulting span tree — ids, parents,
virtual timestamps, event order — is a pure function of
``(seed, requests)`` and the JSONL dump is byte-identical across
reruns: the contract of ``repro trace --seed S``, pinned by
``tests/obs/test_export.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.noise import NoiseModel
from repro.core.sharding import ShardedDPTC
from repro.obs.trace import SpanCollector, Tracer
from repro.serving.clock import SimulatedClock
from repro.serving.config import EngineConfig
from repro.serving.engine import ServingEngine
from repro.serving.scheduler import IterationCost
from repro.serving.servable import Servable


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
        m: int = 4,
        d: int = 16,
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


def trace_workload_config(max_batch_size: int = 4) -> EngineConfig:
    """The engine config of the canonical traced workload."""
    return EngineConfig(
        max_batch_size=max_batch_size,
        scheduler="continuous",
        iteration_cost=IterationCost(),
    )


def run_workload(
    *,
    traced: bool = False,
    seed: int = 0,
    requests: int = 12,
    max_batch_size: int = 4,
    sink=None,
) -> tuple[SpanCollector | None, list, dict]:
    """Run the demo workload; returns (collector, results, snapshot).

    ``traced=False`` runs the identical workload under the default
    no-op tracer — the disabled baseline that
    ``tests/obs/test_traced_equality.py`` compares the traced run
    against bit for bit.  The collector is ``None`` in that mode.  ``sink`` replaces the tracer's collector (implies tracing):
    this is how ``repro trace --stream`` hangs a
    :class:`~repro.obs.stream.StreamingSpanWriter` under the identical
    workload — spans are *emitted* instead of accumulated, so the
    returned collector is the sink itself.
    """
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    clock = SimulatedClock()
    if sink is not None:
        tracer = Tracer(clock=clock, collector=sink)
    else:
        tracer = Tracer(clock=clock) if traced else None
    servable = TracedMatmulServable(seed=seed)
    payload_rng = np.random.default_rng(seed + 2)
    engine = ServingEngine(
        servable,
        config=trace_workload_config(max_batch_size),
        clock=clock,
        tracer=tracer,
    )
    with engine:
        handles = []
        for index in range(requests):
            payload = payload_rng.uniform(
                -1.0, 1.0, (servable.m, servable.d)
            )
            handles.append(
                engine.submit(payload, session_id=f"session-{index % 3}")
            )
            # Interleave arrivals with execution so iterations compose
            # from a moving active set (admissions land mid-run).
            if index % max_batch_size == max_batch_size - 1:
                engine.step()
        engine.run_until_idle()
        results = [handle.result(timeout=0) for handle in handles]
        snapshot = engine.metrics.snapshot()
    return (tracer.collector if tracer is not None else None), results, snapshot


def run_trace_workload(
    *,
    seed: int = 0,
    requests: int = 12,
    max_batch_size: int = 4,
) -> SpanCollector:
    """Run the traced demo workload; returns its span collector.

    Shared by the ``repro trace`` CLI verb and the obs tests' span-tree
    and determinism checks — one code path, so the CLI's
    byte-determinism promise is exactly what the tests pin.
    """
    collector, _, _ = run_workload(
        traced=True, seed=seed, requests=requests, max_batch_size=max_batch_size
    )
    return collector
