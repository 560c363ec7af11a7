"""Frozen serving configuration objects (the unified construction API).

Six PRs of engine growth left knobs scattered across constructors:
batching (``max_batch_size``/``max_wait_us``), scheduling
(``scheduler``/``iteration_cost``), executor geometry
(``num_cores``/``shard_axis``/``backend``) and KV paging
(``block_size``/``kv_capacity_bytes``/``kv_bits``) each lived on
whichever call site grew them first.  :class:`EngineConfig` collapses
that surface into one frozen, validated dataclass accepted by
:class:`~repro.serving.engine.ServingEngine`,
:func:`~repro.workloads.transformer.servable_model` and
:func:`~repro.workloads.llm.decode_servable` (and embedded per-replica
inside :class:`~repro.cluster.config.ClusterConfig`).  It is the only
way to set those knobs: the engine constructor takes the config plus
its runtime collaborators (clock, caches, tracer, recorder) and nothing
else.

Configs round-trip through JSON (:meth:`EngineConfig.to_dict` /
:meth:`EngineConfig.from_dict`) so the CLI's ``--config`` flag and the
benchmark scripts share one serialized form.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from repro.serving.batcher import BatchingPolicy
from repro.serving.scheduler import IterationCost

#: Engine scheduling modes (request-level dynamic batching vs
#: iteration-level continuous batching).
SCHEDULERS = ("request", "continuous")

#: Executor sharding axes / backends accepted by
#: :meth:`repro.neural.photonic.PhotonicExecutor.ideal`.
SHARD_AXES = ("batch", "contraction")
BACKENDS = ("thread", "process")

@dataclass(frozen=True)
class EngineConfig:
    """Everything one serving engine (or cluster replica) is built from.

    Attributes:
        max_batch_size: occupancy cap of one coalesced batch (request
            mode) or active lanes per iteration (continuous mode).
        max_wait_us: dynamic-batching wait budget of the oldest queued
            request, microseconds.
        queue_depth: admission-control bound of the request queue.
        scheduler: ``"request"`` or ``"continuous"``.
        iteration_cost: virtual service time per fused decode iteration
            (continuous mode under a simulated clock); ``None`` = no
            virtual time.
        num_cores: photonic cores the executor shards over.
        shard_axis: ``"batch"`` or ``"contraction"``.
        backend: ``"thread"`` or ``"process"`` executor pool.
        chunk_size: hot-path pipelining chunk (stacks per chunk along
            the leading batch axis); ``None`` disables chunking.
        pipeline_depth: chunks the engine's prefetch stage may run
            ahead of compute (0 = chunked but strictly sequential).
        block_size: tokens per KV page.
        kv_capacity_bytes: KV :class:`~repro.serving.cache.BlockPool`
            byte budget (``None`` = unbounded).
        kv_bits: K/V element precision for byte accounting.
        seed: weight seed of servables built from this config.
    """

    max_batch_size: int = 8
    max_wait_us: float = 1_000.0
    queue_depth: int = 64
    scheduler: str = "request"
    iteration_cost: IterationCost | None = None
    num_cores: int = 1
    shard_axis: str = "batch"
    backend: str = "thread"
    chunk_size: int | None = None
    pipeline_depth: int = 1
    block_size: int = 1
    kv_capacity_bytes: int | None = None
    kv_bits: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_wait_us < 0:
            raise ValueError(f"max_wait_us must be >= 0, got {self.max_wait_us}")
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; expected one of "
                f"{SCHEDULERS}"
            )
        if self.num_cores < 1:
            raise ValueError(f"num_cores must be >= 1, got {self.num_cores}")
        if self.shard_axis not in SHARD_AXES:
            raise ValueError(
                f"unknown shard_axis {self.shard_axis!r}; expected one of "
                f"{SHARD_AXES}"
            )
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(
                f"chunk_size must be >= 1 or None, got {self.chunk_size}"
            )
        if self.pipeline_depth < 0:
            raise ValueError(
                f"pipeline_depth must be >= 0, got {self.pipeline_depth}"
            )
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")
        if self.kv_capacity_bytes is not None and self.kv_capacity_bytes < 0:
            raise ValueError(
                f"kv_capacity_bytes must be >= 0, got {self.kv_capacity_bytes}"
            )
        if self.kv_bits < 1:
            raise ValueError(f"kv_bits must be >= 1, got {self.kv_bits}")

    @property
    def batching(self) -> BatchingPolicy:
        """The batching policy view of this config."""
        return BatchingPolicy(
            max_batch_size=self.max_batch_size, max_wait_us=self.max_wait_us
        )

    def replace(self, **changes: Any) -> "EngineConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-serializable form (nested ``iteration_cost`` mapping)."""
        data = dataclasses.asdict(self)
        if self.iteration_cost is not None:
            data["iteration_cost"] = dataclasses.asdict(self.iteration_cost)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "EngineConfig":
        """Inverse of :meth:`to_dict`; unknown keys are an error."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown EngineConfig fields {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        kwargs = dict(data)
        cost = kwargs.get("iteration_cost")
        if isinstance(cost, dict):
            kwargs["iteration_cost"] = IterationCost(**cost)
        return cls(**kwargs)
