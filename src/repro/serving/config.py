"""Frozen serving configuration objects (the unified construction API).

Six PRs of engine growth left knobs scattered across constructors:
batching (``max_batch_size``/``max_wait_us``), scheduling
(``scheduler``/``iteration_cost``), executor geometry
(``num_cores``/``shard_axis``) and KV paging
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
:meth:`EngineConfig.from_dict`) so the CLI's ``--config`` flag and Python
callers share one serialized form.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Any

from repro.serving.scheduler import IterationCost

#: Engine scheduling modes: the batching window and per-iteration
#: intake of the one iteration loop (request-level dynamic batching vs
#: iteration-level continuous batching).
SCHEDULERS = ("request", "continuous")

#: Executor sharding axes accepted by
#: :meth:`repro.neural.photonic.PhotonicExecutor.ideal`.
SHARD_AXES = ("batch", "contraction")


def fields_from_dict(cls: type, data: Any) -> dict:
    """``data`` as keyword arguments of dataclass ``cls``.

    The one parser of the JSON config form: a non-mapping or an unknown
    key is a ``ValueError`` naming ``cls`` and its fields.
    """
    if not isinstance(data, dict):
        raise ValueError(
            f"{cls.__name__} must be a JSON object, got {type(data).__name__}"
        )
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} fields {sorted(unknown)}; "
            f"expected a subset of {sorted(known)}"
        )
    return dict(data)


#: Scalar field annotation -> (what its values must be, the check).
#: ``bool`` is an ``int`` subclass, so it is refused where a number is
#: meant.
_SCALAR_CHECKS = {
    "int": ("an int", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    "float": ("a real number", lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)),
    "bool": ("a bool", lambda v: isinstance(v, bool)),
    "str": ("a str", lambda v: isinstance(v, str)),
}


def check_scalar_types(config: Any) -> None:
    """Every ``int``/``float``/``bool``/``str`` field holds its type.

    Reads each dataclass field's annotation as a string, so the config
    module must use ``from __future__ import annotations``.  A scalar
    field is spelled ``"int"`` or ``"int | None"`` (likewise the other
    three); any other spelling that names a scalar (``"Optional[int]"``,
    ``"int | float"``) is a ``TypeError``, so no field drops out of the
    check unnoticed.  A value of the wrong type is a ``ValueError``
    naming the field, raised before any range check compares the value.
    """
    for f in dataclasses.fields(config):
        if not isinstance(f.type, str):
            raise TypeError(
                f"{type(config).__name__}.{f.name}: annotation {f.type!r} is not "
                "a string; declare the config under `from __future__ import annotations`"
            )
        members = [member.strip() for member in f.type.split("|")]
        kind, optional = members[0], members[1:] == ["None"]
        if kind not in _SCALAR_CHECKS or members[1:] not in ([], ["None"]):
            if any(m in _SCALAR_CHECKS for m in members) or f.type.startswith(
                ("Optional[", "Union[")
            ):
                raise TypeError(
                    f"{type(config).__name__}.{f.name}: spell a scalar field "
                    f"'T' or 'T | None', got {f.type!r}"
                )
            continue
        value = getattr(config, f.name)
        if value is None and optional:
            continue
        wanted, check = _SCALAR_CHECKS[kind]
        if not check(value):
            if optional:
                wanted += " or None"
            raise ValueError(
                f"{f.name} must be {wanted}, got {type(value).__name__} {value!r}"
            )


@dataclass(frozen=True)
class EngineConfig:
    """Everything one serving engine (or cluster replica) is built from.

    Construction checks every field's type, then its range, and raises
    ``ValueError`` naming the field.

    Attributes:
        max_batch_size: active lanes per iteration: the occupancy cap
            of one coalesced batch in both scheduler modes.
        max_wait_us: request-mode batching window: how long the oldest
            queued request may wait for the batch to fill, microseconds.
            Continuous mode ignores it.
        queue_depth: admission-control bound of the request queue.
        scheduler: ``"request"`` (one FIFO batch per iteration, held
            for the ``max_wait_us`` window) or ``"continuous"`` (every
            arrival each iteration, no window).
        iteration_cost: virtual service time per executed iteration
            (simulated clock only); ``None`` = no virtual time.
        num_cores: photonic cores the executor shards over.
        shard_axis: ``"batch"`` or ``"contraction"``.
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
    block_size: int = 1
    kv_capacity_bytes: int | None = None
    kv_bits: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        check_scalar_types(self)
        if self.max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if not math.isfinite(self.max_wait_us) or self.max_wait_us < 0:
            raise ValueError(
                f"max_wait_us must be finite and >= 0, got {self.max_wait_us}"
            )
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; expected one of "
                f"{SCHEDULERS}"
            )
        if self.iteration_cost is not None and not isinstance(
            self.iteration_cost, IterationCost
        ):
            raise ValueError(
                "iteration_cost must be an IterationCost or None, got "
                f"{self.iteration_cost!r}"
            )
        if self.num_cores < 1:
            raise ValueError(f"num_cores must be >= 1, got {self.num_cores}")
        if self.shard_axis not in SHARD_AXES:
            raise ValueError(
                f"unknown shard_axis {self.shard_axis!r}; expected one of "
                f"{SHARD_AXES}"
            )
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")
        if self.kv_capacity_bytes is not None and self.kv_capacity_bytes < 0:
            raise ValueError(
                f"kv_capacity_bytes must be >= 0, got {self.kv_capacity_bytes}"
            )
        if self.kv_bits < 1:
            raise ValueError(f"kv_bits must be >= 1, got {self.kv_bits}")

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
        kwargs = fields_from_dict(cls, data)
        cost = kwargs.get("iteration_cost")
        if isinstance(cost, dict):
            kwargs["iteration_cost"] = IterationCost(
                **fields_from_dict(IterationCost, cost)
            )
        return cls(**kwargs)
