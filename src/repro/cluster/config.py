"""Frozen cluster configuration (fleet knobs + embedded engine config).

:class:`ClusterConfig` is the cluster-level counterpart of
:class:`~repro.serving.config.EngineConfig`: fleet size, routing
policy, retry/drain behaviour, the virtual-time service model (an
:class:`~repro.serving.scheduler.IterationCost`), and the shared cache
tier's knobs, with one ``engine`` sub-config applied to every replica.
It is the only way to set those knobs on
:class:`~repro.cluster.cluster.ServingCluster`, and the ``repro
cluster-bench`` CLI reads the same form via ``--config`` JSON.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.cluster.router import POLICIES
from repro.serving.config import EngineConfig, fields_from_dict
from repro.serving.scheduler import IterationCost


@dataclass(frozen=True)
class ClusterConfig:
    """Everything a serving cluster is built from.

    Attributes:
        replicas: initial fleet size.
        policy: routing policy registry name (see
            :data:`repro.cluster.router.POLICIES`).
        engine: per-replica :class:`EngineConfig`.
        max_retries: re-dispatches after a non-failover error.
        close_executors: close each servable's photonic executor on
            replica shutdown.
        service_model: virtual per-batch service times charged
            against each replica's ``busy_until`` horizon (manual mode
            only); mutually exclusive with ``engine.iteration_cost``.
        shared_cache: build a fleet-wide
            :class:`~repro.cluster.store.SharedCacheTier` — prompt
            memo hits survive any routing policy, and decode sessions
            can fork shared prefix chains.
        share_prefixes: adopt registered prefixes as shared tier-owned
            chains (pages charged once fleet-wide).  ``False``
            materializes each session's prompt privately in its
            replica's pool — the unshared baseline.
        memo_bytes: memo byte budget.  With ``shared_cache`` it
            bounds the fleet memo (``None`` = unbounded); otherwise it
            buys each replica a *private* memo (``None`` disables
            replica-level memoization — the pre-tier behaviour).
    """

    replicas: int = 2
    policy: str = "round_robin"
    engine: EngineConfig = field(default_factory=EngineConfig)
    max_retries: int = 1
    close_executors: bool = True
    service_model: IterationCost | None = None
    shared_cache: bool = False
    share_prefixes: bool = True
    memo_bytes: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.engine, EngineConfig):
            raise ValueError(f"engine must be an EngineConfig, got {self.engine!r}")
        if self.service_model is not None and not isinstance(
            self.service_model, IterationCost
        ):
            raise ValueError(
                "service_model must be an IterationCost or None, got "
                f"{self.service_model!r}"
            )
        if self.replicas < 1:
            raise ValueError(f"need at least 1 replica, got {self.replicas}")
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown routing policy {self.policy!r}; known: "
                f"{sorted(POLICIES)}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.memo_bytes is not None and self.memo_bytes < 0:
            raise ValueError(f"memo_bytes must be >= 0, got {self.memo_bytes}")
        if self.service_model is not None and self.engine.iteration_cost is not None:
            raise ValueError(
                "pass service_model or engine.iteration_cost, not both "
                "(they are competing virtual-time models)"
            )

    def replace(self, **changes) -> "ClusterConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-serializable form (nested engine / service_model maps)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterConfig":
        """Inverse of :meth:`to_dict`; unknown keys are an error."""
        kwargs = fields_from_dict(cls, data)
        engine = kwargs.get("engine")
        if isinstance(engine, dict):
            kwargs["engine"] = EngineConfig.from_dict(engine)
        model = kwargs.get("service_model")
        if isinstance(model, dict):
            kwargs["service_model"] = IterationCost(
                **fields_from_dict(IterationCost, model)
            )
        return cls(**kwargs)
