"""Top-level accelerator facade: one object, every evaluation quantity.

:class:`LighteningTransformer` binds a configuration to the area,
power, latency, and energy models plus a functional (noisy) execution
path, and returns :class:`RunResult` records with the metrics the
paper's tables report (energy, latency, EDP, FPS).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.arch.area import AreaBreakdown, area_breakdown
from repro.arch.config import AcceleratorConfig, lt_base
from repro.arch.dataflow import os_dataflow_matmul
from repro.arch.energy import EnergyReport, LTEnergyModel
from repro.arch.latency import workload_cycles, workload_latency
from repro.arch.power import PowerBreakdown, power_breakdown
from repro.core.dptc import DPTC
from repro.core.noise import NoiseModel
from repro.core.sharding import ShardedDPTC
from repro.workloads.gemm import GEMMOp
from repro.workloads.transformer import TransformerConfig, gemm_trace


@dataclass(frozen=True)
class RunResult:
    """Metrics of one workload execution."""

    workload: str
    cycles: int
    latency: float  #: s
    energy: EnergyReport

    @property
    def energy_joules(self) -> float:
        return self.energy.total

    @property
    def edp(self) -> float:
        """Energy-delay product (J*s)."""
        return self.energy.total * self.latency

    @property
    def fps(self) -> float:
        """Single-batch inferences per second."""
        return 1.0 / self.latency


class LighteningTransformer:
    """A Lightening-Transformer accelerator instance.

    Args:
        config: architecture configuration (defaults to LT-B).
        noise: non-ideality bundle for functional execution (defaults
            to exact arithmetic; performance models are unaffected).
        num_cores: DPTC cores the functional :meth:`matmul` shards a
            batched product over.  ``None`` keeps the single logical
            core; pass ``config.n_cores`` to execute on the full grid
            the performance models already assume.  Ideal-path results
            are bit-identical at every core count.
        shard_axis: how the functional grid splits a product —
            ``"batch"`` (leading batch axis, concatenated shards) or
            ``"contraction"`` (per-core K-slabs with digital
            partial-sum accumulation after photodetection, the Sec. IV
            dataflow).
    """

    def __init__(
        self,
        config: AcceleratorConfig | None = None,
        noise: NoiseModel | None = None,
        num_cores: int | None = None,
        shard_axis: str = "batch",
    ) -> None:
        self.config = config if config is not None else lt_base()
        self.noise = noise if noise is not None else NoiseModel.ideal()
        self.energy_model = LTEnergyModel(self.config)
        self.num_cores = 1 if num_cores is None else num_cores
        self.shard_axis = shard_axis
        if self.num_cores == 1 and shard_axis == "batch":
            self._dptc = DPTC(self.config.geometry, self.noise)
        else:
            # ShardedDPTC validates shard_axis; num_cores == 1
            # with non-default knobs still degenerates to the plain
            # batched engine, just through the sharded front-end.
            self._dptc = ShardedDPTC(
                num_cores=self.num_cores,
                geometry=self.config.geometry,
                noise=self.noise,
                shard_axis=shard_axis,
            )

    # -- static design metrics ----------------------------------------------
    def area(self) -> AreaBreakdown:
        """Chip area breakdown (Fig. 7)."""
        return area_breakdown(self.config)

    def power(self) -> PowerBreakdown:
        """Chip power breakdown (Fig. 8)."""
        return power_breakdown(self.config)

    @property
    def peak_tops(self) -> float:
        """Peak tera-operations per second."""
        return self.config.peak_ops / 1e12

    # -- workload execution (performance models) -----------------------------
    def run(self, workload: TransformerConfig | Iterable[GEMMOp]) -> RunResult:
        """Evaluate latency and energy of a Transformer or GEMM trace."""
        if isinstance(workload, TransformerConfig):
            name = workload.name
            ops = gemm_trace(workload)
        else:
            ops = list(workload)
            name = ops[0].name if len(ops) == 1 else f"trace[{len(ops)} ops]"
        return RunResult(
            workload=name,
            cycles=workload_cycles(self.config, ops),
            latency=workload_latency(self.config, ops),
            energy=self.energy_model.workload_energy(ops),
        )

    # -- functional execution -------------------------------------------------
    def matmul(
        self,
        a: np.ndarray,
        b: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Numerically execute ``a @ b`` on the (noisy) photonic cores."""
        return self._dptc.matmul(a, b, rng=rng)

    def matmul_through_dataflow(
        self,
        a: np.ndarray,
        b: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Execute ``a @ b`` through the explicit OS-dataflow schedule.

        Slower than :meth:`matmul` but exercises the exact tiling,
        analog accumulation windows, and digital accumulation path.
        """
        if self.noise.is_ideal:
            tile = None
        else:
            def tile(x: np.ndarray, y: np.ndarray) -> np.ndarray:
                return self._dptc.tile_matmul(x, y, rng=rng)

        return os_dataflow_matmul(self.config, a, b, tile)
