"""Workload energy model (Eq. 11) with the paper's breakdown categories.

For every GEMM the model charges:

* **operand encoding** — DAC + MZM energy per encoded scalar, with the
  crossbar's intra-core sharing (Eq. 6) and the architecture-level
  inter-core broadcast reducing the counts;
* **detection** — photodiode pairs per DDot output plus TIAs after the
  (optional) intra-tile analog summation point;
* **A/D conversion** — one conversion per summation point per
  ``temporal_accumulation_depth`` cycles;
* **laser and locking** — continuous powers integrated over the op's
  wall-clock time;
* **data movement** — HBM weight streaming, SRAM staging, DAC feeds and
  output/partial-sum traffic through the memory hierarchy;
* **static** — digital processing and SRAM leakage over wall time.

Categories follow Fig. 11/12: the *op1* operand is the one tiled across
tiles (the weight matrix for linear layers, Q for attention); *op2* is
the operand shared via broadcast (activations / K^T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.arch.config import AcceleratorConfig
from repro.arch.latency import gemm_cycles, gemm_tile_count, workload_latency
from repro.arch.memory import MemorySystem
from repro.arch.power import DIGITAL_POWER_BASE, DIGITAL_POWER_PER_TILE, laser_power
from repro.devices.scaling import adc_energy_per_conversion, dac_energy_per_conversion
from repro.workloads.gemm import GEMMOp

CAT_LASER = "laser"
CAT_OP1_MOD = "op1-mod"
CAT_OP1_DAC = "op1-dac"
CAT_OP2_MOD = "op2-mod"
CAT_OP2_DAC = "op2-dac"
CAT_DETECTION = "det"
CAT_ADC = "adc"
CAT_DATA_MOVEMENT = "data-movement"
CAT_STATIC = "static"

CATEGORIES = (
    CAT_LASER,
    CAT_OP1_MOD,
    CAT_OP1_DAC,
    CAT_OP2_MOD,
    CAT_OP2_DAC,
    CAT_DETECTION,
    CAT_ADC,
    CAT_DATA_MOVEMENT,
    CAT_STATIC,
)


@dataclass
class EnergyReport:
    """Energy (J) per breakdown category."""

    by_category: dict[str, float] = field(
        default_factory=lambda: {cat: 0.0 for cat in CATEGORIES}
    )

    def add(self, category: str, joules: float) -> None:
        if category not in self.by_category:
            raise KeyError(f"unknown energy category {category!r}")
        if joules < 0:
            raise ValueError(f"energy must be >= 0, got {joules}")
        self.by_category[category] += joules

    def __add__(self, other: "EnergyReport") -> "EnergyReport":
        merged = EnergyReport()
        for cat in CATEGORIES:
            merged.by_category[cat] = self.by_category.get(
                cat, 0.0
            ) + other.by_category.get(cat, 0.0)
        return merged

    @property
    def total(self) -> float:
        return sum(self.by_category.values())

    @property
    def encoding(self) -> float:
        """All operand encoding energy (both operands, DAC + modulation)."""
        return sum(
            self.by_category[cat]
            for cat in (CAT_OP1_MOD, CAT_OP1_DAC, CAT_OP2_MOD, CAT_OP2_DAC)
        )

    def fraction(self, category: str) -> float:
        return self.by_category[category] / self.total

    def normalized_to(self, reference: float) -> dict[str, float]:
        """Per-category values divided by a reference total (for the
        normalized stacked bars of Fig. 11/12)."""
        if reference <= 0:
            raise ValueError("reference energy must be positive")
        return {cat: val / reference for cat, val in self.by_category.items()}


class LTEnergyModel:
    """Energy model of a Lightening-Transformer configuration."""

    def __init__(self, config: AcceleratorConfig) -> None:
        self.config = config
        self.memory = MemorySystem(config)
        lib = config.library
        self._e_dac = dac_energy_per_conversion(config.bits, config.clock, lib.dac)
        self._e_mzm = lib.mzm.tuning_power / config.clock
        self._e_pd_pair = 2.0 * lib.photodetector.power / config.clock
        self._e_tia = lib.tia.power / config.clock
        self._e_adc = adc_energy_per_conversion(config.bits, lib.adc)
        self._p_laser = laser_power(config)
        self._p_locking = config.n_microdisks * lib.microdisk.locking_power
        self._p_static = (
            DIGITAL_POWER_PER_TILE * config.n_tiles
            + DIGITAL_POWER_BASE
            + self.memory.total_leakage
        )
        self._element_bytes = config.bits / 8.0

    # -- encoding counts ---------------------------------------------------
    def encoding_counts(self, op: GEMMOp) -> tuple[float, float]:
        """(op1, op2) scalar encoding counts for one GEMM op.

        Following the Fig. 5 mapping, op1 is the M1 operand — tiled
        along its larger tile dimension and dealt spatially to tiles —
        and op2 is the M2 operand broadcast to all of them.  For the
        paper's workloads op1 coincides with the weight matrix on
        linear layers and with Q on attention.  Crossbar sharing and
        the inter-core broadcast reduce the respective counts.
        """
        geometry = self.config.geometry
        opt = self.config.optimizations
        tiles_m, tiles_d, tiles_n = geometry.tile_counts(op.m, op.k, op.n)
        tiles = tiles_m * tiles_d * tiles_n * op.count

        a_encodes = float(tiles * geometry.n_h * geometry.n_lambda)
        b_encodes = float(tiles * geometry.n_lambda * geometry.n_v)

        # The operand with more tile blocks is dealt across tiles (M1);
        # the other is common to all tiles and broadcast (M2).
        a_is_spatial = tiles_m >= tiles_n
        if a_is_spatial:
            op1_encodes, op2_encodes = a_encodes, b_encodes
            spatial_tiles = tiles_m * op.count
            crossbar_blowup = geometry.n_v
        else:
            op1_encodes, op2_encodes = b_encodes, a_encodes
            spatial_tiles = tiles_n * op.count
            crossbar_blowup = geometry.n_h

        if not opt.crossbar_operand_sharing:
            # Input-broadcast-only topology: the tile-stationary operand
            # is modulated separately for every DDot in the crossbar.
            op1_encodes *= crossbar_blowup

        if opt.inter_core_broadcast:
            # The same M2 chunk serves the M1 chunks mapped to different
            # tiles concurrently: modulation happens once per group.
            op2_encodes /= min(self.config.n_tiles, max(1, spatial_tiles))

        return op1_encodes, op2_encodes

    # -- per-op energy ---------------------------------------------------
    def gemm_energy(self, op: GEMMOp) -> EnergyReport:
        """Energy of one GEMM op, split by category."""
        config = self.config
        geometry = config.geometry
        opt = config.optimizations
        report = EnergyReport()

        tiles = gemm_tile_count(config, op)
        wall_time = gemm_cycles(config, op) * config.cycle_time

        op1_encodes, op2_encodes = self.encoding_counts(op)
        report.add(CAT_OP1_DAC, op1_encodes * self._e_dac)
        report.add(CAT_OP1_MOD, op1_encodes * self._e_mzm)
        report.add(CAT_OP2_DAC, op2_encodes * self._e_dac)
        report.add(CAT_OP2_MOD, op2_encodes * self._e_mzm)

        # Microdisk locking keeps the WDM MUX/DEMUX on resonance for the
        # whole run; split between the operand planes by waveguide share.
        locking = self._p_locking * wall_time
        m1_share = config.m1_waveguides / config.n_modulated_waveguides
        report.add(CAT_OP1_MOD, locking * m1_share)
        report.add(CAT_OP2_MOD, locking * (1.0 - m1_share))

        detections = tiles * geometry.n_ddots
        summation = config.outputs_per_summation_point
        tia_events = detections / summation
        adc_events = tia_events / opt.effective_accumulation_depth
        report.add(
            CAT_DETECTION, detections * self._e_pd_pair + tia_events * self._e_tia
        )
        report.add(CAT_ADC, adc_events * self._e_adc)

        report.add(CAT_LASER, self._p_laser * wall_time)
        report.add(CAT_STATIC, self._p_static * wall_time)
        report.add(CAT_DATA_MOVEMENT, self._data_movement(op, op1_encodes, op2_encodes))
        return report

    def _data_movement(
        self, op: GEMMOp, op1_encodes: float, op2_encodes: float
    ) -> float:
        config = self.config
        bytes_per = self._element_bytes
        memory = self.memory

        # Weights stream from HBM once per inference (double buffered).
        energy = memory.hbm.access_energy(op.static_weight_elements * bytes_per)
        # Operands staged global SRAM -> tile SRAM once.
        staged = (op.operand_a_elements + op.operand_b_elements) * bytes_per
        energy += staged * memory.staging_energy_per_byte
        # Every encoding event reads its operand byte from the core buffer.
        energy += (op1_encodes + op2_encodes) * bytes_per * (
            memory.operand_feed_energy_per_byte
        )
        # Outputs: digital partial-sum accumulation and final store.
        _, tiles_d, _ = config.geometry.tile_counts(op.m, op.k, op.n)
        digital_accums = math.ceil(
            tiles_d / config.optimizations.effective_accumulation_depth
        )
        accum_traffic = op.output_elements * bytes_per * 2.0 * digital_accums
        energy += accum_traffic * memory.operand_feed_energy_per_byte
        # Cross-core partial-sum accumulation (contraction sharding):
        # merging the k_splits per-core partials costs one read + one
        # write of the output word per digital add (Sec. IV dataflow).
        if op.k_splits > 1:
            cross_core_traffic = op.accumulation_adds * bytes_per * 2.0
            energy += cross_core_traffic * memory.operand_feed_energy_per_byte
        energy += op.output_elements * bytes_per * memory.output_store_energy_per_byte
        return energy

    # -- workload-level ----------------------------------------------------
    def workload_energy(self, ops: Iterable[GEMMOp]) -> EnergyReport:
        """Total energy of a GEMM trace."""
        report = EnergyReport()
        for op in ops:
            report = report + self.gemm_energy(op)
        return report

    def workload_edp(self, ops: Iterable[GEMMOp]) -> float:
        """Energy-delay product (J*s) of a GEMM trace."""
        ops = list(ops)
        return self.workload_energy(ops).total * workload_latency(self.config, ops)
