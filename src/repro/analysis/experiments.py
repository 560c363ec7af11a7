"""Experiment runners for the architecture evaluation (one per figure/table).

Every function regenerates the data behind one table or figure of the
paper's evaluation section and returns render-ready row dictionaries
(see :mod:`repro.analysis.tables`).  Accuracy experiments that require
trained models live in :mod:`repro.analysis.accuracy`.
"""

from __future__ import annotations

import numpy as np

from repro.arch import (
    LighteningTransformer,
    LTEnergyModel,
    area_breakdown,
    core_path_latency,
    lt_base,
    lt_broadcast_base,
    lt_crossbar_base,
    lt_large,
    power_breakdown,
    single_core,
    single_core_area_breakdown,
    single_core_power_breakdown,
)
from repro.baselines import (
    MRRAccelerator,
    MZIAccelerator,
    all_platforms,
)
from repro.core import DPTCGeometry
from repro.core.dispersion import dispersion_profile
from repro.optics import WDMGrid
from repro.units import MJ, MM2, MS, NM, PS
from repro.workloads import (
    MODULE_ATTENTION,
    MODULE_FFN,
    PAPER_WORKLOADS,
    GEMMOp,
    WindowAttentionPattern,
    cycle_savings,
    deit_base,
    deit_tiny,
    dense_cycles,
    filter_module,
    gemm_trace,
    sparse_cycles,
)

#: The Fig. 11/12 example workloads: all QK^T products of DeiT-T and the
#: first FFN linear layer of every DeiT-T block.
ATTENTION_EXAMPLE = GEMMOp(
    "deit_t_qkt", 197, 64, 197, module=MODULE_ATTENTION, dynamic=True, count=36
)
LINEAR_EXAMPLE = GEMMOp("deit_t_ffn1", 197, 192, 768, module=MODULE_FFN, count=12)


def fig3_dispersion(n_channels: int = 25) -> dict:
    """Fig. 3: kappa(lambda) and phi(lambda) over the DWDM comb."""
    grid = WDMGrid(n_channels)
    profile = dispersion_profile(grid)
    rows = [
        {
            "wavelength_nm": wavelength / NM,
            "kappa": kappa,
            "phase_deg": np.degrees(phase),
        }
        for wavelength, kappa, phase in zip(
            grid.wavelengths, profile.kappa, profile.phase
        )
    ]
    return {
        "rows": rows,
        "max_kappa_deviation_pct": 100 * profile.max_kappa_deviation(),
        "max_phase_deviation_deg": profile.max_phase_deviation_deg(),
    }


def table4_configs() -> list[dict]:
    """Table IV: LT-B / LT-L configurations and total areas."""
    rows = []
    for config in (lt_base(), lt_large()):
        rows.append(
            {
                "name": config.name,
                "Nt": config.n_tiles,
                "Nc": config.cores_per_tile,
                "Nh": config.geometry.n_h,
                "Nv": config.geometry.n_v,
                "Nlambda": config.geometry.n_lambda,
                "global_sram_MB": config.global_sram_bytes / (1024 * 1024),
                "area_mm2": area_breakdown(config).total_mm2,
                "peak_tops": config.peak_ops / 1e12,
            }
        )
    return rows


def fig7_area_breakdown() -> list[dict]:
    """Fig. 7: per-category area of LT-B and LT-L."""
    rows = []
    for config in (lt_base(), lt_large()):
        breakdown = area_breakdown(config)
        for category, area in breakdown.as_mm2().items():
            rows.append(
                {
                    "config": config.name,
                    "category": category,
                    "area_mm2": area,
                    "share_pct": 100 * breakdown.fraction(category),
                }
            )
    return rows


def fig8_power_breakdown() -> list[dict]:
    """Fig. 8: per-category power at 4-bit and 8-bit precision."""
    rows = []
    for base in (lt_base, lt_large):
        for bits in (4, 8):
            config = base(bits)
            breakdown = power_breakdown(config)
            for category, power in breakdown.by_category.items():
                rows.append(
                    {
                        "config": config.name,
                        "bits": bits,
                        "category": category,
                        "power_w": power,
                        "share_pct": 100 * breakdown.fraction(category),
                    }
                )
    return rows


def fig9_core_scaling(
    sizes: tuple[int, ...] = (8, 12, 14, 16, 18, 20, 22, 24, 32),
) -> list[dict]:
    """Fig. 9: single-core area / power / path latency vs core size."""
    rows = []
    for size in sizes:
        config = single_core(size)
        latency = core_path_latency(size)
        rows.append(
            {
                "core_size": size,
                "area_mm2": single_core_area_breakdown(config).total_mm2,
                "power_w": single_core_power_breakdown(config).total,
                "latency_ps": latency.total_ps,
                "optics_ps": latency.optics / PS,
                "eo_oe_ps": latency.eo_oe / PS,
            }
        )
    return rows


def fig10_efficiency_scaling(
    sizes: tuple[int, ...] = (8, 16, 24, 32, 40, 48, 56),
) -> list[dict]:
    """Fig. 10: TOPS, TOPS/W, TOPS/mm^2, TOPS/W/mm^2 vs core size.

    TOPS/W and TOPS/mm^2 use the optical computing part only (ADC/DAC
    excluded, as the paper's caption states); the per-unit-area energy
    efficiency uses the full core so the converter bottleneck appears
    (the decrease the paper attributes to ADCs and DACs).
    """
    rows = []
    for size in sizes:
        config = single_core(size)
        tops = config.peak_ops / 1e12
        area = single_core_area_breakdown(config)
        power = single_core_power_breakdown(config)
        optical_power = sum(
            power.by_category[cat] for cat in ("modulation", "detection", "laser")
        )
        optical_area = sum(
            area.by_category[cat]
            for cat in ("modulation", "photonic_core", "laser")
        )
        rows.append(
            {
                "core_size": size,
                "tops": tops,
                "tops_per_w": tops / optical_power,
                "tops_per_mm2": tops / (optical_area / MM2),
                "tops_per_w_mm2": tops / power.total / (area.total / MM2),
            }
        )
    return rows


def _normalized_breakdowns(
    accelerators: list[tuple[str, object]], op: GEMMOp
) -> list[dict]:
    """Energy breakdowns normalised to the last accelerator's total."""
    reports = []
    for name, accelerator in accelerators:
        if isinstance(accelerator, LTEnergyModel):
            reports.append((name, accelerator.gemm_energy(op)))
        else:
            reports.append((name, accelerator.op_energy(op)))
    reference = reports[-1][1].total
    rows = []
    for name, report in reports:
        row = {"design": name, "normalized_total": report.total / reference}
        row.update(report.normalized_to(reference))
        rows.append(row)
    return rows


def fig11_energy_comparison() -> dict[str, list[dict]]:
    """Fig. 11: LT-crossbar-B vs MRR (and MZI on linear) breakdowns."""
    crossbar = LTEnergyModel(lt_crossbar_base())
    mrr = MRRAccelerator()
    mzi = MZIAccelerator()
    return {
        "attention": _normalized_breakdowns(
            [("MRR", mrr), ("LT-crossbar-B", crossbar)], ATTENTION_EXAMPLE
        ),
        "linear": _normalized_breakdowns(
            [("MZI", mzi), ("MRR", mrr), ("LT-crossbar-B", crossbar)],
            LINEAR_EXAMPLE,
        ),
    }


def fig12_variant_ablation() -> dict[str, list[dict]]:
    """Fig. 12: MRR vs the three LT variants on both example workloads."""
    designs = [
        ("MRR", MRRAccelerator()),
        ("LT-broadcast-B", LTEnergyModel(lt_broadcast_base())),
        ("LT-crossbar-B", LTEnergyModel(lt_crossbar_base())),
        ("LT-B", LTEnergyModel(lt_base())),
    ]
    return {
        "attention": _normalized_breakdowns(designs, ATTENTION_EXAMPLE),
        "linear": _normalized_breakdowns(designs, LINEAR_EXAMPLE),
    }


def table5_photonic_comparison(bits: int = 4) -> list[dict]:
    """Table V: energy / latency / EDP per module and accelerator."""
    lt = LighteningTransformer(lt_base(bits))
    lt_no_opt = LTEnergyModel(lt_crossbar_base(bits))
    mrr = MRRAccelerator(bits=bits)
    mzi = MZIAccelerator(bits=bits)
    rows = []
    for model in (deit_tiny(), deit_base()):
        trace = gemm_trace(model)
        modules = {
            "MHA": filter_module(trace, MODULE_ATTENTION),
            "FFN": filter_module(trace, MODULE_FFN),
            "All": trace,
        }
        for module_name, ops in modules.items():
            lt_run = lt.run(ops)
            mrr_run = mrr.run(ops)
            mzi_run = mzi.run(ops)
            rows.append(
                {
                    "model": model.name,
                    "module": module_name,
                    "bits": bits,
                    "mzi_energy_mj": mzi_run.energy_joules / MJ,
                    "mzi_latency_ms": mzi_run.latency / MS,
                    "mzi_edp": mzi_run.edp / (MJ * MS),
                    "mrr_energy_mj": mrr_run.energy_joules / MJ,
                    "mrr_latency_ms": mrr_run.latency / MS,
                    "mrr_edp": mrr_run.edp / (MJ * MS),
                    "lt_energy_no_opt_mj": lt_no_opt.workload_energy(ops).total / MJ,
                    "lt_energy_mj": lt_run.energy_joules / MJ,
                    "lt_latency_ms": lt_run.latency / MS,
                    "lt_edp": lt_run.edp / (MJ * MS),
                }
            )
    return rows


def table5_average_ratios(bits: int = 4) -> dict[str, float]:
    """The 'Average Ratio' row of Table V (baseline / LT-B)."""
    rows = table5_photonic_comparison(bits)
    all_rows = [row for row in rows if row["module"] == "All"]

    def mean_ratio(metric: str) -> float:
        return float(
            np.mean([row[f"{metric}"] for row in all_rows])
        )

    mzi_energy = np.mean([r["mzi_energy_mj"] / r["lt_energy_mj"] for r in all_rows])
    mzi_latency = np.mean(
        [r["mzi_latency_ms"] / r["lt_latency_ms"] for r in all_rows]
    )
    mzi_edp = np.mean([r["mzi_edp"] / r["lt_edp"] for r in all_rows])
    mrr_energy = np.mean([r["mrr_energy_mj"] / r["lt_energy_mj"] for r in all_rows])
    mrr_latency = np.mean(
        [r["mrr_latency_ms"] / r["lt_latency_ms"] for r in all_rows]
    )
    mrr_edp = np.mean([r["mrr_edp"] / r["lt_edp"] for r in all_rows])
    no_opt = np.mean(
        [r["lt_energy_no_opt_mj"] / r["lt_energy_mj"] for r in all_rows]
    )
    return {
        "mzi_energy": float(mzi_energy),
        "mzi_latency": float(mzi_latency),
        "mzi_edp": float(mzi_edp),
        "mrr_energy": float(mrr_energy),
        "mrr_latency": float(mrr_latency),
        "mrr_edp": float(mrr_edp),
        "lt_no_opt_energy": float(no_opt),
    }


def fig13_cross_platform(bits: tuple[int, ...] = (4, 8)) -> list[dict]:
    """Fig. 13: energy (mJ) and FPS per workload across platforms."""
    rows = []
    for workload_name, factory in PAPER_WORKLOADS.items():
        workload = factory()
        trace = gemm_trace(workload)
        for platform in all_platforms():
            rows.append(
                {
                    "workload": workload_name,
                    "platform": platform.name,
                    "bits": "amp",
                    "energy_mj": platform.energy(trace) / MJ,
                    "fps": platform.fps(trace),
                }
            )
        for precision in bits:
            for config_factory in (lt_base, lt_large):
                accelerator = LighteningTransformer(config_factory(precision))
                result = accelerator.run(trace)
                rows.append(
                    {
                        "workload": workload_name,
                        "platform": accelerator.config.name,
                        "bits": precision,
                        "energy_mj": result.energy_joules / MJ,
                        "fps": result.fps,
                    }
                )
    return rows


def fig16_sparse_attention(
    n_tokens: int = 196,
    head_dim: int = 64,
    windows: tuple[int, ...] = (3, 7, 13, 25, 49),
    block: int = 12,
) -> list[dict]:
    """Sec. VI-A: blockified window attention savings on DPTC."""
    geometry = DPTCGeometry()
    rows = []
    dense = dense_cycles(n_tokens, head_dim, geometry)
    for window in windows:
        pattern = WindowAttentionPattern(n_tokens, window, block)
        sparse = sparse_cycles(pattern, head_dim, geometry)
        rows.append(
            {
                "window": window,
                "density_pct": 100 * pattern.density(),
                "dense_cycles": dense,
                "sparse_cycles": sparse,
                "cycle_savings": cycle_savings(pattern, head_dim, geometry),
            }
        )
    return rows


def wavelength_scaling_summary() -> dict:
    """Sec. V-B wavelength scaling: the Eq. 10 FSR-limited channel count."""
    from repro.optics import fsr_wavelength_window, max_channels
    from repro.units import THZ

    config = lt_base()
    fsr = config.library.microdisk.fsr
    lower, upper = fsr_wavelength_window(fsr)
    return {
        "fsr_thz": fsr / THZ,
        "lambda_min_nm": lower / NM,
        "lambda_max_nm": upper / NM,
        "max_wavelengths": max_channels(fsr),
    }
