"""Experiment runners and report generation for every table and figure."""

from repro.analysis.accuracy import (
    fig6_ddot_error,
    fig14_wavelength_robustness,
    fig15_noise_robustness,
    reference_bert,
    reference_vit,
)
from repro.analysis.llm import (
    RooflineAnalysis,
    analyze_decode,
    batch_to_saturate,
)
from repro.analysis.scorecard import (
    Claim,
    ClaimResult,
    accuracy_claims,
    all_pass,
    default_claims,
    run_scorecard,
)
from repro.analysis.sensitivity import (
    SensitivityResult,
    sensitivity,
    sensitivity_sweep,
)
from repro.analysis.experiments import (
    ATTENTION_EXAMPLE,
    LINEAR_EXAMPLE,
    fig3_dispersion,
    fig7_area_breakdown,
    fig8_power_breakdown,
    fig9_core_scaling,
    fig10_efficiency_scaling,
    fig11_energy_comparison,
    fig12_variant_ablation,
    fig13_cross_platform,
    fig16_sparse_attention,
    table4_configs,
    table5_average_ratios,
    table5_photonic_comparison,
    wavelength_scaling_summary,
)
from repro.analysis.tables import format_value, render_markdown_table, render_table

__all__ = [
    "ATTENTION_EXAMPLE",
    "Claim",
    "ClaimResult",
    "LINEAR_EXAMPLE",
    "RooflineAnalysis",
    "accuracy_claims",
    "all_pass",
    "default_claims",
    "run_scorecard",
    "SensitivityResult",
    "analyze_decode",
    "batch_to_saturate",
    "fig3_dispersion",
    "sensitivity",
    "sensitivity_sweep",
    "fig6_ddot_error",
    "fig7_area_breakdown",
    "fig8_power_breakdown",
    "fig9_core_scaling",
    "fig10_efficiency_scaling",
    "fig11_energy_comparison",
    "fig12_variant_ablation",
    "fig13_cross_platform",
    "fig14_wavelength_robustness",
    "fig15_noise_robustness",
    "fig16_sparse_attention",
    "format_value",
    "reference_bert",
    "reference_vit",
    "render_markdown_table",
    "render_table",
    "table4_configs",
    "table5_average_ratios",
    "table5_photonic_comparison",
    "wavelength_scaling_summary",
]
