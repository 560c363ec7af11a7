"""Regenerate EXPERIMENTS.md: paper-reported vs measured for every result.

Run it as ``repro report [--skip-accuracy] [--output PATH]``.  The
accuracy section trains two small reference models (about a minute on a
laptop CPU); ``--skip-accuracy`` regenerates only the architecture
results (a few seconds).
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import accuracy as acc
from repro.analysis import experiments as exp
from repro.analysis.scorecard import Claim, accuracy_claims, default_claims, run_scorecard
from repro.analysis.tables import render_markdown_table


def _section(title: str, body: str) -> str:
    return f"\n## {title}\n\n{body}\n"


def _scorecard_table(claims: list[Claim]) -> str:
    return render_markdown_table([result.as_row() for result in run_scorecard(claims)])


def architecture_sections() -> list[str]:
    sections = []

    sections.append(
        _section(
            "Reproduction scorecard",
            "Every model-based claim, checked programmatically "
            "(`repro verify`).\n\n" + _scorecard_table(default_claims()),
        )
    )

    fig3 = exp.fig3_dispersion()
    sections.append(
        _section(
            "Fig. 3 — WDM dispersion of the DDot design point",
            f"Paper: max kappa deviation ~1.8 %, max phase deviation ~0.28 deg "
            f"over 25 channels.\n\nMeasured: max kappa deviation "
            f"**{fig3['max_kappa_deviation_pct']:.2f} %**, max phase deviation "
            f"**{fig3['max_phase_deviation_deg']:.3f} deg**.",
        )
    )

    eq10 = exp.wavelength_scaling_summary()
    sections.append(
        _section(
            "Eq. 10 — FSR-limited wavelength scaling",
            f"Paper: window 1527.88-1572.76 nm, up to 112 wavelengths.\n\n"
            f"Measured: window {eq10['lambda_min_nm']:.2f}-"
            f"{eq10['lambda_max_nm']:.2f} nm, "
            f"**{eq10['max_wavelengths']} wavelengths**.",
        )
    )

    sections.append(
        _section(
            "Table IV — configurations",
            "Paper: LT-B 60.3 mm^2, LT-L 112.82 mm^2.\n\n"
            + render_markdown_table(exp.table4_configs()),
        )
    )

    sections.append(
        _section(
            "Fig. 7 — area breakdown",
            "Paper: photonic core ~20 %, memory ~25 %, DAC ~25 %, rest <30 %.\n\n"
            + render_markdown_table(exp.fig7_area_breakdown()),
        )
    )

    sections.append(
        _section(
            "Fig. 8 — power breakdown",
            "Paper: LT-B 14.75 W (4-bit) / 50.94 W (8-bit); "
            "LT-L 28.06 W / 95.92 W; 8-bit DACs >50 % of power; laser "
            "0.77 W -> 12.3 W.\n\n"
            + render_markdown_table(exp.fig8_power_breakdown()),
        )
    )

    sections.append(
        _section(
            "Fig. 9 — single-core scaling",
            "Paper: area 5.9 -> 49.3 mm^2, power 1.1 -> 17 W, latency "
            "47 -> 106.4 ps for core sizes 8 -> 32.\n\n"
            + render_markdown_table(exp.fig9_core_scaling()),
        )
    )

    sections.append(
        _section(
            "Fig. 10 — performance/efficiency scaling (optical part)",
            "Paper: TOPS, TOPS/W, TOPS/mm^2 increase with core size; "
            "TOPS/W/mm^2 decreases (ADC/DAC bottleneck).\n\n"
            + render_markdown_table(exp.fig10_efficiency_scaling()),
        )
    )

    fig11 = exp.fig11_energy_comparison()
    fig11_rows = [
        {"workload": workload, **row}
        for workload, rows in fig11.items()
        for row in rows
    ]
    sections.append(
        _section(
            "Fig. 11 — energy vs prior PTCs (no arch-level opts)",
            "Paper: attention MRR = 2.62x LT-crossbar-B; linear MRR = 2.40x, "
            "MZI = 3.54x.\n\n"
            + render_markdown_table(
                fig11_rows,
                columns=["workload", "design", "normalized_total", "laser",
                         "op1-mod", "op1-dac", "op2-mod", "op2-dac", "det",
                         "adc", "data-movement", "static"],
            ),
        )
    )

    fig12 = exp.fig12_variant_ablation()
    fig12_rows = [
        {"workload": workload, **row}
        for workload, rows in fig12.items()
        for row in rows
    ]
    sections.append(
        _section(
            "Fig. 12 — LT variant ablation",
            "Paper (attention): MRR 5.05, LT-broadcast-B 5.69, "
            "LT-crossbar-B 1.91, LT-B 1. Paper (linear): 4.47 / 5.92 / 1.87 / 1."
            "\n\n"
            + render_markdown_table(
                fig12_rows,
                columns=["workload", "design", "normalized_total", "laser",
                         "op1-mod", "op1-dac", "op2-mod", "op2-dac", "det",
                         "adc", "data-movement", "static"],
            ),
        )
    )

    for bits in (4, 8):
        ratios = exp.table5_average_ratios(bits)
        paper = (
            "Paper 4-bit average ratios: MZI 8.01x / 677.56x / 5426x; "
            "MRR 4.03x / 12.85x / 51.79x; LT w/o opt 1.80x."
            if bits == 4
            else "Paper 8-bit average ratios: MZI 32.46x / 675.67x / 21944x; "
            "MRR 2.67x / 12.81x / 34.25x; LT w/o opt 1.61x."
        )
        ratio_text = (
            f"Measured: MZI {ratios['mzi_energy']:.2f}x energy / "
            f"{ratios['mzi_latency']:.0f}x latency / {ratios['mzi_edp']:.0f}x EDP; "
            f"MRR {ratios['mrr_energy']:.2f}x / {ratios['mrr_latency']:.1f}x / "
            f"{ratios['mrr_edp']:.1f}x; LT w/o opt "
            f"{ratios['lt_no_opt_energy']:.2f}x."
        )
        sections.append(
            _section(
                f"Table V — photonic accelerator comparison ({bits}-bit)",
                paper
                + "\n\n"
                + ratio_text
                + "\n\n"
                + render_markdown_table(exp.table5_photonic_comparison(bits)),
            )
        )

    sections.append(
        _section(
            "Fig. 13 — cross-platform comparison",
            "Paper: lowest energy (>300x vs CPU, ~6.6x vs GPU, ~18x vs Edge "
            "TPU, ~20x vs FPGA DSAs) and highest FPS on every workload; "
            "2-3 orders of magnitude lower EDP.\n\n"
            + render_markdown_table(exp.fig13_cross_platform()),
        )
    )

    sections.append(
        _section(
            "Fig. 16 / Sec. VI-A — block-sparse attention on DPTC",
            "Window-local attention blockified into dense chunks; savings "
            "grow as the window narrows.\n\n"
            + render_markdown_table(exp.fig16_sparse_attention()),
        )
    )
    sections.extend(extension_sections())
    return sections


def extension_sections() -> list[str]:
    from repro.analysis.llm import analyze_decode
    from repro.arch import lt_base, pipeline_report
    from repro.core import DPTCGeometry, dispersion_error_reduction
    from repro.workloads import deit_tiny, gpt2_small

    sections = []

    decode_rows = []
    for context in (128, 512, 2048):
        analysis = analyze_decode(lt_base(8), gpt2_small(), context)
        decode_rows.append(
            {
                "context": context,
                "ai_flops_per_byte": analysis.arithmetic_intensity,
                "memory_bound": analysis.memory_bound,
                "compute_util_pct": 100 * analysis.compute_utilization,
            }
        )
    sections.append(
        _section(
            "Sec. VI-B — LLM decode roofline (extension)",
            "Paper (discussion): autoregressive decode is memory-bound and "
            "under-utilises the photonic compute.\n\n"
            + render_markdown_table(decode_rows),
        )
    )

    plain, calibrated = dispersion_error_reduction(DPTCGeometry())
    sections.append(
        _section(
            "Dispersion calibration (extension)",
            "Paper Sec. V-E: 'more advanced noise-mitigation techniques can "
            "be applied'.  Inverting the deterministic Eq. 9 terms reduces "
            f"the dispersion-only matmul error from **{plain:.2e}** to "
            f"**{calibrated:.2e}**.",
        )
    )

    report = pipeline_report(deit_tiny(), lt_base(4))
    sections.append(
        _section(
            "Photonic/digital pipelining (extension)",
            "Paper: deep pipelining 'can be employed to further improve the "
            "system performance'.  On DeiT-T the non-GEMM digital work "
            f"({report.digital_time * 1e3:.3g} ms) overlaps the photonic "
            f"GEMMs ({report.gemm_time * 1e3:.3g} ms) in steady state; only "
            "the last layer's digital drain "
            f"({(report.pipelined_latency - report.gemm_time) * 1e6:.3g} us) "
            "stays exposed.  Pipelining speeds up sequential execution by "
            f"**{report.speedup:.2f}x** and validates Table V's GEMM-only "
            "latency accounting.",
        )
    )
    return sections


def accuracy_sections() -> list[str]:
    sections = [
        _section(
            "Accuracy scorecard (Figs. 14/15)",
            "The claims that need the trained reference models.\n\n"
            + _scorecard_table(accuracy_claims()),
        )
    ]

    fig6 = acc.fig6_ddot_error()
    sections.append(
        _section(
            "Fig. 6 — circuit-level DDot validation",
            "Paper: mean relative error 2.6 % (4-bit) and 3.4 % (8-bit) for "
            "random length-12 dot products (input noise 0.03, phase noise "
            "2 deg, dispersion on).\n\n" + render_markdown_table(fig6),
        )
    )

    fig14 = acc.fig14_wavelength_robustness()
    sections.append(
        _section(
            "Fig. 14 — dispersion robustness (accuracy vs wavelengths)",
            "Paper: <0.5 % accuracy drop up to 26 wavelengths, <1 % vs GPU "
            "reference. Substituted workloads: synthetic vision/token tasks "
            "(see the `repro.analysis.accuracy` docstring).\n\n"
            + render_markdown_table(fig14),
        )
    )

    fig15 = acc.fig15_noise_robustness()
    sections.append(
        _section(
            "Fig. 15 — encoding-noise robustness",
            "Paper: <0.5 % accuracy degradation across magnitude noise "
            "0.02-0.08 and phase noise 1-7 deg.\n\n"
            + render_markdown_table(fig15),
        )
    )
    return sections


HEADER = """# EXPERIMENTS — paper-reported vs measured

Generated by `repro report`.  Absolute numbers come from this
repository's behavioural models (device parameters from the paper's
Table III); the reproduction targets the paper's *shape* — who wins, by
what factor, where crossovers fall.  The substituted datasets and
circuit simulator are described in the `repro.analysis.accuracy`
docstring.
"""


def generate(output: Path, skip_accuracy: bool = False) -> None:
    sections = architecture_sections()
    if not skip_accuracy:
        sections.extend(accuracy_sections())
    output.write_text(HEADER + "".join(sections))
    print(f"wrote {output} ({output.stat().st_size} bytes)")

