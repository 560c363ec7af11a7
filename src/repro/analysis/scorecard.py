"""Reproduction scorecard: the ledger of the paper's claims, checked programmatically.

Each :class:`Claim` records one quantitative statement from the paper
(or from one of this repository's extensions of it), the value this
repository's models measure, and how the two are compared.  This module
is the one place such claims live: :func:`run_scorecard` evaluates them,
``repro verify`` prints the result and ``repro report`` renders it into
EXPERIMENTS.md.

Claims are grouped by how they are compared:

* ``exact``    — dimensionless/structural results that must match;
* ``relative`` — absolute numbers expected within a tolerance band;
* ``band``     — ``lo <= measured <= hi``, both edges inclusive and an
  open side at ``±inf``: thresholds, windows, and orderings stated as a
  ratio against 1.  A strict ``> x`` uses :func:`_above` as its edge.

:func:`default_claims` run on the behavioural models in well under a
second.  :func:`accuracy_claims` (Figs. 14/15) first train two small
reference models, which takes tens of seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache
from typing import Callable

import numpy as np

from repro.analysis.accuracy import (
    fig6_ddot_error,
    fig14_wavelength_robustness,
    fig15_noise_robustness,
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
    table5_average_ratios,
    table5_photonic_comparison,
    wavelength_scaling_summary,
)
from repro.analysis.llm import analyze_decode
from repro.analysis.sensitivity import sensitivity
from repro.arch import (
    ArchOptimizations,
    LighteningTransformer,
    LTEnergyModel,
    area_breakdown,
    evaluate_shape,
    laser_power,
    lt_base,
    lt_large,
    search_core_shape,
    workload_latency,
)
from repro.baselines import MRRAccelerator, MZIAccelerator, PCMAccelerator, cpu_i7_9750h
from repro.core import DPTCGeometry, dispersion_error_reduction
from repro.optics import max_channels
from repro.units import MS, THZ
from repro.workloads import (
    MODULE_ATTENTION,
    MODULE_FFN,
    GEMMOp,
    WindowAttentionPattern,
    deit_tiny,
    dense_attention,
    gemm_trace,
    gpt2_small,
    kv_recompute_trace,
    sparse_attention,
)

KINDS = ("exact", "relative", "band")


@dataclass(frozen=True)
class Claim:
    """One checkable claim from the paper."""

    name: str
    paper_value: float
    measure: Callable[[], float]
    kind: str = "relative"  #: one of :data:`KINDS`
    tolerance: float = 0.10  #: relative tolerance for "relative" kind
    lo: float = -math.inf  #: inclusive lower edge for "band" kind
    hi: float = math.inf  #: inclusive upper edge for "band" kind

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown claim kind {self.kind!r}")
        if not self.lo <= self.hi:
            raise ValueError(f"claim {self.name!r}: empty band [{self.lo}, {self.hi}]")

    @property
    def bound(self) -> str:
        """The pass condition in words, for tables."""
        if self.kind == "exact":
            return "exact"
        if self.kind == "relative":
            return f"±{self.tolerance * 100:g} %"
        return f"[{self.lo:g}, {self.hi:g}]"

    def evaluate(self) -> "ClaimResult":
        measured = float(self.measure())
        if self.kind == "exact":
            passed = measured == self.paper_value
        elif self.kind == "relative":
            passed = (
                abs(measured - self.paper_value)
                <= self.tolerance * abs(self.paper_value)
            )
        else:  # NaN fails both comparisons
            passed = self.lo <= measured <= self.hi
        return ClaimResult(self, measured, passed)


@dataclass(frozen=True)
class ClaimResult:
    claim: Claim
    measured: float
    passed: bool

    def as_row(self) -> dict:
        return {
            "claim": self.claim.name,
            "paper": self.claim.paper_value,
            "measured": self.measured,
            "kind": self.claim.kind,
            "bound": self.claim.bound,
            "pass": self.passed,
        }


def _above(x: float) -> float:
    """The smallest float above ``x``: the band edge of a strict ``> x``."""
    return math.nextafter(x, math.inf)


def _below(x: float) -> float:
    """The largest float below ``x``: the band edge of a strict ``< x``."""
    return math.nextafter(x, -math.inf)


# The measurements below are pure functions of the models; each runner is
# cached so that one scorecard run computes it once for all its claims.

@cache
def _fig6() -> dict[int, float]:
    return {r["bits"]: r["mean_error_pct"] for r in fig6_ddot_error(n_trials=800, seed=0)}


@cache
def _fig7_lt_b() -> dict[str, float]:
    return {r["category"]: r["share_pct"] for r in fig7_area_breakdown() if r["config"] == "LT-B"}


@cache
def _fig8() -> dict[tuple[str, int, str], dict]:
    return {(r["config"], r["bits"], r["category"]): r for r in fig8_power_breakdown()}


def _fig8_total(config: str, bits: int) -> float:
    return sum(r["power_w"] for (c, b, _), r in _fig8().items() if (c, b) == (config, bits))


@cache
def _fig9() -> dict[int, dict]:
    return {r["core_size"]: r for r in fig9_core_scaling()}


def _fig10_end_ratio(column: str) -> float:
    rows = fig10_efficiency_scaling()
    return rows[-1][column] / rows[0][column]


@cache
def _fig11() -> dict[tuple[str, str], dict]:
    return {(w, r["design"]): r for w, rows in fig11_energy_comparison().items() for r in rows}


@cache
def _fig12() -> dict[tuple[str, str], float]:
    return {
        (w, r["design"]): r["normalized_total"]
        for w, rows in fig12_variant_ablation().items()
        for r in rows
    }


@cache
def _table1() -> dict[tuple[str, str], tuple[float, float]]:
    """(workload, design) -> (energy, latency) of MZI/PCM/MRR over LT-B's DPTC."""
    lt = LighteningTransformer(lt_base(4))
    designs = {"MZI": MZIAccelerator(bits=4), "PCM": PCMAccelerator(bits=4),
               "MRR": MRRAccelerator(bits=4)}
    ratios = {}
    for workload, op in (("attention", ATTENTION_EXAMPLE), ("linear", LINEAR_EXAMPLE)):
        reference = lt.run([op])
        for name, accelerator in designs.items():
            run = accelerator.run([op])
            ratios[workload, name] = (
                run.energy_joules / reference.energy_joules,
                run.latency / reference.latency,
            )
    return ratios


@cache
def _table5() -> dict[tuple[str, str], dict]:
    return {(r["model"], r["module"]): r for r in table5_photonic_comparison(4)}


@cache
def _ratios(bits: int) -> dict[str, float]:
    return table5_average_ratios(bits)


def _cpu_energy_ratio() -> float:
    trace = gemm_trace(deit_tiny())
    lt = LighteningTransformer(lt_base(4)).run(trace)
    return cpu_i7_9750h().energy(trace) / lt.energy_joules


@cache
def _accumulation_sweep() -> list[tuple[float, float]]:
    """(ADC energy, total energy) on DeiT-T for accumulation depths 1..12."""
    trace = gemm_trace(deit_tiny())
    rows = []
    for depth in (1, 2, 3, 6, 12):
        opts = ArchOptimizations(
            analog_temporal_accumulation=depth > 1, temporal_accumulation_depth=depth
        )
        energy = LTEnergyModel(lt_base(4).with_optimizations(opts)).workload_energy(trace)
        rows.append((energy.by_category["adc"], energy.total))
    return rows


def _broadcast_saving(n_tiles: int) -> float:
    """op2 encoding energy on DeiT-T without / with inter-core broadcast."""
    trace = gemm_trace(deit_tiny())
    op2 = []
    for broadcast in (False, True):
        opts = ArchOptimizations(inter_core_broadcast=broadcast)
        config = replace(lt_base(4).with_optimizations(opts), n_tiles=n_tiles)
        energy = LTEnergyModel(config).workload_energy(trace).by_category
        op2.append(energy["op2-dac"] + energy["op2-mod"])
    return op2[0] / op2[1]


@cache
def _calibration_sweep() -> list[tuple[float, float]]:
    """(uncalibrated, calibrated) dispersion error for 12..112 wavelengths."""
    return [dispersion_error_reduction(DPTCGeometry(12, 12, n)) for n in (12, 24, 48, 112)]


@cache
def _core_search() -> dict[str, tuple[float, int]]:
    """Workload -> (cycle gain of the searched shape over 12x12x12, its Nh)."""
    workloads = {
        "attention": GEMMOp("qkt", 197, 64, 197, module=MODULE_ATTENTION, dynamic=True, count=36),
        "ffn": GEMMOp("ffn1", 197, 192, 768, module=MODULE_FFN, count=12),
        "vector": GEMMOp("vm", 1, 48, 192, module=MODULE_ATTENTION, dynamic=True, count=256),
    }
    default = DPTCGeometry(12, 12, 12)
    result = {}
    for name, op in workloads.items():
        best = search_core_shape([op], mac_budget=default.macs_per_cycle)
        result[name] = (evaluate_shape(default, [op]).cycles / best.cycles, best.shape[0])
    return result


@cache
def _decode(context: int, batch: int = 1):
    return analyze_decode(lt_base(8), gpt2_small(), context, batch)


def _blockified_attention_error() -> float:
    rng = np.random.default_rng(0)
    q, k, v = (rng.normal(size=(48, 16)) for _ in range(3))
    pattern = WindowAttentionPattern(48, window=7, block=12)
    sparse = sparse_attention(q, k, v, pattern)
    return float(np.max(np.abs(sparse - dense_attention(q, k, v, mask=pattern.mask()))))


def default_claims() -> list[Claim]:
    """The paper's model-based claims in checkable form."""
    contexts = (128, 512, 2048)
    return [
        # Eq. 6 / Eq. 10 / Fig. 3 / Fig. 6: devices and the DDot circuit.
        Claim("Eq.10: FSR-limited wavelength count", 112,
              lambda: max_channels(5.6 * THZ), "exact"),
        Claim("Eq.10: comb lower edge (nm)", 1527.88,
              lambda: wavelength_scaling_summary()["lambda_min_nm"], "band",
              lo=1527.87, hi=1527.89),
        Claim("Eq.6: DPTC encoding-cost saving (12x12 core)", 12.0,
              lambda: DPTCGeometry(12, 12, 12).encoding_saving(), "exact"),
        Claim("Fig.3: max kappa deviation (%)", 1.8,
              lambda: fig3_dispersion()["max_kappa_deviation_pct"], tolerance=0.10),
        Claim("Fig.3: max phase deviation (deg)", 0.28,
              lambda: fig3_dispersion()["max_phase_deviation_deg"], "band", lo=0.26, hi=0.30),
        Claim("Fig.6: DDot mean error, 4-bit (%)", 2.6, lambda: _fig6()[4], "band",
              lo=_above(1.5), hi=_below(6.0)),
        Claim("Fig.6: DDot mean error, 8-bit (%)", 3.4, lambda: _fig6()[8], "band",
              lo=_above(1.5), hi=_below(6.0)),
        # Table IV, Figs. 7-10: area, power and scaling.
        Claim("Table IV: LT-B area (mm^2)", 60.3,
              lambda: area_breakdown(lt_base()).total_mm2, tolerance=0.05),
        Claim("Table IV: LT-L area (mm^2)", 112.82,
              lambda: area_breakdown(lt_large()).total_mm2, tolerance=0.05),
        Claim("Fig.7: LT-B DAC area share (%)", 25.0, lambda: _fig7_lt_b()["dac"], "band",
              lo=_above(20), hi=_below(30)),
        Claim("Fig.7: LT-B memory area share (%)", 25.0, lambda: _fig7_lt_b()["memory"], "band",
              lo=_above(20), hi=_below(30)),
        Claim("Fig.7: LT-B photonic-core area share (%)", 20.0,
              lambda: _fig7_lt_b()["photonic_core"], "band", lo=_above(15), hi=_below(25)),
        Claim("Fig.8: LT-B 4-bit power (W)", 14.75,
              lambda: _fig8_total("LT-B", 4), tolerance=0.05),
        Claim("Fig.8: LT-B 8-bit power (W)", 50.94,
              lambda: _fig8_total("LT-B", 8), tolerance=0.08),
        Claim("Fig.8: LT-L 4-bit power (W)", 28.06,
              lambda: _fig8_total("LT-L", 4), tolerance=0.05),
        Claim("Fig.8: LT-L 8-bit power (W)", 95.92,
              lambda: _fig8_total("LT-L", 8), tolerance=0.08),
        Claim("Fig.8: LT-B 8-bit DAC power share (%)", 50.0,
              lambda: _fig8()["LT-B", 8, "dac"]["share_pct"], "band", lo=_above(45), hi=100),
        Claim("Fig.8: laser power 8-bit/4-bit ratio", 16.0,
              lambda: laser_power(lt_base(8)) / laser_power(lt_base(4)), tolerance=0.02),
        Claim("Fig.9: 32x32 core area (mm^2)", 49.3,
              lambda: _fig9()[32]["area_mm2"], tolerance=0.08),
        Claim("Fig.9: 32x32 core power (W)", 17.0,
              lambda: _fig9()[32]["power_w"], tolerance=0.12),
        Claim("Fig.9: 8x8 core path latency (ps)", 47.0,
              lambda: _fig9()[8]["latency_ps"], tolerance=0.05),
        Claim("Fig.9: 32x32 core path latency (ps)", 106.4,
              lambda: _fig9()[32]["latency_ps"], tolerance=0.05),
        Claim("Fig.9: E-O/O-E latency spread across core sizes (ps)", 0.0,
              lambda: np.ptp([r["eo_oe_ps"] for r in _fig9().values()]), "exact"),
        Claim("Fig.10: TOPS/mm^2 gain, largest over smallest core", 1.0,
              lambda: _fig10_end_ratio("tops_per_mm2"), "band", lo=_above(1.0)),
        # Figs. 11-12 and Table I: energy against prior photonic designs.
        Claim("Fig.11: attention MRR / LT-crossbar-B energy", 2.62,
              lambda: _fig11()["attention", "MRR"]["normalized_total"], tolerance=0.5),
        Claim("Fig.11: linear MRR / LT-crossbar-B energy", 2.40,
              lambda: _fig11()["linear", "MRR"]["normalized_total"], "band", lo=_above(1.5)),
        Claim("Fig.11: MRR operand-locking share of attention energy", 0.25,
              lambda: _fig11()["attention", "MRR"]["op1-mod"]
              / _fig11()["attention", "MRR"]["normalized_total"],
              "band", lo=_above(0.25), hi=1.0),
        Claim("Fig.12: attention MRR / LT-B energy", 5.05,
              lambda: _fig12()["attention", "MRR"], tolerance=0.35),
        Claim("Fig.12: LT-crossbar-B / LT-B energy (min over workloads)", 1.87,
              lambda: min(v for (_, d), v in _fig12().items() if d == "LT-crossbar-B"),
              "band", lo=_above(1.2)),
        Claim("Table I: MZI/PCM/MRR over DPTC energy (min)", 1.0,
              lambda: min(e for e, _ in _table1().values()), "band", lo=_above(1.0)),
        Claim("Table I: MZI/PCM/MRR over DPTC latency (min)", 1.0,
              lambda: min(t for _, t in _table1().values()), "band", lo=_above(1.0)),
        Claim("Table I: PCM latency penalty, attention over linear", 1.0,
              lambda: _table1()["attention", "PCM"][1] / _table1()["linear", "PCM"][1],
              "band", lo=_above(1.0)),
        # Table V and Fig. 13: end-to-end comparisons.
        Claim("Table V: DeiT-T MHA latency on LT-B (ms)", 3.12e-3,
              lambda: _table5()["deit-tiny", "MHA"]["lt_latency_ms"], tolerance=0.02),
        Claim("Table V: DeiT-T latency on LT-B (ms)", 1.94e-2,
              lambda: workload_latency(lt_base(4), gemm_trace(deit_tiny())) / MS,
              tolerance=0.03),
        Claim("Table V: DeiT-T energy on LT-B (mJ)", 0.38,
              lambda: _table5()["deit-tiny", "All"]["lt_energy_mj"], tolerance=0.25),
        Claim("Table V: DeiT-B latency on LT-B (ms)", 2.65e-1,
              lambda: _table5()["deit-base", "All"]["lt_latency_ms"], tolerance=0.03),
        Claim("Table V: MRR energy ratio (avg)", 4.03, lambda: _ratios(4)["mrr_energy"],
              "band", lo=2.42, hi=5.6),
        Claim("Table V: MRR latency ratio (avg)", 12.85, lambda: _ratios(4)["mrr_latency"],
              "band", lo=8.36, hi=17.28),
        Claim("Table V: MZI EDP ratio (avg)", 5426.0, lambda: _ratios(4)["mzi_edp"],
              "band", lo=_above(1e3)),
        Claim("Table V: MRR latency ratio, 8-bit over 4-bit", 1.0,
              lambda: _ratios(8)["mrr_latency"] / _ratios(4)["mrr_latency"], tolerance=0.01),
        Claim("Fig.13: CPU / LT-B energy on DeiT-T", 300.0, _cpu_energy_ratio, "band",
              lo=_above(150.0)),
        # Architecture ablations and extensions (Secs. IV-C, V-E, VI).
        Claim("Sec.IV-C: ADC energy step ratio as accumulation deepens (max)", 1.0,
              lambda: max(b[0] / a[0] for a, b in zip(_accumulation_sweep(),
                                                       _accumulation_sweep()[1:])),
              "band", lo=0.0, hi=1.0),
        Claim("Sec.IV-C: depth-3 share of the depth-12 accumulation saving", 0.6,
              lambda: (_accumulation_sweep()[0][1] - _accumulation_sweep()[2][1])
              / (_accumulation_sweep()[0][1] - _accumulation_sweep()[-1][1]),
              "band", lo=_above(0.6)),
        *[
            Claim(f"Sec.IV-C: broadcast op2 encoding saving at Nt={n}", n,
                  lambda n=n: _broadcast_saving(n), tolerance=0.10)
            for n in (2, 4, 8)
        ],
        Claim("Sec.V-E: calibrated / uncalibrated dispersion error (max)", 0.01,
              lambda: max(c / p for p, c in _calibration_sweep()), "band",
              lo=0.0, hi=_below(0.01)),
        Claim("Sec.V-E: dispersion error growth per comb widening (min)", 1.0,
              lambda: min(b[0] / a[0] for a, b in zip(_calibration_sweep(),
                                                       _calibration_sweep()[1:])),
              "band", lo=1.0),
        Claim("Sec.VI-A: searched core cycle gain over 12x12x12 (min)", 1.0,
              lambda: min(gain for gain, _ in _core_search().values()), "band", lo=1.0),
        Claim("Sec.VI-A: searched core cycle gain, vector-matrix", 4.0,
              lambda: _core_search()["vector"][0], "band", lo=_above(4.0)),
        Claim("Sec.VI-A: searched core Nh, vector-matrix", 1.0,
              lambda: _core_search()["vector"][1], "band", lo=1, hi=2),
        Claim("Fig.16: blockified vs masked dense attention, max abs difference", 0.0,
              _blockified_attention_error, "band", lo=0.0, hi=1e-10),
        Claim("Table III: 2x DAC power / 2x coupler loss, chip power ratio", 1.0,
              lambda: sensitivity("dac_power").power_ratio
              / sensitivity("coupler_loss").power_ratio,
              "band", lo=_above(1.0)),
        Claim("Sec.VI-B: batch-1 decode contexts that are memory-bound", len(contexts),
              lambda: sum(_decode(c).memory_bound for c in contexts), "exact"),
        Claim("Sec.VI-B: batch-1 decode compute utilization (max)", 0.5,
              lambda: max(_decode(c).compute_utilization for c in contexts), "band",
              lo=0.0, hi=_below(0.5)),
        Claim("Sec.VI-B: batch-64 / batch-1 decode utilization at 128 tokens", 1.0,
              lambda: _decode(128, 64).compute_utilization / _decode(128).compute_utilization,
              "band", lo=_above(1.0)),
        Claim("Sec.VI-B: K/V recompute at 512 tokens (us)", 200.0,
              lambda: workload_latency(lt_base(8), kv_recompute_trace(gpt2_small(), 512)) * 1e6,
              "band", lo=0.0, hi=_below(200.0)),
    ]


@cache
def _fig14() -> list[dict]:
    return fig14_wavelength_robustness()


@cache
def _fig15() -> list[dict]:
    return fig15_noise_robustness()


def _fig15_drops_in_paper_range() -> list[float]:
    limits = {"magnitude": 0.08, "phase": 7.0}
    return [abs(r["accuracy_drop"]) for r in _fig15() if r["value"] <= limits[r["sweep"]]]


def accuracy_claims() -> list[Claim]:
    """Figs. 14/15: robustness of the noise-aware-trained reference models.

    The paper's <0.5 % bound becomes 8 % here: each synthetic test set
    holds 80 samples, so one sample moves the accuracy by 1.25 %.
    """
    return [
        Claim("Fig.14: sweep covers ViT and BERT", 1.0,
              lambda: {r["model"] for r in _fig14()} == {"vit", "bert"}, "exact"),
        Claim("Fig.14: worst absolute accuracy drop across wavelengths", 0.005,
              lambda: max(abs(r["accuracy_drop"]) for r in _fig14()), "band", lo=0.0, hi=0.08),
        Claim("Fig.14: lowest photonic accuracy", 0.75,
              lambda: min(r["photonic_accuracy"] for r in _fig14()), "band",
              lo=_above(0.75), hi=1.0),
        Claim("Fig.15: worst absolute accuracy drop in the paper's noise range", 0.005,
              lambda: max(_fig15_drops_in_paper_range(), default=math.nan), "band",
              lo=0.0, hi=0.08),
        Claim("Fig.15: photonic / digital accuracy at magnitude noise >= 0.3 (max)", 1.0,
              lambda: max((r["photonic_accuracy"] / r["digital_accuracy"] for r in _fig15()
                           if r["sweep"] == "magnitude" and r["value"] >= 0.3),
                          default=math.nan),
              "band", lo=0.0, hi=_below(1.0)),
    ]


def run_scorecard(claims: list[Claim] | None = None) -> list[ClaimResult]:
    """Evaluate all claims; returns the per-claim results."""
    claims = claims if claims is not None else default_claims()
    return [claim.evaluate() for claim in claims]


def all_pass(results: list[ClaimResult] | None = None) -> bool:
    """True when every scorecard claim holds."""
    results = results if results is not None else run_scorecard()
    return all(result.passed for result in results)
