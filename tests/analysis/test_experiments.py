"""Tests for the per-figure experiment runners: shapes, orderings and
trends, plus the headline values the scorecard ledger
(:func:`repro.analysis.scorecard.default_claims`) does not check."""

import pytest

from repro.analysis import (
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


class TestFig3:
    def test_headline_numbers(self):
        result = fig3_dispersion()
        assert len(result["rows"]) == 25

    def test_rows_cover_grid(self):
        rows = fig3_dispersion(n_channels=11)["rows"]
        wavelengths = [row["wavelength_nm"] for row in rows]
        assert wavelengths == sorted(wavelengths)
        assert min(wavelengths) < 1550 < max(wavelengths)


class TestTable4:
    def test_rows(self):
        rows = table4_configs()
        by_name = {row["name"]: row for row in rows}
        assert by_name["LT-B"]["Nt"] == 4
        assert by_name["LT-L"]["Nt"] == 8


class TestFig7and8:
    def test_area_shares_sum_to_100(self):
        rows = [r for r in fig7_area_breakdown() if r["config"] == "LT-B"]
        assert sum(r["share_pct"] for r in rows) == pytest.approx(100.0)

    def test_power_has_all_configs_and_bits(self):
        rows = fig8_power_breakdown()
        combos = {(r["config"].split("@")[0], r["bits"]) for r in rows}
        assert ("LT-B", 4) in combos and ("LT-L", 8) in combos


class TestFig9and10:
    def test_fig9_monotone_scaling(self):
        rows = fig9_core_scaling()
        areas = [r["area_mm2"] for r in rows]
        powers = [r["power_w"] for r in rows]
        latencies = [r["latency_ps"] for r in rows]
        assert areas == sorted(areas)
        assert powers == sorted(powers)
        assert latencies == sorted(latencies)

    def test_fig10_trends(self):
        rows = fig10_efficiency_scaling()
        tops = [r["tops"] for r in rows]
        tops_per_w = [r["tops_per_w"] for r in rows]
        per_area_eff = [r["tops_per_w_mm2"] for r in rows]
        assert tops == sorted(tops)
        assert tops_per_w[-1] > tops_per_w[0]  # efficiency improves
        assert per_area_eff[-1] < per_area_eff[0]  # converter bottleneck


class TestFig11and12:
    def test_fig11_attention_ratio(self):
        rows = fig11_energy_comparison()["attention"]
        by_design = {r["design"]: r["normalized_total"] for r in rows}
        assert by_design["LT-crossbar-B"] == pytest.approx(1.0)

    def test_fig11_linear_ordering(self):
        rows = fig11_energy_comparison()["linear"]
        by_design = {r["design"]: r["normalized_total"] for r in rows}
        assert by_design["MZI"] > by_design["LT-crossbar-B"]
        assert by_design["MRR"] > by_design["LT-crossbar-B"]

    def test_fig12_ordering(self):
        for workload, rows in fig12_variant_ablation().items():
            by_design = {r["design"]: r["normalized_total"] for r in rows}
            assert by_design["LT-B"] == pytest.approx(1.0)
            assert by_design["LT-crossbar-B"] > 1.0
            assert by_design["LT-broadcast-B"] > by_design["LT-crossbar-B"]
            assert by_design["MRR"] > by_design["LT-crossbar-B"]

    def test_breakdown_columns_sum_to_total(self):
        """Each stacked bar's categories add up to its normalized total."""
        workloads = [*fig11_energy_comparison().values(), *fig12_variant_ablation().values()]
        for rows in workloads:
            for row in rows:
                parts = [v for k, v in row.items() if k not in ("design", "normalized_total")]
                assert sum(parts) == pytest.approx(row["normalized_total"])


class TestTable5:
    def test_all_modules_present(self):
        rows = table5_photonic_comparison(4)
        assert {(r["model"], r["module"]) for r in rows} == {
            (model, module)
            for model in ("deit-tiny", "deit-base")
            for module in ("MHA", "FFN", "All")
        }

    def test_lt_beats_baselines_everywhere(self):
        for row in table5_photonic_comparison(4):
            assert row["lt_energy_mj"] < row["mrr_energy_mj"]
            assert row["lt_latency_ms"] < row["mrr_latency_ms"]
            assert row["lt_edp"] < row["mzi_edp"]

    def test_average_ratios_in_band(self):
        ratios = table5_average_ratios(4)
        assert 200 < ratios["mzi_latency"] < 1500
        assert ratios["lt_no_opt_energy"] == pytest.approx(1.8, rel=0.35)

    def test_8bit_mzi_energy_worse_than_4bit(self):
        """Paper: the MZI energy ratio explodes at 8-bit (laser power)."""
        assert (
            table5_average_ratios(8)["mzi_energy"]
            > table5_average_ratios(4)["mzi_energy"]
        )


class TestFig13:
    def test_covers_all_workloads_and_platforms(self):
        rows = fig13_cross_platform()
        workloads = {r["workload"] for r in rows}
        assert len(workloads) == 5
        platforms = {r["platform"] for r in rows}
        assert "LT-B" in platforms and "GPU (A100)" in platforms

    def test_lt_lowest_energy_per_workload(self):
        rows = fig13_cross_platform(bits=(4,))
        for workload in {r["workload"] for r in rows}:
            subset = [r for r in rows if r["workload"] == workload]
            lt = min(
                r["energy_mj"] for r in subset if r["platform"].startswith("LT")
            )
            electronic = min(
                r["energy_mj"]
                for r in subset
                if not r["platform"].startswith("LT")
            )
            assert lt < electronic

    def test_lt_highest_fps_per_workload(self):
        rows = fig13_cross_platform(bits=(4,))
        for workload in {r["workload"] for r in rows}:
            subset = [r for r in rows if r["workload"] == workload]
            best = max(subset, key=lambda r: r["fps"])
            assert best["platform"].startswith("LT")


class TestFig16:
    def test_savings_monotone_in_window(self):
        rows = fig16_sparse_attention()
        savings = [r["cycle_savings"] for r in rows]
        assert savings == sorted(savings, reverse=True)

    def test_narrow_window_saves_cycles(self):
        rows = fig16_sparse_attention(windows=(3,))
        assert rows[0]["cycle_savings"] > 3.0
        assert rows[0]["sparse_cycles"] < rows[0]["dense_cycles"]


class TestWavelengthScaling:
    def test_eq10(self):
        summary = wavelength_scaling_summary()
        assert summary["max_wavelengths"] == 112
        assert summary["lambda_min_nm"] == pytest.approx(1527.88, abs=0.01)
        assert summary["lambda_max_nm"] == pytest.approx(1572.76, abs=0.02)
