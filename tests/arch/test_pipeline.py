"""Tests for the digital-unit model and the pipelined execution study."""

import pytest

from repro.arch import (
    DigitalUnitModel,
    NonGEMMCounts,
    layer_nongemm_counts,
    lt_base,
    lt_large,
    pipeline_report,
    workload_latency,
)
from repro.workloads import bert_base, deit_base, deit_tiny, gemm_trace


class TestNonGEMMCounts:
    def test_softmax_quadratic_in_sequence(self):
        tiny = layer_nongemm_counts(deit_tiny())
        assert tiny.softmax_elements == 3 * 197 * 197

    def test_gelu_covers_ffn_hidden(self):
        tiny = layer_nongemm_counts(deit_tiny())
        assert tiny.gelu_elements == 197 * 768

    def test_layernorm_and_residual(self):
        tiny = layer_nongemm_counts(deit_tiny())
        assert tiny.layernorm_elements == 2 * 197 * 192
        assert tiny.residual_elements == tiny.layernorm_elements

    def test_total(self):
        counts = NonGEMMCounts(10, 20, 30, 40)
        assert counts.total == 100


class TestDigitalUnitModel:
    def test_layer_time_positive(self):
        model = DigitalUnitModel()
        assert model.layer_time(deit_tiny(), lt_base()) > 0

    def test_more_tiles_faster(self):
        model = DigitalUnitModel()
        assert model.layer_time(deit_tiny(), lt_large()) < model.layer_time(
            deit_tiny(), lt_base()
        )

    def test_workload_scales_with_depth(self):
        model = DigitalUnitModel()
        assert model.workload_time(deit_tiny(), lt_base()) == pytest.approx(
            12 * model.layer_time(deit_tiny(), lt_base())
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            DigitalUnitModel(clock=0.0)
        with pytest.raises(ValueError):
            DigitalUnitModel(lanes_per_tile=0)


class TestPipelineReport:
    def test_pipelining_always_helps(self):
        for model in (deit_tiny(), deit_base(), bert_base()):
            report = pipeline_report(model, lt_base(4))
            assert report.pipelined_latency < report.sequential_latency
            assert report.speedup > 1.0

    def test_pipelined_bounded_by_stage_sums(self):
        report = pipeline_report(deit_tiny(), lt_base(4))
        assert report.pipelined_latency >= max(
            report.gemm_time, report.digital_time
        )
        assert report.pipelined_latency <= report.sequential_latency

    def test_default_provisioning_hides_digital_work(self):
        """The Table V latencies assume non-GEMM work is overlapped; the
        default digital provisioning must make that assumption true."""
        for model in (deit_tiny(), deit_base(), bert_base()):
            report = pipeline_report(model, lt_base(4))
            assert report.digital_time < report.gemm_time
            assert report.digital_hidden
            # Steady state at the GEMM rate plus exactly one digital drain.
            assert report.pipelined_latency == pytest.approx(
                report.gemm_time + report.digital_time / model.depth
            )

    def test_gemm_time_matches_latency_model(self):
        """The per-layer decomposition must reproduce the latency of the
        encoder-layer GEMMs (embedding and head excluded)."""
        from repro.workloads import (
            MODULE_ATTENTION,
            MODULE_FFN,
            MODULE_PROJECTION,
            filter_module,
        )

        model = deit_tiny()
        report = pipeline_report(model, lt_base(4))
        layer_ops = filter_module(
            gemm_trace(model), MODULE_ATTENTION, MODULE_PROJECTION, MODULE_FFN
        )
        trace_time = workload_latency(lt_base(4), layer_ops)
        assert report.gemm_time == pytest.approx(trace_time, rel=0.01)

    def test_underprovisioned_digital_becomes_bottleneck(self):
        weak = DigitalUnitModel(lanes_per_tile=8)
        report = pipeline_report(deit_tiny(), lt_base(4), digital=weak)
        assert report.digital_time > report.gemm_time
        assert not report.digital_hidden
