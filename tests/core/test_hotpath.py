"""Tests for the engine hot path: the one noisy stage body and its profile.

:meth:`DPTC.matmul` runs a noisy product as SAMPLE -> ENCODE -> COMPUTE
-> DETECT, each stage inside a ``stage.*`` span of the ambient tracer.
The load-bearing invariants: the body is bit-identical to composing the
public stage methods by hand, its spans land under whatever span is
ambient (``shard.core`` on a sharded engine), and a sharded engine's
parallel and sequential schedules agree bit for bit on both axes.
"""

import numpy as np
import pytest

from repro.core import (
    CalibratedDPTC,
    DPTC,
    NoiseModel,
    ShardedDPTC,
    profile_stages,
)
from repro.core.hotpath import STAGES, best_of
from repro.core.sharding import slice_batch_operand
from repro.obs import Tracer

STAGE_SPANS = [f"stage.{name}" for name in STAGES]


def operands(seed, a_shape, b_shape):
    rng = np.random.default_rng(seed)
    return rng.normal(size=a_shape), rng.normal(size=b_shape)


def traced(fn):
    """``fn()`` under an active tracer inside an ``outer`` span."""
    tracer = Tracer()
    with tracer.activate(), tracer.span("outer") as outer:
        result = fn()
    return result, tracer, outer


class TestSliceBatchOperand:
    def test_full_rank_operand_is_sliced(self):
        x = np.arange(24.0).reshape(4, 3, 2)
        sliced = slice_batch_operand(x, batch_rank=1, start=1, stop=3)
        assert np.array_equal(sliced, x[1:3])

    def test_2d_weight_passes_whole(self):
        w = np.arange(6.0).reshape(3, 2)
        assert slice_batch_operand(w, batch_rank=1, start=0, stop=1) is w

    def test_size_one_leading_axis_passes_whole(self):
        x = np.arange(6.0).reshape(1, 3, 2)
        assert slice_batch_operand(x, batch_rank=1, start=2, stop=4) is x


@pytest.fixture(params=[DPTC, CalibratedDPTC], ids=["dptc", "calibrated"])
def core(request):
    return request.param(noise=NoiseModel.paper_default())


class TestStageBody:
    @pytest.fixture(scope="class")
    def stacked(self):
        a, b = operands(3, (5, 4, 24), (24, 6))
        a[2] = 0.0  # one all-zero matrix: masked by DETECT, not skipped
        return a, b

    def test_equals_the_stage_methods_composed(self, core, stacked):
        a, b = stacked
        draw = core.sample_noise(a.shape, b.shape, np.random.default_rng(4))
        prepared = core.prepare_chunk(a, b, draw)
        want = core.detect_chunk(prepared, core.compute_chunk(prepared))
        got = core.matmul(a, b, rng=np.random.default_rng(4))
        assert np.array_equal(want, got)
        assert np.array_equal(got[2], np.zeros((4, 6)))

    def test_stage_spans_parent_under_the_ambient_span(self, core, stacked):
        a, b = stacked
        out, tracer, outer = traced(
            lambda: core.matmul(a, b, rng=np.random.default_rng(4))
        )
        stages = tracer.collector.children_of(outer.span_id)
        assert [span.name for span in stages] == STAGE_SPANS
        assert all(span.end is not None for span in stages)
        assert len(tracer.collector) == 1 + len(STAGE_SPANS)
        assert np.array_equal(out, core.matmul(a, b, rng=np.random.default_rng(4)))

    def test_a_given_draw_skips_the_sample_stage(self, core, stacked):
        a, b = stacked
        draw = core.sample_noise(a.shape, b.shape, np.random.default_rng(8))
        out, tracer, _ = traced(lambda: core.matmul(a, b, draw=draw))
        names = [span.name for span in tracer.collector.spans()]
        assert names == ["outer"] + STAGE_SPANS[1:]
        assert np.array_equal(out, core.matmul(a, b, rng=np.random.default_rng(8)))

    def test_all_zero_operand_records_no_stage(self, core):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        out, tracer, _ = traced(
            lambda: core.matmul(np.zeros((3, 4, 12)), np.ones((12, 2)), rng=rng)
        )
        assert np.array_equal(out, np.zeros((3, 4, 2)))
        assert rng.bit_generator.state == before
        assert [span.name for span in tracer.collector.spans()] == ["outer"]

    def test_ideal_path_is_a_bare_matmul(self, stacked):
        a, b = stacked
        out, tracer, _ = traced(lambda: DPTC().matmul(a, b))
        assert np.array_equal(out, np.matmul(a, b))
        assert [span.name for span in tracer.collector.spans()] == ["outer"]


@pytest.mark.parametrize("shard_axis", ["batch", "contraction"])
class TestShardedStageBody:
    @pytest.fixture(scope="class")
    def stacked(self):
        a, b = operands(8, (9, 5, 24), (9, 24, 5))
        a[4] = 0.0
        return a, b

    def run(self, stacked, shard_axis, parallel, core_cls=DPTC):
        engine = ShardedDPTC(
            num_cores=3,
            noise=NoiseModel.paper_default(),
            core_cls=core_cls,
            shard_axis=shard_axis,
            parallel=parallel,
        )
        try:
            return engine.matmul(*stacked, rng=np.random.default_rng(5))
        finally:
            engine.close()

    @pytest.mark.parametrize("core_cls", [DPTC, CalibratedDPTC])
    def test_parallel_matches_sequential(self, stacked, shard_axis, core_cls):
        want = self.run(stacked, shard_axis, parallel=False, core_cls=core_cls)
        got = self.run(stacked, shard_axis, parallel=True, core_cls=core_cls)
        assert np.array_equal(want, got)

    def test_stage_spans_parent_under_shard_core(self, stacked, shard_axis):
        out, tracer, _ = traced(
            lambda: self.run(stacked, shard_axis, parallel=True)
        )
        spans = tracer.collector.spans()
        by_id = {span.span_id: span for span in spans}
        cores = [span for span in spans if span.name == "shard.core"]
        assert len(cores) == 3
        for core_span in cores:
            children = tracer.collector.children_of(core_span.span_id)
            assert [span.name for span in children] == STAGE_SPANS
        stages = [span for span in spans if span.name.startswith("stage.")]
        assert len(stages) == 3 * len(STAGE_SPANS)
        assert all(by_id[span.parent_id].name == "shard.core" for span in stages)
        assert np.array_equal(out, self.run(stacked, shard_axis, parallel=False))


class TestShardedChunkedExecution:
    """Each core runs its chunk of the product through the one stage body:
    the thread backend equals the sequential schedule for any seed."""

    @pytest.fixture(scope="class")
    def stacked(self):
        return operands(8, (9, 5, 24), (9, 24, 5))

    @pytest.mark.parametrize("shard_axis", ["batch", "contraction"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_thread_backend_matches_sequential(self, stacked, shard_axis, seed):
        a, b = stacked
        sequential = ShardedDPTC(
            num_cores=3, noise=NoiseModel.paper_default(),
            shard_axis=shard_axis, parallel=False,
        )
        want = sequential.matmul(a, b, rng=np.random.default_rng(seed))
        sequential.close()
        engine = ShardedDPTC(
            num_cores=3, noise=NoiseModel.paper_default(), shard_axis=shard_axis,
        )
        got = engine.matmul(a, b, rng=np.random.default_rng(seed))
        engine.close()
        assert np.array_equal(want, got)


class TestProfileStages:
    def test_reports_every_stage(self):
        core = DPTC(noise=NoiseModel.paper_default())
        a, b = operands(1, (4, 6, 12), (4, 12, 6))
        times = profile_stages(core, a, b, seed=0, repeats=1)
        assert set(times) == {"sample", "encode", "compute", "detect", "total"}
        assert all(value >= 0.0 for value in times.values())

    def test_ideal_core_degrades_to_compute_detect_profile(self):
        # An ideal (noiseless) engine has no SAMPLE/ENCODE stages; the
        # profile degrades instead of raising, so `repro hotpath-bench
        # --noise off` works.
        a, b = operands(2, (4, 6, 12), (4, 12, 6))
        times = profile_stages(DPTC(), a, b, seed=0, repeats=1)
        assert set(times) == {"compute", "detect", "total"}
        assert times["detect"] == 0.0
        assert times["compute"] >= 0.0 and times["total"] >= 0.0


class TestBestOf:
    @pytest.mark.parametrize("repeats, inner", [(0, 1), (1, 0)])
    def test_rejects_empty_rounds(self, repeats, inner):
        with pytest.raises(ValueError, match="repeats >= 1 and inner >= 1"):
            best_of(lambda: None, repeats, inner=inner)

    def test_one_warm_up_then_repeats_times_inner_calls(self):
        calls = []
        assert best_of(lambda: calls.append(None), 3, inner=2) >= 0.0
        assert len(calls) == 1 + 3 * 2
