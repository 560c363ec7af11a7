"""Tests for the engine hot path: chunked pipelining and stage profiling.

The load-bearing invariant is *bit-equality*: pipelining only reorders
the SAMPLE/ENCODE/COMPUTE/DETECT stages in wall-clock time — the RNG
draws, their order, and every floating-point operation are unchanged.
So every pipelined configuration must reproduce the sequential
per-chunk oracle exactly, across depths and shard axes,
including under close-while-busy shutdown races.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import (
    CalibratedDPTC,
    DPTC,
    NoiseModel,
    ShardedDPTC,
    chunk_bounds,
    pipelined_matmul,
    profile_stages,
)
from repro.core.hotpath import best_of, slice_batch_operand


def operands(seed, a_shape, b_shape):
    rng = np.random.default_rng(seed)
    return rng.normal(size=a_shape), rng.normal(size=b_shape)


def chunk_oracle(core, a, b, seed, chunk_size):
    """Sequential per-chunk engine calls: the bit-equality ground truth."""
    stream = np.random.default_rng(seed)
    return np.concatenate(
        [
            core.matmul(a[start:stop], b[start:stop], rng=stream)
            for start, stop in chunk_bounds(a.shape[0], chunk_size)
        ],
        axis=0,
    )


class TestChunkBounds:
    def test_covers_batch_contiguously(self):
        bounds = chunk_bounds(10, 3)
        assert bounds == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_exact_division_has_no_remainder_chunk(self):
        assert chunk_bounds(8, 4) == [(0, 4), (4, 8)]

    def test_chunk_larger_than_batch(self):
        assert chunk_bounds(3, 100) == [(0, 3)]

    def test_zero_batch_yields_no_chunks(self):
        assert chunk_bounds(0, 4) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            chunk_bounds(-1, 4)
        with pytest.raises(ValueError):
            chunk_bounds(4, 0)


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


class TestPipelinedBitEquality:
    """pipelined_matmul == the sequential per-chunk oracle, always."""

    @pytest.fixture(scope="class")
    def core(self):
        return DPTC(noise=NoiseModel.paper_default())

    @pytest.fixture(scope="class")
    def stacked(self):
        a, b = operands(3, (13, 5, 24), (13, 24, 5))
        a[4] = 0.0  # all-zero stack: the draw-less short-circuit
        return a, b

    @pytest.mark.parametrize("chunk_size", [1, 3, 5, 13, 50])
    @pytest.mark.parametrize("depth", [0, 1, 2, 4])
    def test_matches_chunk_oracle(self, core, stacked, chunk_size, depth):
        a, b = stacked
        want = chunk_oracle(core, a, b, seed=42, chunk_size=chunk_size)
        with ThreadPoolExecutor(max_workers=1) as prefetch:
            got = pipelined_matmul(
                core, a, b, np.random.default_rng(42),
                chunk_size=chunk_size, pipeline_depth=depth,
                prefetch=prefetch if depth else None,
            )
        assert np.array_equal(want, got)

    def test_single_chunk_equals_unchunked(self, core, stacked):
        a, b = stacked
        want = core.matmul(a, b, rng=np.random.default_rng(11))
        got = pipelined_matmul(
            core, a, b, np.random.default_rng(11), chunk_size=a.shape[0]
        )
        assert np.array_equal(want, got)

    def test_ideal_core_bypasses_chunking_exactly(self, stacked):
        a, b = stacked
        got = pipelined_matmul(
            DPTC(), a, b, np.random.default_rng(0), chunk_size=2
        )
        assert np.array_equal(got, np.matmul(a, b))

    def test_matrix_operands_have_no_batch_to_chunk(self, core):
        a, b = operands(5, (4, 12), (12, 4))
        want = core.matmul(a, b, rng=np.random.default_rng(1))
        got = pipelined_matmul(
            core, a, b, np.random.default_rng(1), chunk_size=2
        )
        assert np.array_equal(want, got)

    def test_broadcast_weight_encoded_per_chunk(self, core):
        """A shared 2-D weight rides whole into every chunk — exactly
        like the per-chunk oracle encodes it once per call."""
        a, w = operands(6, (9, 4, 16), (16, 4))
        stream = np.random.default_rng(13)
        want = np.concatenate(
            [
                core.matmul(a[start:stop], w, rng=stream)
                for start, stop in chunk_bounds(a.shape[0], 4)
            ],
            axis=0,
        )
        got = pipelined_matmul(
            core, a, w, np.random.default_rng(13), chunk_size=4
        )
        assert np.array_equal(want, got)

    def test_calibrated_core_pipeline(self, stacked):
        a, b = stacked
        core = CalibratedDPTC(noise=NoiseModel.paper_default())
        want = chunk_oracle(core, a, b, seed=21, chunk_size=4)
        with ThreadPoolExecutor(max_workers=1) as prefetch:
            got = pipelined_matmul(
                core, a, b, np.random.default_rng(21),
                chunk_size=4, pipeline_depth=2, prefetch=prefetch,
            )
        assert np.array_equal(want, got)

    def test_shutdown_prefetch_falls_back_inline(self, core, stacked):
        """A prefetch executor that is already closed (close-while-busy)
        must not change results — and must not deadlock."""
        a, b = stacked
        want = chunk_oracle(core, a, b, seed=9, chunk_size=3)
        prefetch = ThreadPoolExecutor(max_workers=1)
        prefetch.shutdown(wait=True)
        got = pipelined_matmul(
            core, a, b, np.random.default_rng(9),
            chunk_size=3, pipeline_depth=2, prefetch=prefetch,
        )
        assert np.array_equal(want, got)


class TestShardedChunkedExecution:
    """ShardedDPTC with chunk_size: pipelined == unpipelined == sequential."""

    @pytest.fixture(scope="class")
    def stacked(self):
        return operands(8, (9, 5, 24), (9, 24, 5))

    @pytest.mark.parametrize("shard_axis", ["batch", "contraction"])
    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_thread_backend_matches_sequential(self, stacked, shard_axis, depth):
        a, b = stacked
        sequential = ShardedDPTC(
            num_cores=3, noise=NoiseModel.paper_default(),
            shard_axis=shard_axis, parallel=False, chunk_size=2,
        )
        want = sequential.matmul(a, b, rng=np.random.default_rng(5))
        sequential.close()
        engine = ShardedDPTC(
            num_cores=3, noise=NoiseModel.paper_default(),
            shard_axis=shard_axis, chunk_size=2, pipeline_depth=depth,
        )
        got = engine.matmul(a, b, rng=np.random.default_rng(5))
        engine.close()
        assert np.array_equal(want, got)

    def test_unchunked_engine_unchanged_by_knobs(self, stacked):
        """chunk_size=None keeps the exact pre-pipelining draw order."""
        a, b = stacked
        plain = ShardedDPTC(num_cores=2, noise=NoiseModel.paper_default())
        knobbed = ShardedDPTC(
            num_cores=2, noise=NoiseModel.paper_default(), pipeline_depth=3
        )
        want = plain.matmul(a, b, rng=np.random.default_rng(2))
        got = knobbed.matmul(a, b, rng=np.random.default_rng(2))
        plain.close()
        knobbed.close()
        assert np.array_equal(want, got)

    def test_single_core_chunked_matches_plain_chunk_oracle(self, stacked):
        a, b = stacked
        engine = ShardedDPTC(
            num_cores=1, noise=NoiseModel.paper_default(),
            chunk_size=4, pipeline_depth=1,
        )
        # num_cores=1 spawns one child stream off the call's generator.
        stream = np.random.default_rng(3).spawn(1)[0]
        want = np.concatenate(
            [
                DPTC(noise=NoiseModel.paper_default()).matmul(
                    a[s:e], b[s:e], rng=stream
                )
                for s, e in chunk_bounds(a.shape[0], 4)
            ],
            axis=0,
        )
        got = engine.matmul(a, b, rng=np.random.default_rng(3))
        engine.close()
        assert np.array_equal(want, got)

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            ShardedDPTC(num_cores=2, chunk_size=0)
        with pytest.raises(ValueError):
            ShardedDPTC(num_cores=2, pipeline_depth=-1)

    def test_close_while_busy_no_deadlock_same_result(self, stacked):
        """close() racing an in-flight chunked matmul must neither
        deadlock nor change the result (inline prepare fallback)."""
        a, b = stacked
        oracle = ShardedDPTC(
            num_cores=2, noise=NoiseModel.paper_default(),
            parallel=False, chunk_size=1,
        )
        want = oracle.matmul(a, b, rng=np.random.default_rng(17))
        oracle.close()
        engine = ShardedDPTC(
            num_cores=2, noise=NoiseModel.paper_default(),
            chunk_size=1, pipeline_depth=3,
        )
        with ThreadPoolExecutor(max_workers=1) as runner:
            future = runner.submit(
                engine.matmul, a, b, np.random.default_rng(17)
            )
            time.sleep(0.005)  # let some chunks enter the pipeline
            closer = threading.Thread(target=engine.close)
            closer.start()
            got = future.result(timeout=60)
            closer.join(timeout=60)
            assert not closer.is_alive()
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
