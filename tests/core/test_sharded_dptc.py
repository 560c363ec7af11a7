"""Tests for multi-core sharded DPTC execution.

Edge cases the ISSUE names explicitly: ``num_cores`` greater than the
batch size, non-divisible shard splits, per-core RNG reproducibility
under a fixed seed, and exact ideal-path equivalence with the
single-core batched engine.
"""

import gc

import numpy as np
import pytest

from repro.core import (
    DPTC,
    CalibratedDPTC,
    NoiseModel,
    ShardedDPTC,
    shard_bounds,
)
from repro.core.noise import EncodingNoise, SystematicNoise


def operands(seed, a_shape, b_shape):
    rng = np.random.default_rng(seed)
    return rng.normal(size=a_shape), rng.normal(size=b_shape)


class TestShardBounds:
    def test_even_split(self):
        assert shard_bounds(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_non_divisible_front_loads_remainder(self):
        assert shard_bounds(7, 4) == [(0, 2), (2, 4), (4, 6), (6, 7)]

    def test_more_shards_than_items(self):
        bounds = shard_bounds(3, 8)
        assert bounds[:3] == [(0, 1), (1, 2), (2, 3)]
        assert all(start == stop for start, stop in bounds[3:])

    def test_covers_batch_exactly(self):
        for batch in (1, 5, 16, 33):
            for shards in (1, 2, 7, 64):
                bounds = shard_bounds(batch, shards)
                assert len(bounds) == shards
                assert bounds[0][0] == 0 and bounds[-1][1] == batch
                for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                    assert stop == start

    def test_validation(self):
        with pytest.raises(ValueError):
            shard_bounds(4, 0)
        with pytest.raises(ValueError):
            shard_bounds(-1, 2)


SHAPE_CASES = [
    ((8, 5, 12), (8, 12, 4)),  # evenly divisible batch
    ((7, 5, 12), (7, 12, 4)),  # non-divisible shards
    ((3, 5, 12), (3, 12, 4)),  # num_cores > batch (cores idle)
    ((6, 5, 12), (12, 4)),  # broadcast 2-D weight
    ((2, 3, 5, 12), (2, 3, 12, 4)),  # nested batch axes
    ((5, 12), (12, 4)),  # no batch axes at all
    ((1, 5, 12), (1, 12, 4)),  # size-1 leading axis
]


class TestIdealEquivalence:
    @pytest.mark.parametrize("a_shape,b_shape", SHAPE_CASES)
    @pytest.mark.parametrize("num_cores", [1, 2, 4, 8])
    def test_bit_exact_with_single_core(self, num_cores, a_shape, b_shape):
        a, b = operands(0, a_shape, b_shape)
        single = DPTC(noise=NoiseModel.ideal())
        sharded = ShardedDPTC(num_cores=num_cores)
        assert np.array_equal(sharded.matmul(a, b), single.matmul(a, b))

    def test_zero_size_batch_axis(self):
        """An empty batch stack returns an empty result, like DPTC."""
        a = np.zeros((0, 3, 4))
        b = np.zeros((0, 4, 2))
        for noise in (NoiseModel.ideal(), NoiseModel.paper_default()):
            out = ShardedDPTC(num_cores=2, noise=noise).matmul(a, b)
            assert out.shape == (0, 3, 2)

    def test_bit_exact_with_numpy(self):
        a, b = operands(1, (9, 6, 16), (9, 16, 5))
        assert np.array_equal(
            ShardedDPTC(num_cores=4).matmul(a, b), np.matmul(a, b)
        )

    def test_sequential_matches_parallel(self):
        a, b = operands(2, (6, 4, 12), (6, 12, 4))
        parallel = ShardedDPTC(num_cores=3, parallel=True)
        sequential = ShardedDPTC(num_cores=3, parallel=False)
        assert np.array_equal(parallel.matmul(a, b), sequential.matmul(a, b))
        parallel.close()


class TestNoisySharding:
    @pytest.mark.parametrize("num_cores", [2, 4, 8])
    def test_fixed_seed_reproducible(self, num_cores):
        """Per-core streams spawn deterministically from the seed."""
        a, b = operands(3, (7, 5, 12), (7, 12, 5))
        engine = ShardedDPTC(num_cores=num_cores, noise=NoiseModel.paper_default())
        first = engine.matmul(a, b, rng=np.random.default_rng(11))
        second = engine.matmul(a, b, rng=np.random.default_rng(11))
        assert np.array_equal(first, second)

    def test_per_core_streams_are_independent(self):
        """Identical shard inputs on different cores draw different noise."""
        rng = np.random.default_rng(4)
        slice_a = rng.normal(size=(5, 12))
        slice_b = rng.normal(size=(12, 5))
        a = np.stack([slice_a, slice_a])
        b = np.stack([slice_b, slice_b])
        engine = ShardedDPTC(num_cores=2, noise=NoiseModel.paper_default())
        out = engine.matmul(a, b, rng=np.random.default_rng(5))
        assert not np.allclose(out[0], out[1])

    def test_core_streams_stable_under_batch_size(self):
        """Core i's draws depend only on the seed and the core index:
        dropping the tail of the batch (idling the last cores) must not
        change the leading shards' results."""
        a, b = operands(6, (8, 5, 12), (8, 12, 5))
        engine = ShardedDPTC(num_cores=4, noise=NoiseModel.paper_default())
        full = engine.matmul(a, b, rng=np.random.default_rng(9))
        # 6 items over 4 cores: shards [0:2], [2:4], [4:5], [5:6].
        short = engine.matmul(a[:6], b[:6], rng=np.random.default_rng(9))
        assert np.array_equal(short[:2], full[:2])

    def test_core_streams_stable_under_num_cores(self):
        """Per-core stream independence is prefix-stable in num_cores:
        ``rng.spawn`` children are indexed by core, so growing the grid
        beyond the occupied cores reproduces the same results bit-for-
        bit (the test PR 2 deferred)."""
        a, b = operands(11, (3, 5, 12), (3, 12, 5))  # 3 items: 1 per core
        small = ShardedDPTC(num_cores=3, noise=NoiseModel.paper_default())
        large = ShardedDPTC(num_cores=8, noise=NoiseModel.paper_default())
        assert np.array_equal(
            small.matmul(a, b, rng=np.random.default_rng(21)),
            large.matmul(a, b, rng=np.random.default_rng(21)),
        )

    def test_different_num_cores_draw_independent_streams(self):
        """Changing the split re-shards work onto *different* per-core
        streams: with 2 vs 4 occupied cores the same inputs see
        different noise (per-core independence, not a shared stream)."""
        a, b = operands(12, (4, 5, 12), (4, 12, 5))
        two = ShardedDPTC(num_cores=2, noise=NoiseModel.paper_default())
        four = ShardedDPTC(num_cores=4, noise=NoiseModel.paper_default())
        out2 = two.matmul(a, b, rng=np.random.default_rng(33))
        out4 = four.matmul(a, b, rng=np.random.default_rng(33))
        # Core 0's shard shrinks from 2 items to 1; the shared first
        # item sees the same stream but a different draw shape, and the
        # remaining items move to fresh cores: outputs must differ.
        assert not np.allclose(out2[2:], out4[2:])

    def test_noise_statistics_match_single_core(self):
        model = NoiseModel(
            encoding=EncodingNoise(0.03, 2.0),
            systematic=SystematicNoise(0.05),
            include_dispersion=False,
        )
        a, b = operands(7, (8, 6, 12), (8, 12, 6))
        exact = np.matmul(a, b)
        scale = np.linalg.norm(exact)

        def mean_error(engine):
            draws = [
                np.linalg.norm(
                    engine.matmul(a, b, rng=np.random.default_rng(50 + s)) - exact
                )
                / scale
                for s in range(25)
            ]
            return np.mean(draws)

        single = mean_error(DPTC(noise=model))
        sharded = mean_error(ShardedDPTC(num_cores=4, noise=model))
        assert sharded == pytest.approx(single, rel=0.3)

    def test_unseeded_noisy_call_runs(self):
        a, b = operands(8, (4, 5, 12), (4, 12, 5))
        engine = ShardedDPTC(num_cores=2, noise=NoiseModel.paper_default())
        out = engine.matmul(a, b)
        assert out.shape == (4, 5, 5)
        assert not np.allclose(out, np.matmul(a, b))


class TestPerCoreState:
    def test_cores_are_distinct_instances(self):
        engine = ShardedDPTC(num_cores=4)
        assert len({id(core) for core in engine.cores}) == 4
        assert len({id(core._channel_cache) for core in engine.cores}) == 4

    def test_calibrated_cores(self):
        """Per-core calibration state: sharded CalibratedDPTC matches the
        single calibrated core exactly on the deterministic dispersion
        path (no stochastic noise, no RNG consumed)."""
        noise = NoiseModel(
            encoding=EncodingNoise(0.0, 0.0),
            systematic=SystematicNoise(0.0),
            include_dispersion=True,
        )
        a, b = operands(9, (6, 5, 12), (6, 12, 5))
        single = CalibratedDPTC(noise=noise)
        sharded = ShardedDPTC(num_cores=3, noise=noise, core_cls=CalibratedDPTC)
        assert all(isinstance(core, CalibratedDPTC) for core in sharded.cores)
        assert np.allclose(
            sharded.matmul(a, b), single.matmul(a, b), rtol=1e-12, atol=1e-12
        )

    def test_tile_matmul_delegates_to_core0(self):
        engine = ShardedDPTC(num_cores=2)
        geometry = engine.geometry
        a = np.ones((geometry.n_h, geometry.n_lambda))
        b = np.ones((geometry.n_lambda, geometry.n_v))
        assert np.array_equal(engine.tile_matmul(a, b), a @ b)

    def test_close_is_idempotent(self):
        engine = ShardedDPTC(num_cores=2, parallel=True)
        a, b = operands(10, (4, 3, 12), (4, 12, 3))
        engine.matmul(a, b)
        engine.close()
        engine.close()
        # Pool is recreated lazily after close.
        assert np.array_equal(engine.matmul(a, b), np.matmul(a, b))

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedDPTC(num_cores=0)
        with pytest.raises(ValueError):
            ShardedDPTC(num_cores=2).matmul(np.ones(12), np.ones((12, 4)))
        with pytest.raises(ValueError):
            ShardedDPTC(num_cores=2).matmul(
                np.ones((2, 4, 6)), np.ones((3, 6, 5))
            )


class TestPoolLifecycle:
    def test_close_releases_pool_and_finalizer(self):
        engine = ShardedDPTC(
            num_cores=2, noise=NoiseModel.paper_default(), parallel=True
        )
        a, b = operands(4, (4, 3, 12), (4, 12, 3))
        engine.matmul(a, b, rng=np.random.default_rng(0))
        assert engine._pool is not None
        assert engine._finalizer is not None and engine._finalizer.alive
        finalizer = engine._finalizer
        engine.close()
        assert engine._pool is None
        assert engine._finalizer is None
        assert not finalizer.alive  # detached: nothing left to leak
        engine.close()  # idempotent

    def test_finalizer_shuts_down_dropped_engine(self):
        """An engine dropped without close() releases its pool via the
        weakref finalizer (no leaked executors)."""
        engine = ShardedDPTC(
            num_cores=2, noise=NoiseModel.paper_default(), parallel=True
        )
        a, b = operands(5, (4, 3, 12), (4, 12, 3))
        engine.matmul(a, b, rng=np.random.default_rng(0))
        pool = engine._pool
        finalizer = engine._finalizer
        assert finalizer.alive
        del engine
        gc.collect()
        assert not finalizer.alive  # finalizer ran at collection
        assert pool._shutdown
