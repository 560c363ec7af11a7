"""Tests for contraction-dimension sharding (K-axis slabs, Sec. IV).

The contract under test: each core executes a contiguous
``[..., m, d/N] x [..., d/N, n]`` slab through its own DPTC with its
own RNG stream, the :class:`DigitalAccumulator` sums the per-core
partial products in core order, and the *ideal* path stays
bit-identical to single-core ``np.matmul`` at every core count —
including non-divisible ``d % num_cores`` splits — because the
hardware's post-photodetection digital accumulation is exact.
"""

import numpy as np
import pytest

from repro.core import (
    DPTC,
    CalibratedDPTC,
    DigitalAccumulator,
    NoiseModel,
    ShardedDPTC,
)
from repro.core.noise import EncodingNoise, SystematicNoise


def operands(seed, a_shape, b_shape):
    rng = np.random.default_rng(seed)
    return rng.normal(size=a_shape), rng.normal(size=b_shape)


def contraction_engine(num_cores, noise=None, **kwargs):
    return ShardedDPTC(
        num_cores=num_cores, shard_axis="contraction", noise=noise, **kwargs
    )


class TestDigitalAccumulator:
    def test_sums_in_core_order(self):
        partials = [np.full((2, 2), float(i)) for i in range(4)]
        out = DigitalAccumulator.accumulate(partials)
        assert np.array_equal(out, np.full((2, 2), 6.0))

    def test_single_partial_is_copied(self):
        partial = np.ones((2, 3))
        out = DigitalAccumulator.accumulate([partial])
        assert np.array_equal(out, partial)
        out += 1.0  # the accumulator owns its buffer
        assert np.array_equal(partial, np.ones((2, 3)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DigitalAccumulator.accumulate([])


#: Shape cases: (a_shape, b_shape).  d values chosen so the sweep hits
#: divisible and non-divisible splits at every core count.
SHAPE_CASES = [
    ((8, 5, 24), (8, 24, 4)),  # d divisible by 1/2/4/8
    ((7, 5, 25), (7, 25, 4)),  # d=25: non-divisible at every multi-core count
    ((3, 5, 6), (3, 6, 4)),  # num_cores can exceed d (cores idle)
    ((6, 5, 25), (25, 4)),  # broadcast 2-D weight
    ((2, 3, 5, 23), (2, 3, 23, 4)),  # nested batch axes, prime d
    ((5, 25), (25, 4)),  # no batch axes at all
    ((1, 5, 13), (1, 13, 4)),  # size-1 leading axis
]


class TestIdealEquivalence:
    @pytest.mark.parametrize("a_shape,b_shape", SHAPE_CASES)
    @pytest.mark.parametrize("num_cores", [1, 2, 4, 8])
    def test_bit_exact_with_numpy(self, num_cores, a_shape, b_shape):
        a, b = operands(0, a_shape, b_shape)
        engine = contraction_engine(num_cores)
        assert np.array_equal(engine.matmul(a, b), np.matmul(a, b))

    @pytest.mark.parametrize("num_cores", [2, 3, 4, 8])
    def test_bit_exact_with_single_core_engine(self, num_cores):
        a, b = operands(1, (9, 6, 25), (9, 25, 5))
        single = DPTC(noise=NoiseModel.ideal())
        engine = contraction_engine(num_cores)
        assert np.array_equal(engine.matmul(a, b), single.matmul(a, b))

    def test_zero_size_batch_axis(self):
        """An empty batch stack returns an empty result, like DPTC."""
        a = np.zeros((0, 3, 8))
        b = np.zeros((0, 8, 2))
        for noise in (NoiseModel.ideal(), NoiseModel.paper_default()):
            out = contraction_engine(4, noise=noise).matmul(a, b)
            assert out.shape == (0, 3, 2)

    def test_sequential_matches_parallel(self):
        a, b = operands(2, (6, 4, 25), (6, 25, 4))
        parallel = contraction_engine(3, parallel=True)
        sequential = contraction_engine(3, parallel=False)
        assert np.array_equal(parallel.matmul(a, b), sequential.matmul(a, b))
        parallel.close()


class TestDegenerateModes:
    def test_single_core_is_plain_batched_engine_ideal(self):
        a, b = operands(3, (5, 4, 12), (5, 12, 4))
        assert np.array_equal(
            contraction_engine(1).matmul(a, b), np.matmul(a, b)
        )

    def test_single_core_matches_batch_axis_noisy(self):
        """num_cores=1 contraction == num_cores=1 batch == one DPTC:
        identical stream discipline, bit-equal noisy output."""
        a, b = operands(4, (5, 4, 12), (5, 12, 4))
        noise = NoiseModel.paper_default()
        k_out = contraction_engine(1, noise=noise).matmul(
            a, b, rng=np.random.default_rng(11)
        )
        b_out = ShardedDPTC(num_cores=1, shard_axis="batch", noise=noise).matmul(
            a, b, rng=np.random.default_rng(11)
        )
        single = DPTC(noise=noise).matmul(
            a, b, rng=np.random.default_rng(11).spawn(1)[0]
        )
        assert np.array_equal(k_out, b_out)
        assert np.array_equal(k_out, single)

    def test_single_element_contraction_runs_on_core0(self):
        """d=1 cannot be split: one slab on core 0, any core count."""
        a, b = operands(5, (4, 3, 1), (4, 1, 2))
        noise = NoiseModel.paper_default()
        out_multi = contraction_engine(4, noise=noise).matmul(
            a, b, rng=np.random.default_rng(3)
        )
        out_single = contraction_engine(1, noise=noise).matmul(
            a, b, rng=np.random.default_rng(3)
        )
        assert np.array_equal(out_multi, out_single)


class TestNoisyContraction:
    @pytest.mark.parametrize("num_cores", [2, 4, 8])
    def test_fixed_seed_reproducible(self, num_cores):
        a, b = operands(6, (7, 5, 25), (7, 25, 5))
        engine = contraction_engine(num_cores, noise=NoiseModel.paper_default())
        first = engine.matmul(a, b, rng=np.random.default_rng(11))
        second = engine.matmul(a, b, rng=np.random.default_rng(11))
        assert np.array_equal(first, second)

    def test_partials_actually_split_the_contraction(self):
        """Noisy sharded output differs from single-core noisy output
        (different per-slab normalisation and streams) but both stay
        within the noise envelope of the exact product."""
        a, b = operands(7, (6, 5, 24), (6, 24, 5))
        noise = NoiseModel.paper_default()
        sharded = contraction_engine(4, noise=noise).matmul(
            a, b, rng=np.random.default_rng(2)
        )
        single = DPTC(noise=noise).matmul(a, b, rng=np.random.default_rng(2))
        assert not np.allclose(sharded, single)

    def test_noise_statistics_match_single_core(self):
        model = NoiseModel(
            encoding=EncodingNoise(0.03, 2.0),
            systematic=SystematicNoise(0.05),
            include_dispersion=False,
        )
        a, b = operands(8, (8, 6, 24), (8, 24, 6))
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
        sharded = mean_error(contraction_engine(4, noise=model))
        assert sharded == pytest.approx(single, rel=0.3)

    def test_broadcast_weight_slab_shared_per_core(self):
        """A 2-D weight splits along K like the activations do."""
        a, b = operands(9, (6, 5, 25), (25, 4))
        engine = contraction_engine(4, noise=NoiseModel.paper_default())
        out = engine.matmul(a, b, rng=np.random.default_rng(8))
        assert out.shape == (6, 5, 4)
        exact = a @ b
        assert np.linalg.norm(out - exact) / np.linalg.norm(exact) < 0.5

    def test_unseeded_noisy_call_runs(self):
        a, b = operands(10, (4, 5, 12), (4, 12, 5))
        engine = contraction_engine(2, noise=NoiseModel.paper_default())
        out = engine.matmul(a, b)
        assert out.shape == (4, 5, 5)
        assert not np.allclose(out, np.matmul(a, b))


class TestPerCoreState:
    def test_calibrated_cores(self):
        """Per-core calibration survives the K split: on the
        deterministic dispersion-only path the calibrated sharded
        engine recovers the exact product slab by slab."""
        noise = NoiseModel(
            encoding=EncodingNoise(0.0, 0.0),
            systematic=SystematicNoise(0.0),
            include_dispersion=True,
        )
        a, b = operands(11, (6, 5, 24), (6, 24, 5))
        engine = contraction_engine(3, noise=noise, core_cls=CalibratedDPTC)
        assert all(isinstance(core, CalibratedDPTC) for core in engine.cores)
        exact = np.matmul(a, b)
        assert np.allclose(engine.matmul(a, b), exact, rtol=1e-9, atol=1e-9)

    def test_close_is_idempotent_and_pool_recreated(self):
        engine = contraction_engine(
            2, noise=NoiseModel.paper_default(), parallel=True
        )
        a, b = operands(12, (4, 3, 12), (4, 12, 3))
        first = engine.matmul(a, b, rng=np.random.default_rng(1))
        engine.close()
        engine.close()
        again = engine.matmul(a, b, rng=np.random.default_rng(1))
        assert np.array_equal(first, again)
        engine.close()

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedDPTC(num_cores=2, shard_axis="tile")
        with pytest.raises(ValueError):
            contraction_engine(2).matmul(np.ones(12), np.ones((12, 4)))
