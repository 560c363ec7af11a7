"""Equivalence suite for the batched DPTC execution engine.

The vectorised whole-batch engine (:meth:`DPTC.matmul`) is validated
against the preserved per-matrix reference loop
(:meth:`DPTC.matmul_reference`) three ways:

* the ideal batched path is bit-exact with :func:`np.matmul`;
* the noisy batched path matches the reference loop *exactly* under a
  shared pre-sampled noise draw (the sampling order is preserved);
* with independent per-matrix sampling — the original engine's RNG
  discipline — the two paths match *distributionally* (mean/std of the
  relative error over seeds).

Mixed-rank broadcasting (2-D weight against stacked activations) must
follow numpy semantics throughout.
"""

import numpy as np
import pytest

from repro.core import DPTC, DPTCGeometry, NoiseModel
from repro.core.noise import EncodingNoise, SystematicNoise


@pytest.fixture
def ideal():
    return DPTC(noise=NoiseModel.ideal())


@pytest.fixture
def noisy():
    return DPTC(noise=NoiseModel.paper_default())


def random_operands(rng, a_shape, b_shape):
    return rng.normal(size=a_shape), rng.normal(size=b_shape)


BATCH_SHAPE_CASES = [
    ((4, 6), (6, 3)),  # plain 2-D
    ((5, 4, 6), (5, 6, 3)),  # matched 3-D batch
    ((5, 4, 6), (6, 3)),  # 3-D activations x 2-D weight
    ((4, 6), (5, 6, 3)),  # 2-D x 3-D
    ((2, 8, 5, 6), (2, 8, 6, 5)),  # [batch, heads, m, d] attention stack
    ((1, 4, 6), (5, 6, 3)),  # size-1 batch broadcast
    ((2, 1, 4, 6), (3, 6, 3)),  # nested broadcast
]


class TestIdealBatched:
    @pytest.mark.parametrize("a_shape,b_shape", BATCH_SHAPE_CASES)
    def test_bit_exact_with_numpy(self, ideal, a_shape, b_shape):
        a, b = random_operands(np.random.default_rng(0), a_shape, b_shape)
        out = ideal.matmul(a, b)
        assert out.shape == np.matmul(a, b).shape
        assert np.array_equal(out, np.matmul(a, b))

    @pytest.mark.parametrize("a_shape,b_shape", BATCH_SHAPE_CASES)
    def test_reference_loop_matches_numpy(self, ideal, a_shape, b_shape):
        a, b = random_operands(np.random.default_rng(1), a_shape, b_shape)
        assert np.allclose(ideal.matmul_reference(a, b), np.matmul(a, b))


class TestNoisyBatchedExactEquivalence:
    """Batched engine == reference loop under one shared noise draw."""

    @pytest.mark.parametrize("a_shape,b_shape", BATCH_SHAPE_CASES)
    def test_shared_draw_is_exact(self, noisy, a_shape, b_shape):
        rng = np.random.default_rng(2)
        a, b = random_operands(rng, a_shape, b_shape)
        draw = noisy.sample_noise(a.shape, b.shape, np.random.default_rng(3))
        fast = noisy.matmul(a, b, draw=draw)
        loop = noisy.matmul_reference(a, b, draw=draw)
        assert fast.shape == loop.shape
        assert np.allclose(fast, loop, rtol=1e-12, atol=1e-12)

    def test_shared_seed_is_exact(self, noisy):
        """Same seeded generator -> identical RNG stream -> same result."""
        rng = np.random.default_rng(4)
        a, b = random_operands(rng, (6, 5, 12), (6, 12, 4))
        fast = noisy.matmul(a, b, rng=np.random.default_rng(7))
        loop = noisy.matmul_reference(
            a, b, draw=noisy.sample_noise(a.shape, b.shape, np.random.default_rng(7))
        )
        assert np.allclose(fast, loop, rtol=1e-12, atol=1e-12)

    def test_two_dim_stream_matches_reference(self, noisy):
        """For 2-D operands the batched engine consumes the RNG exactly
        like the per-matrix path (the seed's single-matrix behaviour)."""
        rng = np.random.default_rng(5)
        a, b = random_operands(rng, (8, 24), (24, 6))
        fast = noisy.matmul(a, b, rng=np.random.default_rng(11))
        loop = noisy.matmul_reference(a, b, rng=np.random.default_rng(11))
        assert np.allclose(fast, loop, rtol=1e-12, atol=1e-12)


class TestNoisyBatchedDistributionalEquivalence:
    """Independent sampling orders agree in error statistics."""

    def test_error_mean_std_over_seeds(self, noisy):
        rng = np.random.default_rng(6)
        a, b = random_operands(rng, (8, 6, 12), (8, 12, 6))
        exact = np.matmul(a, b)
        scale = np.linalg.norm(exact)

        def errors(method):
            out = []
            for seed in range(25):
                result = method(a, b, rng=np.random.default_rng(100 + seed))
                out.append(np.linalg.norm(result - exact) / scale)
            return np.asarray(out)

        fast = errors(noisy.matmul)
        loop = errors(noisy.matmul_reference)
        assert fast.mean() == pytest.approx(loop.mean(), rel=0.25)
        assert fast.std() == pytest.approx(loop.std(), abs=0.5 * loop.std() + 1e-4)

    def test_unbiased_over_batch(self):
        model = NoiseModel(
            encoding=EncodingNoise(0.03, 2.0),
            systematic=SystematicNoise(0.05),
            include_dispersion=False,
        )
        dptc = DPTC(noise=model)
        rng = np.random.default_rng(8)
        a = rng.uniform(-1, 1, size=(4, 6, 12))
        b = rng.uniform(-1, 1, size=(4, 12, 6))
        acc = np.zeros((4, 6, 6))
        n = 400
        for _ in range(n):
            acc += dptc.matmul(a, b, rng=rng)
        assert np.allclose(acc / n, np.matmul(a, b), atol=0.06)


class TestBroadcastSemantics:
    def test_weight_encoded_once_per_batch(self, noisy):
        """A broadcast 2-D operand carries one noise realisation: the
        draw arrays live at the pre-broadcast shape."""
        a = np.random.default_rng(9).normal(size=(3, 4, 12))
        w = np.random.default_rng(10).normal(size=(12, 5))
        draw = noisy.sample_noise(a.shape, w.shape, np.random.default_rng(0))
        assert draw.magnitude_a.shape == (3, 4, 12)
        assert draw.magnitude_b.shape == (12, 5)
        assert draw.systematic.shape == (3, 4, 5)

    def test_vector_operands_rejected(self, noisy, ideal):
        for dptc in (noisy, ideal):
            with pytest.raises(ValueError):
                dptc.matmul(np.ones(12), np.ones((12, 4)))
            with pytest.raises(ValueError):
                dptc.matmul(np.ones((4, 12)), np.ones(12))

    def test_incompatible_batch_rejected(self, noisy, ideal):
        for dptc in (noisy, ideal):
            with pytest.raises(ValueError):
                dptc.matmul(np.ones((2, 4, 6)), np.ones((3, 6, 5)))

    def test_incompatible_contraction_rejected(self, noisy):
        with pytest.raises(ValueError):
            noisy.matmul(np.ones((2, 4, 6)), np.ones((2, 5, 3)))

    @pytest.mark.parametrize(
        "a_shape, b_shape, message",
        [
            ((12,), (12, 4), "operands must be at least 2-D"),
            ((4, 12), (12,), "operands must be at least 2-D"),
            ((2, 4, 6), (2, 5, 3), "incompatible matmul shapes"),
            ((2, 4, 6), (3, 6, 5), "batch dims not broadcastable"),
        ],
    )
    def test_ideal_and_noisy_errors_agree(self, noisy, ideal, a_shape, b_shape, message):
        """The ideal branch leaves shape checks to the plain product but
        reports every mismatch with the same message as the noisy one."""
        messages = []
        for dptc in (noisy, ideal):
            with pytest.raises(ValueError, match=message) as info:
                dptc.matmul(np.ones(a_shape), np.ones(b_shape))
            messages.append(str(info.value))
        assert messages[0] == messages[1]


class TestZeroSliceMasking:
    def test_zero_slices_stay_zero(self, noisy):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(4, 5, 12))
        b = rng.normal(size=(4, 12, 5))
        a[1] = 0.0
        b[3] = 0.0
        out = noisy.matmul(a, b, rng=np.random.default_rng(0))
        assert np.array_equal(out[1], np.zeros((5, 5)))
        assert np.array_equal(out[3], np.zeros((5, 5)))
        assert not np.allclose(out[0], 0.0)

    def test_zero_operand_consumes_no_rng(self, noisy):
        """An all-zero operand short-circuits before sampling, like the
        reference loop, so a shared generator stays stream-aligned."""
        rng_fast = np.random.default_rng(21)
        rng_loop = np.random.default_rng(21)
        b = np.ones((12, 4))
        assert np.array_equal(
            noisy.matmul(np.zeros((4, 12)), b, rng=rng_fast), np.zeros((4, 4))
        )
        assert np.array_equal(
            noisy.matmul_reference(np.zeros((4, 12)), b, rng=rng_loop),
            np.zeros((4, 4)),
        )
        a2 = np.random.default_rng(22).normal(size=(4, 12))
        assert np.allclose(
            noisy.matmul(a2, b, rng=rng_fast),
            noisy.matmul_reference(a2, b, rng=rng_loop),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_zero_slices_match_reference(self, noisy):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(3, 4, 12))
        b = rng.normal(size=(3, 12, 4))
        a[0] = 0.0
        draw = noisy.sample_noise(a.shape, b.shape, np.random.default_rng(1))
        assert np.allclose(
            noisy.matmul(a, b, draw=draw),
            noisy.matmul_reference(a, b, draw=draw),
            rtol=1e-12,
            atol=1e-12,
        )


class TestGeometryIndependence:
    def test_wavelength_profile_follows_contraction(self):
        """Dispersion tracks the contraction dim identically in batched
        and reference paths (cyclic channel assignment)."""
        noise = NoiseModel(
            encoding=EncodingNoise(0.0, 0.0),
            systematic=SystematicNoise(0.0),
            include_dispersion=True,
        )
        dptc = DPTC(DPTCGeometry(12, 12, 8), noise=noise)
        rng = np.random.default_rng(14)
        a = rng.normal(size=(3, 6, 20))
        b = rng.normal(size=(3, 20, 6))
        # Deterministic model: no RNG consumed, exact agreement expected.
        assert np.allclose(
            dptc.matmul(a, b),
            dptc.matmul_reference(a, b),
            rtol=1e-12,
            atol=1e-12,
        )
