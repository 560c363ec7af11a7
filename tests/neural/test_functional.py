"""Tests for differentiable NN functions."""

import numpy as np
import pytest
from scipy.special import erf

from repro.neural import (
    Tensor,
    TinyViT,
    accuracy,
    cross_entropy,
    gelu,
    layer_norm,
    log_softmax,
    relu,
    softmax,
)
from repro.neural import autograd

from tests.neural.gradcheck import check_gradients


@pytest.fixture
def rng():
    return np.random.default_rng(1)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        out = softmax(Tensor(rng.normal(size=(4, 6))))
        assert np.allclose(out.data.sum(axis=-1), 1.0)

    def test_matches_reference(self, rng):
        x = rng.normal(size=(3, 5))
        expected = np.exp(x) / np.exp(x).sum(axis=-1, keepdims=True)
        assert np.allclose(softmax(Tensor(x)).data, expected)

    def test_shift_invariance(self, rng):
        x = rng.normal(size=(2, 4))
        assert np.allclose(
            softmax(Tensor(x)).data, softmax(Tensor(x + 100.0)).data
        )

    def test_large_values_stable(self):
        out = softmax(Tensor(np.array([[1000.0, 1000.0]])))
        assert np.allclose(out.data, 0.5)

    def test_gradient(self, rng):
        w = rng.normal(size=(2, 5))
        check_gradients(
            lambda t: (softmax(t) * Tensor(w)).sum(), rng.normal(size=(2, 5))
        )


class TestLogSoftmax:
    def test_consistent_with_softmax(self, rng):
        x = Tensor(rng.normal(size=(3, 4)))
        assert np.allclose(log_softmax(x).data, np.log(softmax(x).data))

    def test_gradient(self, rng):
        w = rng.normal(size=(2, 4))
        check_gradients(
            lambda t: (log_softmax(t) * Tensor(w)).sum(), rng.normal(size=(2, 4))
        )


class TestGELU:
    def test_matches_erf_form(self, rng):
        x = rng.normal(size=(10,))
        expected = 0.5 * x * (1 + erf(x / np.sqrt(2)))
        assert np.allclose(gelu(Tensor(x)).data, expected)

    def test_zero_fixed_point(self):
        assert gelu(Tensor([0.0])).data[0] == 0.0

    def test_asymptotics(self):
        assert gelu(Tensor([10.0])).data[0] == pytest.approx(10.0, rel=1e-6)
        assert gelu(Tensor([-10.0])).data[0] == pytest.approx(0.0, abs=1e-6)

    def test_gradient(self, rng):
        check_gradients(lambda t: gelu(t).sum(), rng.normal(size=(6,)))

    def test_tinyvit_forward_and_backward_match_scipy_erf(self, monkeypatch):
        """Every GELU activation of a TinyViT step, forward and backward,
        has the same bits with SciPy's erf in place of the port."""

        def step() -> list[np.ndarray]:
            model = TinyViT(seed=3)
            logits = model(np.random.default_rng(4).normal(size=(4, 16, 16)))
            cross_entropy(logits, np.array([0, 1, 2, 3])).backward()
            return [logits.data] + [param.grad for param in model.parameters()]

        ported = step()
        monkeypatch.setattr(autograd, "_erf", erf)
        for mine, scipys in zip(ported, step(), strict=True):
            np.testing.assert_array_equal(mine.view(np.int64), scipys.view(np.int64))


class TestErfMatchesSciPy:
    """``Tensor.erf`` is a numpy port of Cephes; ``scipy.special.erf`` is
    its bit oracle."""

    @staticmethod
    def assert_bits_equal(x: np.ndarray) -> None:
        np.testing.assert_array_equal(
            Tensor(x).erf().data.view(np.int64), erf(x).view(np.int64)
        )

    def test_normal_samples(self):
        rng = np.random.default_rng(27)
        scales = (0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0)
        self.assert_bits_equal(
            np.concatenate([rng.normal(scale=scale, size=120_000) for scale in scales])
        )

    def test_dense_sweep(self):
        self.assert_bits_equal(np.linspace(-40.0, 40.0, 1_600_001))

    def test_edge_values(self):
        edges = [0.0, 1.0, 8.0, np.inf, 5e-324, 1e300]
        edges += [np.nextafter(edge, direction) for edge in (1.0, 8.0) for direction in (0.0, 9.0)]
        x = np.array(edges + [-value for value in edges] + [np.nan])
        self.assert_bits_equal(x)
        assert list(Tensor([np.inf, -np.inf]).erf().data) == [1.0, -1.0]

    def test_scalar_and_empty_shapes(self):
        assert Tensor(0.5).erf().data.shape == ()
        self.assert_bits_equal(np.array(0.5))
        assert Tensor(np.ones((2, 0))).erf().data.shape == (2, 0)


class TestReLU:
    def test_values(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        assert np.allclose(out.data, [0.0, 0.0, 2.0])


class TestLayerNorm:
    def test_normalises(self, rng):
        x = Tensor(rng.normal(2.0, 3.0, size=(4, 8)))
        weight = Tensor(np.ones(8))
        bias = Tensor(np.zeros(8))
        out = layer_norm(x, weight, bias).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-7)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_affine_applied(self, rng):
        x = Tensor(rng.normal(size=(2, 4)))
        out = layer_norm(x, Tensor(np.full(4, 2.0)), Tensor(np.full(4, 1.0))).data
        assert np.allclose(out.mean(axis=-1), 1.0, atol=1e-6)

    def test_gradient_input(self, rng):
        weight = Tensor(rng.normal(size=(5,)))
        bias = Tensor(rng.normal(size=(5,)))
        check_gradients(
            lambda t: (layer_norm(t, weight, bias) ** 2).sum(),
            rng.normal(size=(3, 5)),
        )

    def test_gradient_weight(self, rng):
        x = Tensor(rng.normal(size=(3, 5)))
        bias = Tensor(np.zeros(5))
        check_gradients(
            lambda t: (layer_norm(x, t, bias) ** 2).sum(), rng.normal(size=(5,))
        )


class TestCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = Tensor(np.array([[10.0, -10.0], [-10.0, 10.0]]))
        loss = cross_entropy(logits, np.array([0, 1]))
        assert loss.item() < 1e-6

    def test_uniform_prediction(self):
        logits = Tensor(np.zeros((3, 4)))
        loss = cross_entropy(logits, np.array([0, 1, 2]))
        assert loss.item() == pytest.approx(np.log(4))

    def test_gradient(self, rng):
        labels = np.array([1, 0, 3])
        check_gradients(
            lambda t: cross_entropy(t, labels), rng.normal(size=(3, 4))
        )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3, 4))), np.array([0, 1]))
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 1, 2]))


class TestAccuracy:
    def test_perfect(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert accuracy(logits, np.array([0, 1])) == 1.0

    def test_half(self):
        logits = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert accuracy(logits, np.array([0, 1])) == 0.5

    def test_accepts_tensor(self):
        assert accuracy(Tensor([[2.0, 1.0]]), np.array([0])) == 1.0
