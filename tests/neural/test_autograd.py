"""Tests for the autograd engine: every op against numerical gradients."""

import threading

import numpy as np
import pytest

from repro.neural import Tensor, broadcast_to, concatenate, gather_rows, no_grad, stack
from repro.neural.autograd import embedding_lookup, is_grad_enabled

from tests.neural.gradcheck import check_gradients


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestBasics:
    def test_tensor_wraps_array(self):
        t = Tensor([[1.0, 2.0]])
        assert t.shape == (1, 2)
        assert t.ndim == 2
        assert t.size == 2

    def test_item_scalar(self):
        assert Tensor(3.5).item() == 3.5

    def test_detach_drops_graph(self):
        t = Tensor([1.0], requires_grad=True)
        assert not (t * 2).detach().requires_grad

    def test_backward_requires_scalar(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_backward_on_leaf_without_grad_errors(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_no_grad_context(self):
        t = Tensor([1.0], requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            out = t * 2
        assert not out.requires_grad
        assert is_grad_enabled()

    def test_no_grad_is_per_thread(self):
        """Overlapping contexts in two threads (as two serving workers
        run them) neither leak across threads nor undo each other."""
        entered, leave = threading.Event(), threading.Event()

        def worker():
            with no_grad():
                entered.set()
                leave.wait(5.0)

        thread = threading.Thread(target=worker)
        thread.start()
        assert entered.wait(5.0)
        assert is_grad_enabled()
        with no_grad():
            leave.set()
            thread.join(5.0)
            assert not thread.is_alive()
            assert not is_grad_enabled()
        assert is_grad_enabled()


class TestArithmeticGradients:
    def test_add(self, rng):
        check_gradients(lambda t: (t + 3.0).sum(), rng.normal(size=(3, 4)))

    def test_mul(self, rng):
        other = rng.normal(size=(3, 4))
        check_gradients(lambda t: (t * Tensor(other)).sum(), rng.normal(size=(3, 4)))

    def test_div(self, rng):
        denom = rng.uniform(1, 2, size=(3, 4))
        check_gradients(lambda t: (t / Tensor(denom)).sum(), rng.normal(size=(3, 4)))

    def test_div_denominator_gradient(self, rng):
        numer = rng.normal(size=(3, 4))
        check_gradients(
            lambda t: (Tensor(numer) / t).sum(), rng.uniform(1, 2, size=(3, 4))
        )

    def test_neg_sub(self, rng):
        check_gradients(lambda t: (2.0 - t).sum(), rng.normal(size=(5,)))

    def test_pow(self, rng):
        check_gradients(lambda t: (t**3).sum(), rng.uniform(0.5, 2, size=(4,)))

    def test_matmul_left(self, rng):
        b = rng.normal(size=(4, 5))
        check_gradients(lambda t: (t @ Tensor(b)).sum(), rng.normal(size=(3, 4)))

    def test_matmul_right(self, rng):
        a = rng.normal(size=(3, 4))
        check_gradients(lambda t: (Tensor(a) @ t).sum(), rng.normal(size=(4, 5)))

    def test_batched_matmul(self, rng):
        b = rng.normal(size=(2, 4, 5))
        check_gradients(
            lambda t: (t @ Tensor(b)).sum(), rng.normal(size=(2, 3, 4))
        )

    def test_broadcast_add_gradient(self, rng):
        bias = rng.normal(size=(4,))
        check_gradients(
            lambda t: ((t + Tensor(bias)) ** 2).sum(), rng.normal(size=(3, 4))
        )

    def test_broadcast_bias_side(self, rng):
        x = rng.normal(size=(3, 4))
        check_gradients(lambda t: ((Tensor(x) + t) ** 2).sum(), rng.normal(size=(4,)))


class TestElementwiseGradients:
    def test_exp(self, rng):
        check_gradients(lambda t: t.exp().sum(), rng.normal(size=(3, 3)))

    def test_log(self, rng):
        check_gradients(lambda t: t.log().sum(), rng.uniform(0.5, 3, size=(3, 3)))

    def test_sqrt(self, rng):
        check_gradients(lambda t: t.sqrt().sum(), rng.uniform(0.5, 3, size=(4,)))

    def test_tanh(self, rng):
        check_gradients(lambda t: t.tanh().sum(), rng.normal(size=(3, 3)))

    def test_erf(self, rng):
        check_gradients(lambda t: t.erf().sum(), rng.normal(size=(3, 3)))

    def test_maximum(self, rng):
        other = rng.normal(size=(4, 4))
        check_gradients(
            lambda t: t.maximum(Tensor(other)).sum(), rng.normal(size=(4, 4)) + 0.1
        )


class TestShapeOpGradients:
    def test_reshape(self, rng):
        check_gradients(
            lambda t: (t.reshape(2, 6) ** 2).sum(), rng.normal(size=(3, 4))
        )

    def test_transpose(self, rng):
        w = rng.normal(size=(3, 4))
        check_gradients(
            lambda t: (t.transpose(1, 0) * Tensor(w.T)).sum(), rng.normal(size=(3, 4))
        )

    def test_swapaxes(self, rng):
        check_gradients(
            lambda t: (t.swapaxes(0, 2) ** 2).sum(), rng.normal(size=(2, 3, 4))
        )

    def test_getitem_slice(self, rng):
        check_gradients(lambda t: (t[1:3] ** 2).sum(), rng.normal(size=(5, 2)))

    def test_getitem_single_row(self, rng):
        check_gradients(lambda t: (t[0] ** 2).sum(), rng.normal(size=(4, 3)))

    def test_concatenate(self, rng):
        other = rng.normal(size=(2, 3))
        check_gradients(
            lambda t: (concatenate([t, Tensor(other)]) ** 2).sum(),
            rng.normal(size=(3, 3)),
        )

    def test_stack(self, rng):
        other = rng.normal(size=(3,))
        check_gradients(
            lambda t: (stack([t, Tensor(other)], axis=0) ** 2).sum(),
            rng.normal(size=(3,)),
        )

    def test_broadcast_to(self, rng):
        check_gradients(
            lambda t: (broadcast_to(t, (4, 2, 3)) ** 2).sum(),
            rng.normal(size=(1, 2, 3)),
        )

    def test_broadcast_to_values(self, rng):
        t = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
        out = broadcast_to(t, (5, 3))
        assert out.shape == (5, 3)
        assert np.allclose(out.data, np.broadcast_to(t.data, (5, 3)))
        out.sum().backward()
        assert np.allclose(t.grad, np.full((1, 3), 5.0))


class TestReductionGradients:
    def test_sum_all(self, rng):
        check_gradients(lambda t: (t**2).sum(), rng.normal(size=(3, 4)))

    def test_sum_axis(self, rng):
        check_gradients(
            lambda t: (t.sum(axis=0) ** 2).sum(), rng.normal(size=(3, 4))
        )

    def test_sum_keepdims(self, rng):
        check_gradients(
            lambda t: (t.sum(axis=1, keepdims=True) * t).sum(),
            rng.normal(size=(3, 4)),
        )

    def test_mean(self, rng):
        check_gradients(
            lambda t: (t.mean(axis=-1) ** 2).sum(), rng.normal(size=(3, 4))
        )


class TestGatherOps:
    def test_gather_rows_values(self):
        t = Tensor(np.arange(12.0).reshape(3, 4))
        out = gather_rows(t, np.array([1, 0, 3]))
        assert np.allclose(out.data, [1.0, 4.0, 11.0])

    def test_gather_rows_gradient(self, rng):
        idx = np.array([2, 0, 1])
        check_gradients(
            lambda t: (gather_rows(t, idx) ** 2).sum(), rng.normal(size=(3, 4))
        )

    def test_embedding_lookup_values(self):
        table = Tensor(np.arange(8.0).reshape(4, 2))
        out = embedding_lookup(table, np.array([3, 3, 0]))
        assert np.allclose(out.data, [[6, 7], [6, 7], [0, 1]])

    def test_embedding_lookup_gradient_accumulates_repeats(self):
        table = Tensor(np.zeros((4, 2)), requires_grad=True)
        out = embedding_lookup(table, np.array([1, 1, 2]))
        out.sum().backward()
        assert np.allclose(table.grad[1], [2.0, 2.0])  # used twice
        assert np.allclose(table.grad[2], [1.0, 1.0])
        assert np.allclose(table.grad[0], [0.0, 0.0])


class TestGraphMechanics:
    def test_gradient_accumulates_across_uses(self):
        t = Tensor([2.0], requires_grad=True)
        out = t * 3.0 + t * 4.0  # dt = 7
        out.sum().backward()
        assert np.allclose(t.grad, [7.0])

    def test_diamond_graph(self):
        t = Tensor([1.5], requires_grad=True)
        a = t * 2.0
        b = t * 3.0
        out = (a * b).sum()  # 6 t^2 -> d = 12 t = 18
        out.backward()
        assert np.allclose(t.grad, [18.0])

    def test_deep_chain_no_recursion_error(self):
        t = Tensor([1.0], requires_grad=True)
        out = t
        for _ in range(3000):
            out = out + 1.0
        out.sum().backward()
        assert np.allclose(t.grad, [1.0])

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).sum().backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None
