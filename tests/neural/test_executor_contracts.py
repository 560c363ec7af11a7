"""Executor contracts of the lean inference path.

Under ``no_grad`` the executor attaches no autograd nodes, yet returns
the same bits as the grad-recording path; noise-aware training is
unchanged (losses pinned bit-for-bit as ``float.hex``).
"""

import numpy as np
import pytest

from repro.neural import PhotonicExecutor, QuantConfig, Tensor, no_grad
from repro.neural.data import striped_image_dataset
from repro.neural.train import train_classifier
from repro.neural.vision import TinyViT


def _bits(array: np.ndarray) -> np.ndarray:
    return np.asarray(array, dtype=float).view(np.uint64)


@pytest.fixture(
    params=[
        lambda: PhotonicExecutor.digital_reference(),
        lambda: PhotonicExecutor.digital_reference(QuantConfig.int8()),
        lambda: PhotonicExecutor.ideal(),
        lambda: PhotonicExecutor.paper_default(seed=3),
    ],
    ids=["int4", "int8", "ideal", "noisy"],
)
def make_executor(request):
    return request.param


class TestNoGradContract:
    @pytest.mark.parametrize("weight_operand", [None, 0, 1])
    @pytest.mark.parametrize("frozen", [False, True])
    def test_graph_free_and_bit_equal(self, make_executor, weight_operand, frozen):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 2, 8))
        b = rng.normal(size=(8, 5))
        if frozen:
            b.setflags(write=False)
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        graph = make_executor().matmul(ta, tb, weight_operand=weight_operand)
        assert graph.requires_grad and graph._parents
        with no_grad():
            out = make_executor().matmul(
                Tensor(a, requires_grad=True),
                Tensor(b, requires_grad=True),
                weight_operand=weight_operand,
            )
        assert type(out) is Tensor
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
        np.testing.assert_array_equal(_bits(out.data), _bits(graph.data))

    def test_no_grad_inputs_record_nothing_with_grad_on(self):
        rng = np.random.default_rng(1)
        executor = PhotonicExecutor.digital_reference()
        out = executor.matmul(
            Tensor(rng.normal(size=(2, 4))), Tensor(rng.normal(size=(4, 3)))
        )
        assert not out.requires_grad and out._parents == ()

    def test_straight_through_gradients_unchanged(self):
        """The recorded graph still routes ideal-product gradients to
        the original (unquantized) leaves."""
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        b = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        executor = PhotonicExecutor.digital_reference()
        executor.matmul(a, b, weight_operand=1).sum().backward()
        qa = executor._quantize(a.data, 4, weight=False)
        qb = executor._quantize(b.data, 4, weight=True)
        ones = np.ones((4, 3))
        np.testing.assert_array_equal(a.grad, ones @ qb.T)
        np.testing.assert_array_equal(b.grad, qa.T @ ones)


class TestNoisyTrainingPinned:
    def test_losses_match_recorded_bits(self):
        """Two epochs on a noisy two-core executor: losses and accuracy
        equal the values recorded before the lean path existed."""
        data = striped_image_dataset(n_samples=24, image_size=8, n_classes=2, seed=3)
        model = TinyViT(
            image_size=8,
            patch_size=4,
            dim=16,
            depth=1,
            heads=2,
            n_classes=2,
            executor=PhotonicExecutor.paper_default(seed=7, num_cores=2),
            seed=5,
        )
        result = train_classifier(model, data, epochs=2, batch_size=8, seed=11)
        assert [loss.hex() for loss in result.losses] == [
            "0x1.24dcfc0e1b74dp-2",
            "0x1.92f32b7afa7abp-4",
        ]
        assert float(result.train_accuracy).hex() == "0x1.0000000000000p+0"
