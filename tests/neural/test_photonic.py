"""Tests for the photonic matmul executor (quantization + noise + STE)."""

import gc

import numpy as np
import pytest

from repro.core import DPTCGeometry, NoiseModel
from repro.neural import PhotonicExecutor, QuantConfig, Tensor
from repro.neural import photonic, quantization
from repro.neural.quantization import quantize_array
from repro.neural.train import Adam


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestIdealExecutor:
    def test_exact(self, rng):
        executor = PhotonicExecutor.ideal()
        a = rng.normal(size=(5, 8))
        b = rng.normal(size=(8, 3))
        out = executor.matmul(Tensor(a), Tensor(b))
        assert np.allclose(out.data, a @ b)

    def test_batched(self, rng):
        executor = PhotonicExecutor.ideal()
        a = rng.normal(size=(2, 4, 6))
        b = rng.normal(size=(2, 6, 5))
        out = executor.matmul(Tensor(a), Tensor(b))
        assert out.shape == (2, 4, 5)
        assert np.allclose(out.data, a @ b)

    def test_batch_mismatch_rejected(self, rng):
        executor = PhotonicExecutor.ideal()
        with pytest.raises(ValueError):
            executor.matmul(
                Tensor(rng.normal(size=(2, 4, 6))),
                Tensor(rng.normal(size=(3, 6, 5))),
            )

    def test_mixed_rank_broadcasts(self, rng):
        """3-D activations against a 2-D weight follow numpy semantics."""
        executor = PhotonicExecutor.ideal()
        a = rng.normal(size=(2, 4, 6))
        b = rng.normal(size=(6, 5))
        out = executor.matmul(Tensor(a), Tensor(b))
        assert out.shape == (2, 4, 5)
        assert np.array_equal(out.data, a @ b)

    def test_four_dim_attention_stack(self, rng):
        """[batch, heads, tokens, dim] stacks run in one call."""
        executor = PhotonicExecutor.ideal()
        a = rng.normal(size=(2, 3, 5, 4))
        b = rng.normal(size=(2, 3, 4, 5))
        out = executor.matmul(Tensor(a), Tensor(b))
        assert out.shape == (2, 3, 5, 5)
        assert np.array_equal(out.data, a @ b)

    def test_vector_operands_rejected(self, rng):
        executor = PhotonicExecutor.ideal()
        with pytest.raises(ValueError):
            executor.matmul(
                Tensor(rng.normal(size=(6,))), Tensor(rng.normal(size=(6, 5)))
            )


class TestShardedExecutor:
    """The num_cores knob routes matmuls through a ShardedDPTC grid."""

    def test_single_core_keeps_plain_dptc(self):
        from repro.core import DPTC

        assert isinstance(PhotonicExecutor.ideal()._dptc, DPTC)

    def test_multi_core_builds_sharded_grid(self):
        from repro.core import ShardedDPTC

        executor = PhotonicExecutor.ideal(num_cores=4)
        assert isinstance(executor._dptc, ShardedDPTC)
        assert executor._dptc.num_cores == 4

    @pytest.mark.parametrize("num_cores", [1, 2, 4, 8])
    def test_ideal_bit_exact_at_every_core_count(self, rng, num_cores):
        executor = PhotonicExecutor.ideal(num_cores=num_cores)
        a = rng.normal(size=(6, 4, 8))
        b = rng.normal(size=(6, 8, 3))
        out = executor.matmul(Tensor(a), Tensor(b))
        assert np.array_equal(out.data, a @ b)

    def test_noisy_sharded_reproducible(self, rng):
        a = Tensor(rng.normal(size=(6, 4, 12)))
        b = Tensor(rng.normal(size=(6, 12, 4)))
        first = PhotonicExecutor.paper_default(seed=3, num_cores=4).matmul(a, b)
        second = PhotonicExecutor.paper_default(seed=3, num_cores=4).matmul(a, b)
        assert np.array_equal(first.data, second.data)

    def test_sharded_gradients_flow(self, rng):
        executor = PhotonicExecutor.paper_default(seed=0, num_cores=2)
        a = Tensor(rng.normal(size=(4, 3, 6)), requires_grad=True)
        b = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
        executor.matmul(a, b).sum().backward()
        assert a.grad is not None and b.grad is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            PhotonicExecutor(num_cores=0)


class TestContractionAndBackendKnobs:
    """shard_axis threads through to the ShardedDPTC grid."""

    def test_contraction_grid_built(self):
        from repro.core import ShardedDPTC

        executor = PhotonicExecutor.ideal(num_cores=4, shard_axis="contraction")
        assert isinstance(executor._dptc, ShardedDPTC)
        assert executor._dptc.shard_axis == "contraction"

    @pytest.mark.parametrize("num_cores", [1, 2, 4])
    def test_contraction_ideal_bit_exact(self, rng, num_cores):
        executor = PhotonicExecutor.ideal(num_cores=num_cores, shard_axis="contraction")
        a = rng.normal(size=(5, 4, 25))  # d=25: non-divisible splits
        b = rng.normal(size=(5, 25, 3))
        out = executor.matmul(Tensor(a), Tensor(b))
        assert np.array_equal(out.data, a @ b)

    def test_noisy_contraction_reproducible(self, rng):
        a = Tensor(rng.normal(size=(6, 4, 25)))
        b = Tensor(rng.normal(size=(6, 25, 4)))
        first = PhotonicExecutor.paper_default(
            seed=3, num_cores=4, shard_axis="contraction"
        ).matmul(a, b)
        second = PhotonicExecutor.paper_default(
            seed=3, num_cores=4, shard_axis="contraction"
        ).matmul(a, b)
        assert np.array_equal(first.data, second.data)

    def test_single_core_ignores_knobs_with_plain_dptc(self):
        from repro.core import DPTC

        executor = PhotonicExecutor.ideal(shard_axis="contraction")
        assert isinstance(executor._dptc, DPTC)

    def test_close_is_safe_on_single_core(self):
        PhotonicExecutor.ideal().close()

    def test_close_releases_sharded_pool(self, rng):
        executor = PhotonicExecutor.paper_default(
            seed=0, num_cores=2, backend="thread"
        )
        a = Tensor(rng.normal(size=(4, 3, 12)))
        b = Tensor(rng.normal(size=(4, 12, 3)))
        executor.matmul(a, b)
        assert executor._dptc._pool is not None
        executor.close()
        assert executor._dptc._pool is None

    def test_default_backend_runs_cores_on_the_caller(self, rng):
        executor = PhotonicExecutor.paper_default(seed=0, num_cores=2)
        a = Tensor(rng.normal(size=(4, 3, 12)))
        b = Tensor(rng.normal(size=(4, 12, 3)))
        executor.matmul(a, b)
        assert executor._dptc._pool is None

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            PhotonicExecutor(shard_axis="tile")

    def test_paper_default_accepts_only_the_thread_backend(self):
        with pytest.raises(ValueError, match="backend"):
            PhotonicExecutor.paper_default(num_cores=2, backend="process")


class TestDigitalReference:
    def test_applies_quantization_only(self, rng):
        executor = PhotonicExecutor.digital_reference(QuantConfig.int4())
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(6, 4))
        out = executor.matmul(Tensor(a), Tensor(b))
        expected = quantize_array(a, 4) @ quantize_array(b, 4)
        assert np.allclose(out.data, expected)

    def test_weight_operand_bits(self, rng):
        executor = PhotonicExecutor.digital_reference(QuantConfig(8, 4))
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(6, 4))
        out = executor.matmul(Tensor(a), Tensor(b), weight_operand=1)
        expected = quantize_array(a, 4) @ quantize_array(b, 8)
        assert np.allclose(out.data, expected)


class TestNoisyExecutor:
    def test_noise_applied(self, rng):
        executor = PhotonicExecutor.paper_default(seed=1)
        a = rng.normal(size=(6, 12))
        b = rng.normal(size=(12, 6))
        out = executor.matmul(Tensor(a), Tensor(b))
        reference = quantize_array(a, 4) @ quantize_array(b, 4)
        assert not np.allclose(out.data, reference)
        rel = np.linalg.norm(out.data - reference) / np.linalg.norm(reference)
        assert rel < 0.3

    def test_seeded_reproducibility(self, rng):
        a = Tensor(rng.normal(size=(4, 8)))
        b = Tensor(rng.normal(size=(8, 4)))
        out1 = PhotonicExecutor.paper_default(seed=7).matmul(a, b)
        out2 = PhotonicExecutor.paper_default(seed=7).matmul(a, b)
        assert np.allclose(out1.data, out2.data)

    def test_wavelength_count_controls_dispersion(self, rng):
        """More WDM channels -> wider dispersion profile (Fig. 14 axis)."""
        noise = NoiseModel(
            encoding=NoiseModel.ideal().encoding,
            systematic=NoiseModel.ideal().systematic,
            include_dispersion=True,
        )
        a = rng.normal(size=(8, 24))
        b = rng.normal(size=(24, 8))
        errors = []
        for n_lambda in (6, 26):
            executor = PhotonicExecutor(
                geometry=DPTCGeometry(12, 12, n_lambda), noise=noise, quant=None
            )
            out = executor.matmul(Tensor(a), Tensor(b))
            errors.append(np.linalg.norm(out.data - a @ b))
        assert errors[1] > errors[0]


class TestStraightThroughGradients:
    def test_gradients_are_ideal_product(self, rng):
        """Backward ignores noise: grads equal the clean matmul grads of
        the quantized operands."""
        executor = PhotonicExecutor.paper_default(seed=3)
        a = Tensor(rng.normal(size=(3, 12)), requires_grad=True)
        b = Tensor(rng.normal(size=(12, 2)), requires_grad=True)
        out = executor.matmul(a, b)
        out.sum().backward()
        grad_out = np.ones((3, 2))
        qa = quantize_array(a.data, 4)
        qb = quantize_array(b.data, 4)
        assert np.allclose(a.grad, grad_out @ qb.T)
        assert np.allclose(b.grad, qa.T @ grad_out)

    def test_gradients_flow_in_ideal_mode(self, rng):
        executor = PhotonicExecutor.ideal()
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        executor.matmul(a, b).sum().backward()
        assert a.grad is not None and b.grad is not None


class TestContextManager:
    def test_with_block_returns_the_executor(self):
        with PhotonicExecutor.ideal() as executor:
            a = Tensor(np.ones((2, 3)))
            b = Tensor(np.ones((3, 2)))
            assert np.array_equal(executor.matmul(a, b).data, np.full((2, 2), 3.0))

    def test_exit_closes_the_sharded_pool(self):
        pooled = PhotonicExecutor(quant=None, num_cores=2, parallel=True)
        with pooled as executor:
            a = Tensor(np.ones((4, 2, 3)))
            b = Tensor(np.ones((4, 3, 2)))
            executor.matmul(a, b)
            assert executor._dptc._pool is not None
        assert executor._dptc._pool is None
        executor.close()  # already closed by __exit__; stays a no-op

    def test_exit_propagates_exceptions(self):
        with pytest.raises(RuntimeError):
            with PhotonicExecutor(num_cores=2, parallel=True):
                raise RuntimeError("boom")


def frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@pytest.fixture
def quantize_calls(monkeypatch):
    """Every array handed to ``quantize_array``, in call order."""
    calls = []
    original = quantization.quantize_array

    def counting(values, bits, per_matrix=False):
        calls.append(values)
        return original(values, bits, per_matrix=per_matrix)

    monkeypatch.setattr(quantization, "quantize_array", counting)
    return calls


def calls_on(calls, array) -> int:
    return sum(values is array for values in calls)


def memo_entries_since(snapshot: dict) -> dict:
    """Entries of the process-wide grid memo stored after ``snapshot``."""
    return {
        key: entry
        for key, entry in photonic._GRID_MEMO.items()
        if snapshot.get(key) is not entry
    }


class TestWeightMemo:
    """A read-only, owning weight array is quantized once per process;
    anything else is quantized afresh on every call."""

    def operands(self, executor, monkeypatch):
        """Record the (quantized) operands the executor runs on the DPTC."""
        seen = []
        execute = executor._execute

        def recording(a, b):
            seen.append((a, b))
            return execute(a, b)

        monkeypatch.setattr(executor, "_execute", recording)
        return seen

    def test_hit_is_bit_equal_and_read_only(self, rng, monkeypatch):
        executor = PhotonicExecutor.digital_reference()
        seen = self.operands(executor, monkeypatch)
        w = frozen(rng.normal(size=(6, 4)))
        x = Tensor(rng.normal(size=(3, 6)))
        miss = executor.matmul(x, Tensor(w), weight_operand=1)
        hit = executor.matmul(x, Tensor(w), weight_operand=1)
        fresh = quantize_array(w, 4, per_matrix=True)
        for _, operand in seen:
            np.testing.assert_array_equal(operand, fresh)
            assert not operand.flags.writeable
        np.testing.assert_array_equal(hit.data, miss.data)

    def test_second_call_skips_quantization(self, rng, quantize_calls):
        executor = PhotonicExecutor.digital_reference()
        w = frozen(rng.normal(size=(6, 4)))
        x = rng.normal(size=(3, 6))
        for _ in range(3):
            executor.matmul(Tensor(x), Tensor(w), weight_operand=1)
        assert calls_on(quantize_calls, w) == 1
        assert calls_on(quantize_calls, x) == 3  # activations every call

    def test_weight_on_the_left_is_memoized_too(self, rng, quantize_calls):
        executor = PhotonicExecutor.digital_reference()
        w = frozen(rng.normal(size=(4, 6)))
        for _ in range(2):
            executor.matmul(Tensor(w), Tensor(rng.normal(size=(6, 3))), weight_operand=0)
        assert calls_on(quantize_calls, w) == 1

    def test_activation_side_is_never_memoized(self, rng, quantize_calls):
        executor = PhotonicExecutor.digital_reference()
        x = frozen(rng.normal(size=(3, 6)))
        for _ in range(2):
            executor.matmul(Tensor(x), Tensor(rng.normal(size=(6, 4))), weight_operand=1)
        assert calls_on(quantize_calls, x) == 2

    def test_writeable_weights_are_never_memoized(self, rng, quantize_calls):
        executor = PhotonicExecutor.digital_reference()
        w = rng.normal(size=(6, 4))
        x = Tensor(rng.normal(size=(3, 6)))
        before = executor.matmul(x, Tensor(w), weight_operand=1).data
        w *= -2.0  # in place: a memo keyed on identity would go stale
        after = executor.matmul(x, Tensor(w), weight_operand=1).data
        expected = PhotonicExecutor.digital_reference().matmul(
            x, Tensor(w.copy()), weight_operand=1
        )
        np.testing.assert_array_equal(after, expected.data)
        assert not np.array_equal(after, before)
        assert calls_on(quantize_calls, w) == 2

    def test_views_of_a_frozen_base_are_never_memoized(self, rng, quantize_calls):
        executor = PhotonicExecutor.digital_reference()
        base = frozen(rng.normal(size=(6, 8)))
        view = base[:, :4]
        assert not view.flags.writeable and not view.flags.owndata
        for _ in range(2):
            executor.matmul(Tensor(rng.normal(size=(3, 6))), Tensor(view), weight_operand=1)
        assert calls_on(quantize_calls, view) == 2

    def test_different_weight_bits_miss(self, rng, quantize_calls):
        executor = PhotonicExecutor.digital_reference(QuantConfig(4, 4))
        w = frozen(rng.normal(size=(6, 4)))
        x = Tensor(rng.normal(size=(3, 6)))
        executor.matmul(x, Tensor(w), weight_operand=1)
        executor.quant = QuantConfig(8, 4)
        int8 = executor.matmul(x, Tensor(w), weight_operand=1)
        assert calls_on(quantize_calls, w) == 2
        expected = PhotonicExecutor.digital_reference(QuantConfig(8, 4)).matmul(
            x, Tensor(w.copy()), weight_operand=1
        )
        np.testing.assert_array_equal(int8.data, expected.data)

    def test_ste_gradients_match_unmemoized(self, rng):
        x = rng.normal(size=(3, 6))
        w = frozen(rng.normal(size=(6, 4)))

        def grads(weight):
            executor = PhotonicExecutor.paper_default(seed=5)
            tensors = []
            for _ in range(2):  # the second call is a memo hit
                a = Tensor(x, requires_grad=True)
                b = Tensor(weight, requires_grad=True)
                executor.matmul(a, b, weight_operand=1).sum().backward()
                tensors.append((a.grad, b.grad))
            return tensors

        for memoized, plain in zip(grads(w), grads(w.copy())):
            np.testing.assert_array_equal(memoized[0], plain[0])
            np.testing.assert_array_equal(memoized[1], plain[1])

    def test_adam_updates_leave_no_dead_entries(self, rng):
        """Adam rebinds ``param.data`` every step; frozen after each step,
        every step's array is a fresh memo key, and each old entry dies
        with its array.  Training stays bit-equal to the unmemoized run."""
        x = rng.normal(size=(8, 6))
        w0 = rng.normal(size=(6, 4))

        def train(freeze):
            executor = PhotonicExecutor.digital_reference()
            param = Tensor(w0.copy(), requires_grad=True)
            optimizer = Adam([param], lr=1e-2)
            for _ in range(50):
                if freeze:
                    param.data.setflags(write=False)
                optimizer.zero_grad()
                out = executor.matmul(Tensor(x), param, weight_operand=1)
                (out * out).sum().backward()
                optimizer.step()
            return executor, param.data

        snapshot = dict(photonic._GRID_MEMO)
        executor, trained = train(freeze=True)
        gc.collect()
        entries = memo_entries_since(snapshot)
        assert all(ref() is not None for ref, _ in entries.values())
        assert len(entries) <= 1
        np.testing.assert_array_equal(trained, train(freeze=False)[1])

    def test_entry_dies_with_its_array(self, rng):
        snapshot = dict(photonic._GRID_MEMO)
        executor = PhotonicExecutor.digital_reference()
        w = frozen(rng.normal(size=(6, 4)))
        executor.matmul(Tensor(rng.normal(size=(3, 6))), Tensor(w), weight_operand=1)
        assert len(memo_entries_since(snapshot)) == 1
        del w
        gc.collect()
        assert memo_entries_since(snapshot) == {}

    def test_executors_share_one_grid(self, rng, quantize_calls):
        """The memo is process-wide: a second executor hits the grid the
        first one stored, as every core sees one broadcast weight."""
        w = frozen(rng.normal(size=(6, 4)))
        x = Tensor(rng.normal(size=(3, 6)))
        first, second = (PhotonicExecutor.digital_reference() for _ in range(2))
        outputs = [
            executor.matmul(x, Tensor(w), weight_operand=1).data
            for executor in (first, second, first, second)
        ]
        assert calls_on(quantize_calls, w) == 1
        for output in outputs[1:]:
            np.testing.assert_array_equal(output, outputs[0])

    def test_each_precision_gets_its_own_grid(self, rng, quantize_calls):
        snapshot = dict(photonic._GRID_MEMO)
        w = frozen(rng.normal(size=(6, 4)))
        x = Tensor(rng.normal(size=(3, 6)))
        for weight_bits in (4, 8, 4, 8):
            PhotonicExecutor.digital_reference(QuantConfig(weight_bits, 4)).matmul(
                x, Tensor(w), weight_operand=1
            )
        assert calls_on(quantize_calls, w) == 2
        entries = memo_entries_since(snapshot)
        assert set(entries) == {(id(w), 4), (id(w), 8)}
        int4, int8 = entries[(id(w), 4)][1], entries[(id(w), 8)][1]
        np.testing.assert_array_equal(int4, quantize_array(w, 4, per_matrix=True))
        np.testing.assert_array_equal(int8, quantize_array(w, 8, per_matrix=True))
        assert not np.array_equal(int4, int8)
