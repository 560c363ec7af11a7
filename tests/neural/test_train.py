"""Tests for the optimizer, datasets, and training loop."""

import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import repro.neural.train as train_module
from repro.neural import (
    Adam,
    Dataset,
    PhotonicExecutor,
    Tensor,
    TinyBERT,
    TinyViT,
    evaluate,
    striped_image_dataset,
    token_order_dataset,
    train_classifier,
)
from tests.neural.reference_train import train_classifier_reference


class TestAdam:
    def test_minimises_quadratic(self):
        x = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        optimizer = Adam([x], lr=0.1)
        for _ in range(300):
            optimizer.zero_grad()
            loss = (x * x).sum()
            loss.backward()
            optimizer.step()
        assert np.allclose(x.data, 0.0, atol=1e-3)

    def test_skips_parameters_without_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        optimizer = Adam([x], lr=0.1)
        optimizer.step()  # no gradient accumulated -> no change
        assert np.allclose(x.data, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)
        with pytest.raises(ValueError):
            Adam([Tensor(np.ones(1), requires_grad=True)], lr=0.0)


class TestDatasets:
    def test_striped_images_shape_and_range(self):
        data = striped_image_dataset(n_samples=50, image_size=16, n_classes=4)
        assert data.inputs.shape == (50, 16, 16)
        assert np.max(np.abs(data.inputs)) <= 1.0
        assert data.labels.shape == (50,)
        assert data.n_classes == 4

    def test_striped_images_deterministic(self):
        a = striped_image_dataset(n_samples=10, seed=5)
        b = striped_image_dataset(n_samples=10, seed=5)
        assert np.allclose(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_token_order_markers_present(self):
        data = token_order_dataset(n_samples=30, seq_len=12)
        for sequence, label in zip(data.inputs, data.labels):
            assert sequence[0] == 0  # CLS
            (pos_a,) = np.where(sequence == 1)[0:1]
            positions_1 = np.where(sequence == 1)[0]
            positions_2 = np.where(sequence == 2)[0]
            assert len(positions_1) == 1 and len(positions_2) == 1
            assert label == int(positions_1[0] < positions_2[0])

    def test_token_order_balanced(self):
        data = token_order_dataset(n_samples=400, seed=0)
        assert 0.4 < data.labels.mean() < 0.6

    def test_split(self):
        data = striped_image_dataset(n_samples=50)
        train, test = data.split(0.8)
        assert len(train) == 40 and len(test) == 10

    def test_split_validation(self):
        data = striped_image_dataset(n_samples=10)
        with pytest.raises(ValueError):
            data.split(0.0)

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int), 2)
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.array([0, 1, 5]), 2)

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            striped_image_dataset(n_samples=0)
        with pytest.raises(ValueError):
            token_order_dataset(seq_len=2)


class TestTrainingLoop:
    def test_vit_learns_stripes(self):
        """End-to-end: the ViT separates grating orientations."""
        data = striped_image_dataset(n_samples=120, n_classes=4, seed=1)
        train, test = data.split(0.75)
        model = TinyViT(n_classes=4, depth=1, seed=0)
        result = train_classifier(model, train, epochs=4, lr=5e-3, seed=0)
        assert result.losses[-1] < result.losses[0]
        assert evaluate(model, test) > 0.7

    def test_bert_learns_token_order(self):
        data = token_order_dataset(n_samples=200, seq_len=10, seed=2)
        train, test = data.split(0.8)
        model = TinyBERT(seq_len=10, depth=2, seed=0)
        result = train_classifier(model, train, epochs=8, lr=5e-3, seed=0)
        assert result.losses[-1] < result.losses[0]
        assert evaluate(model, test) > 0.8

    def test_noise_aware_training_runs(self):
        """Training with the noisy forward (paper's noise-aware recipe)."""
        data = striped_image_dataset(n_samples=40, n_classes=2, seed=3)
        model = TinyViT(
            n_classes=2, depth=1, executor=PhotonicExecutor.paper_default(seed=0),
            seed=0,
        )
        result = train_classifier(model, data, epochs=2, lr=5e-3, seed=0)
        assert result.losses[-1] < result.losses[0]

    def test_training_validation(self):
        data = striped_image_dataset(n_samples=10)
        model = TinyViT(depth=1)
        with pytest.raises(ValueError):
            train_classifier(model, data, epochs=0)


class TestBatchedLoopEquivalence:
    """The batched minibatch loop reproduces the seed per-sample loop."""

    def test_vit_losses_match_reference_exactly(self):
        data = striped_image_dataset(n_samples=24, n_classes=4, seed=1)
        batched = train_classifier(
            TinyViT(n_classes=4, depth=1, seed=0), data, epochs=2, lr=5e-3, seed=0
        )
        reference = train_classifier_reference(
            TinyViT(n_classes=4, depth=1, seed=0), data, epochs=2, lr=5e-3, seed=0
        )
        assert batched.losses == pytest.approx(reference.losses, abs=1e-10)
        assert batched.train_accuracy == reference.train_accuracy

    def test_bert_losses_match_reference_exactly(self):
        data = token_order_dataset(n_samples=24, seq_len=8, seed=2)
        batched = train_classifier(
            TinyBERT(seq_len=8, depth=1, seed=0), data, epochs=2, lr=5e-3, seed=0
        )
        reference = train_classifier_reference(
            TinyBERT(seq_len=8, depth=1, seed=0), data, epochs=2, lr=5e-3, seed=0
        )
        assert batched.losses == pytest.approx(reference.losses, abs=1e-10)

    def test_ragged_final_minibatch(self):
        """Dataset size not divisible by batch_size trains fine."""
        data = striped_image_dataset(n_samples=19, n_classes=2, seed=4)
        result = train_classifier(
            TinyViT(n_classes=2, depth=1, seed=0),
            data,
            epochs=1,
            batch_size=8,
            seed=0,
        )
        assert len(result.losses) == 1

    def test_sharded_executor_training_runs(self):
        """Noise-aware training through a multi-core sharded executor."""
        data = striped_image_dataset(n_samples=24, n_classes=2, seed=3)
        model = TinyViT(
            n_classes=2,
            depth=1,
            executor=PhotonicExecutor.paper_default(seed=0, num_cores=2),
            seed=0,
        )
        result = train_classifier(model, data, epochs=2, lr=5e-3, seed=0)
        assert result.losses[-1] < result.losses[0]


class TestEvaluate:
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_evaluate_keeps_the_callers_mode(self, training):
        data = striped_image_dataset(n_samples=5, n_classes=2)
        model = TinyViT(n_classes=2, depth=1)
        model.train()
        if not training:
            model.eval()
        evaluate(model, data)
        assert model.training is training
        assert model.blocks[0].ffn.drop.training is training

    def test_accuracy_in_unit_interval(self):
        data = striped_image_dataset(n_samples=8, n_classes=2)
        model = TinyViT(n_classes=2, depth=1)
        assert 0.0 <= evaluate(model, data) <= 1.0

    def test_batched_matches_per_sample_accuracy(self):
        data = striped_image_dataset(n_samples=11, n_classes=2, seed=6)
        model = TinyViT(n_classes=2, depth=1, seed=0)
        model.eval()
        correct = sum(
            int(np.argmax(model(inputs).data) == label)
            for inputs, label in zip(data.inputs, data.labels)
        )
        assert evaluate(model, data, batch_size=4) == correct / len(data)

    def test_evaluate_validation(self):
        data = striped_image_dataset(n_samples=4, n_classes=2)
        with pytest.raises(ValueError):
            evaluate(TinyViT(n_classes=2, depth=1), data, batch_size=0)


def on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


#: Runs in a fresh interpreter: noise-aware training of the benchmark's
#: TinyViT on two batch-sharded thread cores, one epoch per call, and the
#: minor page faults each epoch took.  A step's activations swing the
#: heap by several MB, more than glibc's default trim threshold.  A
#: no-grad forward runs first, so glibc's sliding mmap threshold has
#: moved before training starts, as it has in a model served or
#: evaluated before it is trained.
FAULTS_SCRIPT = """
import json, resource

from repro.neural import PhotonicExecutor, TinyViT, no_grad
from repro.neural import striped_image_dataset, train_classifier

executor = PhotonicExecutor.paper_default(
    seed=1, num_cores=2, shard_axis="batch", backend="thread"
)
model = TinyViT(
    image_size=16, patch_size=4, dim=32, depth=2, heads=4, n_classes=4,
    mlp_ratio=2.0, executor=executor, seed=0,
)
data = striped_image_dataset(n_samples=64, seed=1)
with no_grad():
    model(data.inputs[:16])
faults = []
for epoch in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train_classifier(model, data, epochs=1, batch_size=16, seed=epoch)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
executor.close()
print(json.dumps(faults))
"""


@pytest.fixture
def fresh_retention():
    """Let ``_retain_heap`` run again, before and after the test."""
    train_module._retain_heap.cache_clear()
    yield
    train_module._retain_heap.cache_clear()


class TestHeapRetention:
    """The trainer keeps its freed heap mapped from one step to the next."""

    @pytest.mark.skipif(not on_glibc(), reason="heap retention is glibc-only")
    def test_epochs_after_the_first_fault_in_almost_nothing(self):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.dirname(train_module.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", FAULTS_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        faults = json.loads(result.stdout.splitlines()[-1])
        # Trimmed after every step, the heap costs about 10k faults an
        # epoch, and with only the top pad set (the mmap threshold left
        # frozen where it stood) about 1.6k; kept mapped, a few dozen.
        assert max(faults[1:]) < 300, faults

    @pytest.mark.skipif(not on_glibc(), reason="heap retention is glibc-only")
    def test_applied_once_per_process(self, fresh_retention, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        def cdll(name):
            calls.append(("lookup", name))
            return SimpleNamespace(mallopt=mallopt)

        monkeypatch.setattr(train_module.ctypes, "CDLL", cdll)
        train_module._retain_heap()
        train_module._retain_heap()
        size = train_module._RETAINED_BYTES
        assert calls == [
            ("lookup", None),
            (train_module._M_MMAP_THRESHOLD, size),
            (train_module._M_TOP_PAD, size),
        ]

    @pytest.mark.parametrize("missing", ["glibc", "libc", "mallopt"])
    def test_training_runs_without_mallopt(self, fresh_retention, monkeypatch, missing):
        data = striped_image_dataset(n_samples=8, n_classes=2, seed=1)

        def run():
            model = TinyViT(n_classes=2, depth=1, seed=0)
            return train_classifier(model, data, epochs=1, batch_size=4, seed=0)

        expected = run()
        train_module._retain_heap.cache_clear()

        def no_library(name):
            raise OSError("no C library")

        def no_glibc(name):
            raise ValueError("unrecognized configuration name")

        if missing == "glibc":
            monkeypatch.setattr(train_module.os, "confstr", no_glibc)
        elif missing == "libc":
            monkeypatch.setattr(train_module.ctypes, "CDLL", no_library)
        else:
            monkeypatch.setattr(train_module.ctypes, "CDLL", lambda name: object())
        result = run()
        assert result.losses == expected.losses
        assert result.train_accuracy == expected.train_accuracy
