"""Tests for the optimizer, datasets, and training loop."""

import numpy as np
import pytest

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
    def test_evaluate_restores_training_mode(self):
        data = striped_image_dataset(n_samples=5, n_classes=2)
        model = TinyViT(n_classes=2, depth=1)
        model.train()
        evaluate(model, data)
        assert model.training

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
