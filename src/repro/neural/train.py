"""Training utilities: Adam and the noise-aware training loop.

Noise-aware training (Sec. V-A) runs the *forward* pass through the
noisy photonic model while gradients flow through the ideal product
(straight-through), so the network learns weights robust to the analog
non-idealities it will see at inference time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.neural.autograd import no_grad
from repro.neural.data import Dataset
from repro.neural.functional import cross_entropy
from repro.neural.modules import Module


class Adam:
    """Adam optimizer over a module's parameters."""

    def __init__(
        self,
        parameters,
        lr: float = 1e-2,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        """Apply one update from the accumulated gradients."""
        self.step_count += 1
        correction1 = 1.0 - self.beta1**self.step_count
        correction2 = 1.0 - self.beta2**self.step_count
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            m *= self.beta1
            m += (1 - self.beta1) * grad
            v *= self.beta2
            v += (1 - self.beta2) * grad**2
            m_hat = m / correction1
            v_hat = v / correction2
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()


@dataclass
class TrainingResult:
    """Per-epoch history of a training run."""

    losses: list[float]
    train_accuracy: float

    @property
    def final_loss(self) -> float:
        return self.losses[-1]


def train_classifier(
    model: Module,
    dataset: Dataset,
    epochs: int = 10,
    lr: float = 1e-2,
    batch_size: int = 16,
    seed: int = 0,
    verbose: bool = False,
) -> TrainingResult:
    """Train a classifier with minibatch Adam on whole-batch forwards.

    Each ``[batch, ...]`` minibatch runs through the model in *one*
    forward pass (the models and the photonic engine are batched
    end-to-end), so every matrix product of the step is a single
    whole-batch — and, with ``num_cores > 1`` executors, multi-core
    sharded — photonic call.  The mean cross-entropy over the batch
    makes the accumulated gradients identical to the seed's per-sample
    loop, kept as the test oracle ``tests/neural/reference_train.py``
    (which sums per-sample gradients and divides by the batch length),
    so on a deterministic executor both loops follow the exact same
    trajectory.
    """
    if epochs < 1 or batch_size < 1:
        raise ValueError("epochs and batch_size must be >= 1")
    optimizer = Adam(model.parameters(), lr=lr)
    rng = np.random.default_rng(seed)
    model.train()
    losses = []
    for epoch in range(epochs):
        order = rng.permutation(len(dataset))
        epoch_loss = 0.0
        for start in range(0, len(order), batch_size):
            batch = order[start : start + batch_size]
            optimizer.zero_grad()
            logits = model(dataset.inputs[batch])
            loss = cross_entropy(logits, dataset.labels[batch])
            loss.backward()
            optimizer.step()
            epoch_loss += loss.item() * len(batch)
        losses.append(epoch_loss / len(dataset))
        if verbose:
            print(f"epoch {epoch + 1}/{epochs}: loss {losses[-1]:.4f}")
    return TrainingResult(losses=losses, train_accuracy=evaluate(model, dataset))


def evaluate(model: Module, dataset: Dataset, batch_size: int = 64) -> float:
    """Top-1 accuracy of a classifier, evaluated in whole batches."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    model.eval()
    correct = 0
    with no_grad():
        for start in range(0, len(dataset), batch_size):
            stop = start + batch_size
            logits = model(dataset.inputs[start:stop])
            predictions = np.argmax(logits.data, axis=-1)
            correct += int(np.sum(predictions == dataset.labels[start:stop]))
    model.train()
    return correct / len(dataset)
