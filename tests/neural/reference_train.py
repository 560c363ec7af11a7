"""The seed's per-sample training loop: the oracle of the batched loop.

:func:`repro.neural.train_classifier` runs each minibatch as one
whole-batch forward.  The loop it replaced ran one forward/backward per
sample; it is kept here, unchanged, as ground truth for
``tests/neural/test_train.py`` and the batched-training wall-clock
floor in ``tests_nightly/test_wallclock_floors.py``.
"""

from __future__ import annotations

import numpy as np

from repro.neural import Adam, TrainingResult, evaluate
from repro.neural.data import Dataset
from repro.neural.functional import cross_entropy
from repro.neural.modules import Module


def train_classifier_reference(
    model: Module,
    dataset: Dataset,
    epochs: int = 10,
    lr: float = 1e-2,
    batch_size: int = 16,
    seed: int = 0,
    verbose: bool = False,
) -> TrainingResult:
    """The seed per-sample training loop, preserved verbatim.

    Every sample of a minibatch runs its own forward/backward; the
    accumulated gradients are averaged before the Adam step.  Kept as
    ground truth for :func:`train_classifier` — on a deterministic
    executor the batched loop reproduces these losses exactly — and as
    the baseline of the nightly batched-training wall-clock floor.
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
            batch_loss = 0.0
            for index in batch:
                logits = model(dataset.inputs[index]).reshape(1, -1)
                loss = cross_entropy(logits, dataset.labels[index : index + 1])
                loss.backward()
                batch_loss += loss.item()
            # Average the accumulated gradients over the minibatch.
            for param in optimizer.parameters:
                if param.grad is not None:
                    param.grad = param.grad / len(batch)
            optimizer.step()
            epoch_loss += batch_loss
        losses.append(epoch_loss / len(dataset))
        if verbose:
            print(f"epoch {epoch + 1}/{epochs}: loss {losses[-1]:.4f}")
    return TrainingResult(losses=losses, train_accuracy=evaluate(model, dataset))
