"""Training utilities: Adam and the noise-aware training loop.

Noise-aware training (Sec. V-A) runs the *forward* pass through the
noisy photonic model while gradients flow through the ideal product
(straight-through), so the network learns weights robust to the analog
non-idealities it will see at inference time.
"""

from __future__ import annotations

import ctypes
import functools
import os
from dataclasses import dataclass

import numpy as np

from repro.neural.autograd import no_grad
from repro.neural.data import Dataset
from repro.neural.functional import cross_entropy
from repro.neural.modules import Module


#: ``mallopt`` parameter numbers in glibc's ``<malloc.h>``.
_M_TOP_PAD = -2
_M_MMAP_THRESHOLD = -3
#: Free heap glibc keeps at the top of each arena when it trims, and
#: the size up to which it serves a request from an arena.  The TinyViT
#: trainer's steps need about 10 MiB; with 8 MiB they still fault.
_RETAINED_BYTES = 16 << 20


@functools.cache
def _retain_heap() -> None:
    """Keep freed heap mapped between training steps (glibc only).

    A training step's forward allocates the activations, and its
    backward frees them before the next step begins.  By default glibc
    then trims the top of each arena, handing those pages back to the
    kernel, and the next forward faults every page in again: over ten
    thousand minor faults for each 64-sample round of the TinyViT
    trainer.  ``M_TOP_PAD`` makes every trim leave
    :data:`_RETAINED_BYTES` mapped, so the steps reuse resident pages.

    Setting any ``mallopt`` parameter also turns off glibc's sliding
    mmap threshold, freezing it wherever it stood.  Blocks above it are
    separate mappings, faulted in afresh on every use, so the threshold
    is fixed at the same size (the sliding one can rise to 32 MiB by
    itself): every block the pad could keep comes from an arena.

    Both settings are process-wide: they apply to every thread and
    every later allocation in the process, not only to training, and
    they are never undone.  They are applied once per process.  On any
    other C library this does nothing, and it never raises.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError, ValueError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _RETAINED_BYTES)
    mallopt(_M_TOP_PAD, _RETAINED_BYTES)


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

    On glibc, the first call in a process sets the allocator to keep
    freed heap mapped (:func:`_retain_heap`), so each step reuses the
    pages the previous step's backward freed instead of faulting them
    in again.  The setting is process-wide and stays after training
    returns; it changes no result.
    """
    if epochs < 1 or batch_size < 1:
        raise ValueError("epochs and batch_size must be >= 1")
    _retain_heap()
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
    """Top-1 accuracy of a classifier, evaluated in whole batches.

    The model runs in eval mode and is left in the mode it was in.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    training = model.training
    model.eval()
    correct = 0
    with no_grad():
        for start in range(0, len(dataset), batch_size):
            stop = start + batch_size
            logits = model(dataset.inputs[start:stop])
            predictions = np.argmax(logits.data, axis=-1)
            correct += int(np.sum(predictions == dataset.labels[start:stop]))
    if training:
        model.train()
    return correct / len(dataset)
