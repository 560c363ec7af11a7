"""Noise-aware neural-network stack (the artifact's software model).

A numpy autograd engine, Transformer modules whose matrix products run
through the DPTC analytic noise transform, low-bit quantization, and
the noise-aware training loop — the PyTorch-based software model of the
paper's artifact, rebuilt from scratch.
"""

from repro.neural.attention import MultiHeadAttention
from repro.neural.autograd import (
    Tensor,
    broadcast_to,
    concatenate,
    embedding_lookup,
    gather_rows,
    is_grad_enabled,
    no_grad,
    stack,
)
from repro.neural.blocks import EncoderBlock, FeedForward
from repro.neural.checkpoint import load_checkpoint, save_checkpoint
from repro.neural.data import Dataset, striped_image_dataset, token_order_dataset
from repro.neural.functional import (
    accuracy,
    cross_entropy,
    gelu,
    layer_norm,
    log_softmax,
    relu,
    softmax,
)
from repro.neural.modules import (
    GELU,
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    Sequential,
)
from repro.neural.photonic import PhotonicExecutor
from repro.neural.quantization import (
    QuantConfig,
    fake_quantize,
    quantization_error,
    quantization_levels,
    quantize_array,
)
from repro.neural.text import CLS_TOKEN_ID, TinyBERT
from repro.neural.train import (
    Adam,
    TrainingResult,
    evaluate,
    train_classifier,
)
from repro.neural.vision import TinyViT

__all__ = [
    "Adam",
    "CLS_TOKEN_ID",
    "Dataset",
    "Dropout",
    "Embedding",
    "EncoderBlock",
    "FeedForward",
    "GELU",
    "LayerNorm",
    "Linear",
    "Module",
    "MultiHeadAttention",
    "PhotonicExecutor",
    "QuantConfig",
    "Sequential",
    "Tensor",
    "TinyBERT",
    "TinyViT",
    "TrainingResult",
    "accuracy",
    "broadcast_to",
    "concatenate",
    "cross_entropy",
    "embedding_lookup",
    "evaluate",
    "fake_quantize",
    "gather_rows",
    "gelu",
    "is_grad_enabled",
    "layer_norm",
    "load_checkpoint",
    "log_softmax",
    "no_grad",
    "save_checkpoint",
    "quantization_error",
    "quantization_levels",
    "quantize_array",
    "relu",
    "softmax",
    "stack",
    "striped_image_dataset",
    "token_order_dataset",
    "train_classifier",
]
