"""Low-bit quantization for weights and activations.

The paper deploys 4-bit (default) and 8-bit Transformers trained with
learned-step quantization.  We implement symmetric uniform fake
quantization with a straight-through gradient estimator: the forward
pass snaps values to the quantization grid, the backward pass passes
gradients through unchanged (clipped values included, which is the
standard STE simplification).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.neural.autograd import Tensor

try:  # the clip ufunc itself: np.clip wraps it in three Python layers
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class QuantConfig:
    """Precision configuration for photonic execution."""

    weight_bits: int = 4
    activation_bits: int = 4

    def __post_init__(self) -> None:
        if self.weight_bits < 2 or self.activation_bits < 2:
            raise ValueError("quantization needs at least 2 bits (sign + level)")

    @classmethod
    def int4(cls) -> "QuantConfig":
        return cls(4, 4)

    @classmethod
    def int8(cls) -> "QuantConfig":
        return cls(8, 8)


def quantization_levels(bits: int) -> int:
    """Positive quantization levels of a symmetric b-bit grid."""
    if bits < 2:
        raise ValueError(f"bits must be >= 2, got {bits}")
    return 2 ** (bits - 1) - 1


def quantize_array(
    values: np.ndarray, bits: int, per_matrix: bool = False
) -> np.ndarray:
    """Symmetric uniform quantization with a max-abs scale.

    Values are snapped to ``scale * {-(2^(b-1)-1), ..., 2^(b-1)-1}``.
    A zero tensor (or, per-matrix, a zero slice) is returned unchanged.

    Args:
        values: array of any rank.
        bits: grid precision.
        per_matrix: scale each trailing ``[m, n]`` slice of a stacked
            tensor independently, mirroring the per-matrix ``beta``
            normalisation the DPTC applies to each encoded operand.
            This keeps a batch of activations decoupled — sample ``i``'s
            grid never depends on sample ``j`` — so batched execution
            quantizes exactly like per-sample execution.  2-D inputs
            are unaffected.
    """
    values = np.asarray(values, dtype=float)
    levels = quantization_levels(bits)
    if not values.size:
        return values.copy()
    axes = (-2, -1) if per_matrix and values.ndim > 2 else None
    # The snap chain (max-abs, divide, rint, clip, rescale) runs through
    # one reused buffer: each ufunc writes over the previous result,
    # which is bit-identical to the chained temporaries and allocates
    # once.
    snapped = np.abs(values)
    max_abs = np.maximum.reduce(snapped, axis=axes, keepdims=True)
    # The smallest max-abs decides the two rare cases; ``fmin`` skips
    # NaN slices, which neither case concerns (NaN stays NaN).
    smallest = np.fmin.reduce(max_abs, axis=None)
    # A subnormal max-abs underflows when divided by `levels`, turning
    # the scale into 0 and the grid into inf/nan — zero and sub-tiny
    # inputs (or, per-matrix, slices) are returned unchanged instead,
    # so per-matrix slices still quantize exactly like per-sample calls
    # on the same slice.
    degenerate = None
    if smallest < _TINY:
        degenerate = max_abs < _TINY
        scale = np.where(degenerate, 1.0, max_abs) / levels
    else:
        scale = max_abs / levels
    np.divide(values, scale, out=snapped)
    np.rint(snapped, out=snapped)
    # With a normal scale, |value| / scale rounds to at most
    # levels * (1 + 2**-52), which rint takes to at most `levels` while
    # levels < 2**50: the clip only bites when some scale is subnormal.
    if smallest < levels * _TINY or levels >= 2**50:
        _clip(snapped, -levels, levels, out=snapped)
    snapped *= scale
    if degenerate is None:
        return snapped
    return np.where(degenerate, values, snapped)


def fake_quantize(tensor: Tensor, bits: int, per_matrix: bool = False) -> Tensor:
    """Quantize in the forward pass, straight-through in the backward."""
    return straight_through(
        tensor, quantize_array(tensor.data, bits, per_matrix=per_matrix)
    )


def straight_through(tensor: Tensor, quantized: np.ndarray) -> Tensor:
    """``quantized`` (``tensor``'s grid values) in the forward pass; the
    backward passes gradients to ``tensor`` unchanged (the STE)."""

    def backward(grad: np.ndarray) -> None:
        if tensor.requires_grad:
            tensor.accumulate_grad(grad)

    return Tensor.make(quantized, (tensor,), backward)


def quantization_error(
    values: np.ndarray, bits: int, per_matrix: bool = False
) -> float | np.ndarray:
    """Relative (Frobenius) quantization error of a tensor at ``bits``.

    Args:
        values: array of any rank.
        bits: grid precision.
        per_matrix: quantize and normalise each trailing ``[m, n]``
            slice independently — the scale discipline the executor
            actually uses (``quantize_array(..., per_matrix=True)``).
            For a stacked tensor this returns one error per slice (a
            ``batch``-shaped array), each matching the error of the
            slice quantized on its own — the quantized values are
            bit-identical; the norm reduction itself may differ by one
            ULP from the 2-D call (BLAS vs ufunc summation order).  The
            default reports a single
            global-scale error, which cross-couples the batch.  All-zero
            slices report 0.0.  2-D inputs return a float either way.
    """
    values = np.asarray(values, dtype=float)
    if per_matrix and values.ndim > 2:
        diff = values - quantize_array(values, bits, per_matrix=True)
        reference = np.linalg.norm(values, axis=(-2, -1))
        error = np.linalg.norm(diff, axis=(-2, -1))
        zero = reference == 0.0
        return error / np.where(zero, 1.0, reference)
    reference = float(np.linalg.norm(values))
    if reference == 0.0:
        return 0.0
    return float(
        np.linalg.norm(values - quantize_array(values, bits, per_matrix=per_matrix))
        / reference
    )
