"""Photonic execution of matrix products inside the neural network.

:class:`PhotonicExecutor` is the bridge between the software model and
the DPTC analytics: every matrix multiplication of the network is
(optionally) quantized and routed through the noisy analytic transform
of Eq. 9 in the forward pass, while gradients flow through the ideal
product (a straight-through estimator — the standard approach for
noise-aware training, as in the paper's artifact).

Static weights are quantized once.  A deployed model's weights are
fixed, so the executor memoizes the quantized grid of every weight
operand whose array is read-only and owns its memory (a frozen array,
e.g. :class:`~repro.serving.servable.DecodeServable`'s projections).
The memo is keyed on the array's identity and precision and holds a
weak reference to it, so an entry dies with its array.  Writeable
arrays (training parameters, which ``Adam`` replaces every step) and
views are quantized afresh on every call, so no entry can go stale.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.core.dptc import DPTC, DPTCGeometry
from repro.core.noise import NoiseModel
from repro.core.sharding import SHARD_AXES, ShardedDPTC
from repro.neural import quantization
from repro.neural.autograd import Tensor, is_grad_enabled
from repro.neural.quantization import QuantConfig, straight_through


@dataclass
class PhotonicExecutor:
    """Executes neural matmuls on a (noisy) DPTC model.

    Attributes:
        geometry: tensor-core dimensions (wavelength count drives the
            dispersion profile used in Fig. 14's wavelength sweep).
        noise: non-ideality bundle; ideal -> pure quantized execution.
        quant: weight/activation precision; ``None`` disables
            quantization (full-precision floats on an ideal core).
        rng: noise sampling stream (seed for reproducibility).
        num_cores: DPTC cores to shard batched matmuls over.  1 keeps
            the single-core engine (``shard_axis`` is then inert); >1
            shards across a :class:`ShardedDPTC` grid
            (bit-identical on the ideal path, per-core noise streams
            otherwise).
        shard_axis: ``"batch"`` splits the leading batch axis across
            the cores; ``"contraction"`` splits the K axis, with
            digital partial-sum accumulation after photodetection.
    """

    geometry: DPTCGeometry = field(default_factory=DPTCGeometry)
    noise: NoiseModel = field(default_factory=NoiseModel.ideal)
    quant: QuantConfig | None = field(default_factory=QuantConfig.int4)
    rng: np.random.Generator = field(default_factory=np.random.default_rng)
    num_cores: int = 1
    shard_axis: str = "batch"

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError(f"num_cores must be >= 1, got {self.num_cores}")
        if self.shard_axis not in SHARD_AXES:
            raise ValueError(
                f"shard_axis must be one of {SHARD_AXES}, got {self.shard_axis!r}"
            )
        if self.num_cores == 1:
            # Degenerate grid: the plain batched engine (a ShardedDPTC
            # with one core computes the same thing through the same
            # code path; skip the pool machinery entirely).
            self._dptc = DPTC(self.geometry, self.noise)
        else:
            self._dptc = ShardedDPTC(
                num_cores=self.num_cores,
                geometry=self.geometry,
                noise=self.noise,
                shard_axis=self.shard_axis,
            )
        # (id(weight array), bits) -> (weakref to the array, its grid).
        self._weight_memo: dict[tuple[int, int], tuple[weakref.ref, np.ndarray]] = {}

    def close(self) -> None:
        """Release the sharded engine's worker pool (no-op single-core)."""
        if isinstance(self._dptc, ShardedDPTC):
            self._dptc.close()

    def __enter__(self) -> "PhotonicExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Pool-owning executors can be used in `with` blocks (the
        # serving worker relies on this for lifecycle management).
        self.close()

    @classmethod
    def ideal(
        cls,
        num_cores: int = 1,
        shard_axis: str = "batch",
    ) -> "PhotonicExecutor":
        """Exact digital arithmetic (no quantization, no noise)."""
        return cls(
            noise=NoiseModel.ideal(),
            quant=None,
            num_cores=num_cores,
            shard_axis=shard_axis,
        )

    @classmethod
    def digital_reference(cls, quant: QuantConfig | None = None) -> "PhotonicExecutor":
        """The paper's 'GPU' reference: quantized but noise-free."""
        return cls(noise=NoiseModel.ideal(), quant=quant or QuantConfig.int4())

    @classmethod
    def paper_default(
        cls,
        quant: QuantConfig | None = None,
        seed: int | None = None,
        num_cores: int = 1,
        shard_axis: str = "batch",
        backend: str = "thread",  # still passed by perfbench/workloads.py; drop with it
    ) -> "PhotonicExecutor":
        """Quantized execution with the paper's full noise model."""
        if backend != "thread":
            raise ValueError(f"backend must be 'thread', got {backend!r}")
        return cls(
            noise=NoiseModel.paper_default(),
            quant=quant or QuantConfig.int4(),
            rng=np.random.default_rng(seed),
            num_cores=num_cores,
            shard_axis=shard_axis,
        )

    def matmul(self, a: Tensor, b: Tensor, weight_operand: int | None = None) -> Tensor:
        """Differentiable ``a @ b`` executed photonically.

        Args:
            a, b: tensors of rank >= 2; leading batch axes (batch,
                heads, ...) broadcast numpy-style, so a whole
                ``[batch, heads, tokens, dim]`` attention stack — or a
                2-D weight against 3-D activations — runs in one
                batched photonic call.
            weight_operand: 0 or 1 if one operand is a weight matrix
                (quantized at ``quant.weight_bits``, once per frozen
                array — see the module docstring); activations use
                ``quant.activation_bits``.

        The straight-through nodes are attached only when a gradient
        will be recorded (grad mode on and an operand requires grad);
        otherwise the operands are quantized as plain arrays and the
        result is a graph-free :class:`Tensor` with the same bits.
        """
        a_data, b_data = a.data, b.data
        if self.quant is not None:
            bits_a = (
                self.quant.weight_bits
                if weight_operand == 0
                else self.quant.activation_bits
            )
            bits_b = (
                self.quant.weight_bits
                if weight_operand == 1
                else self.quant.activation_bits
            )
            # Per-matrix scales: each [m, d] slice of a stacked operand
            # gets its own grid (like the DPTC's per-matrix beta), so
            # batched execution quantizes each sample exactly as the
            # per-sample path would — no cross-batch scale coupling.
            a_data = self._quantize(a_data, bits_a, weight=weight_operand == 0)
            b_data = self._quantize(b_data, bits_b, weight=weight_operand == 1)

        out_data = self._execute(a_data, b_data)
        if not (is_grad_enabled() and (a.requires_grad or b.requires_grad)):
            # No gradient will be recorded: skip the autograd nodes.
            return Tensor(out_data)
        if self.quant is not None:
            a = straight_through(a, a_data)
            b = straight_through(b, b_data)

        def backward(grad: np.ndarray) -> None:
            # Straight-through: gradients of the ideal matrix product.
            if a.requires_grad:
                a.accumulate_grad(grad @ np.swapaxes(b.data, -1, -2))
            if b.requires_grad:
                b.accumulate_grad(np.swapaxes(a.data, -1, -2) @ grad)

        return Tensor.make(out_data, (a, b), backward)

    def _quantize(self, data: np.ndarray, bits: int, weight: bool) -> np.ndarray:
        """Per-matrix quantization, memoized for frozen weights."""
        if not weight or data.flags.writeable or not data.flags.owndata:
            return quantization.quantize_array(data, bits, per_matrix=True)
        key = (id(data), bits)
        entry = self._weight_memo.get(key)
        if entry is None or entry[0]() is not data:
            # Concurrent misses on a shared executor each store the same
            # grid; the later store wins and no lookup sees a stale one.
            grid = quantization.quantize_array(data, bits, per_matrix=True)
            grid.flags.writeable = False
            # A weak owner keeps the memo out of a cycle with its entries.
            owner = weakref.ref(self)

            def forget(_dead: weakref.ref) -> None:
                executor = owner()
                if executor is not None:
                    executor._weight_memo.pop(key, None)

            entry = self._weight_memo[key] = (weakref.ref(data, forget), grid)
        return entry[1]

    def _execute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # The DPTC engine is batched end-to-end: any leading batch shape
        # runs as whole-batch matmul expressions with no Python loop.
        return self._dptc.matmul(a, b, rng=self.rng)
