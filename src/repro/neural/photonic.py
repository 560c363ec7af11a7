"""Photonic execution of matrix products inside the neural network.

:class:`PhotonicExecutor` is the bridge between the software model and
the DPTC analytics: every matrix multiplication of the network is
(optionally) quantized and routed through the noisy analytic transform
of Eq. 9 in the forward pass, while gradients flow through the ideal
product (a straight-through estimator — the standard approach for
noise-aware training, as in the paper's artifact).

Static weights are quantized once per process.  A deployed model's
weights are fixed, so the module memoizes the quantized grid of every
weight operand whose array is read-only and owns its memory (a frozen
array, e.g. :class:`~repro.serving.servable.DecodeServable`'s
projections, which equal-seed replicas share).  The grid depends only
on the array and the precision, so one memo serves every executor, as
the paper's interconnect broadcasts one modulated weight to every core.
It is keyed on the array's identity and precision and holds a weak
reference to the array, so an entry dies with its array.  Writeable
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


#: (id(frozen weight array), bits) -> (weak reference to the array, its
#: read-only grid), shared by every executor in the process.
_GRID_MEMO: dict[tuple[int, int], tuple[weakref.ref, np.ndarray]] = {}


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
        parallel: run the cores on a host thread pool rather than in
            core order on the caller (bit-identical results; see
            :class:`ShardedDPTC`).  Release the pool with :meth:`close`
            or a ``with`` block.
    """

    geometry: DPTCGeometry = field(default_factory=DPTCGeometry)
    noise: NoiseModel = field(default_factory=NoiseModel.ideal)
    quant: QuantConfig | None = field(default_factory=QuantConfig.int4)
    rng: np.random.Generator = field(default_factory=np.random.default_rng)
    num_cores: int = 1
    shard_axis: str = "batch"
    parallel: bool = False

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError(f"num_cores must be >= 1, got {self.num_cores}")
        if self.shard_axis not in SHARD_AXES:
            raise ValueError(
                f"shard_axis must be one of {SHARD_AXES}, got {self.shard_axis!r}"
            )
        if self.num_cores == 1:
            # Degenerate grid: the plain batched engine.  A one-core
            # ShardedDPTC would spawn a child stream from ``rng`` and
            # so draw different noise; the plain DPTC keeps the
            # single-core stream unspawned.
            self._dptc = DPTC(self.geometry, self.noise)
        else:
            self._dptc = ShardedDPTC(
                num_cores=self.num_cores,
                geometry=self.geometry,
                noise=self.noise,
                shard_axis=self.shard_axis,
                parallel=self.parallel,
            )

    def close(self) -> None:
        """Release the sharded engine's thread pool (no-op without one)."""
        if isinstance(self._dptc, ShardedDPTC):
            self._dptc.close()

    def __enter__(self) -> "PhotonicExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
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
        backend: str = "sequential",
    ) -> "PhotonicExecutor":
        """Quantized execution with the paper's full noise model.

        ``backend="thread"`` runs the cores on a thread pool
        (``parallel=True``).  ``perfbench``'s ``train-noisy`` workload
        asks for thread cores, so the pool stays until that workload is
        re-baselined (ROADMAP item 1).
        """
        if backend not in ("sequential", "thread"):
            raise ValueError(
                f"backend must be 'sequential' or 'thread', got {backend!r}"
            )
        return cls(
            noise=NoiseModel.paper_default(),
            quant=quant or QuantConfig.int4(),
            rng=np.random.default_rng(seed),
            num_cores=num_cores,
            shard_axis=shard_axis,
            parallel=backend == "thread",
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
        quant = self.quant
        if quant is not None:
            # Per-matrix scales: each [m, d] slice of a stacked operand
            # gets its own grid (like the DPTC's per-matrix beta), so
            # batched execution quantizes each sample exactly as the
            # per-sample path would — no cross-batch scale coupling.
            w_bits, x_bits = quant.weight_bits, quant.activation_bits
            a_weight, b_weight = weight_operand == 0, weight_operand == 1
            a_data = self._quantize(a_data, w_bits if a_weight else x_bits, a_weight)
            b_data = self._quantize(b_data, w_bits if b_weight else x_bits, b_weight)

        out_data = self._execute(a_data, b_data)
        if not ((a.requires_grad or b.requires_grad) and is_grad_enabled()):
            # No gradient will be recorded: skip the autograd nodes.
            return Tensor(out_data)
        if quant is not None:
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
        entry = _GRID_MEMO.get(key)
        if entry is None or entry[0]() is not data:
            # Concurrent misses each store the same grid; the later
            # store wins and no lookup sees a stale one.
            grid = quantization.quantize_array(data, bits, per_matrix=True)
            grid.flags.writeable = False

            def forget(_dead: weakref.ref) -> None:
                _GRID_MEMO.pop(key, None)

            entry = _GRID_MEMO[key] = (weakref.ref(data, forget), grid)
        return entry[1]

    def _execute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # The DPTC engine is batched end-to-end: any leading batch shape
        # runs as whole-batch matmul expressions with no Python loop.
        return self._dptc.matmul(a, b, rng=self.rng)
