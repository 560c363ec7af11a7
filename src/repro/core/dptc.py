"""DPTC: the dynamically-operated photonic tensor core (Sec. III-B).

A DPTC is a crossbar of ``Nv x Nh`` DDot engines sharing modulated WDM
signals along rows and columns.  In one clock cycle it computes a full
``[Nh, Nlambda] x [Nlambda, Nv]`` matrix-matrix product; larger GEMMs
are tiled over cycles.

Two views are provided:

* :class:`DPTCGeometry` — the pure arithmetic of the core: per-cycle
  throughput, tile counts for a GEMM, and the intra-core operand-sharing
  encoding-cost model of Eq. 6.
* :class:`DPTC` — a functional (noisy) executor for arbitrary-size
  matrix multiplication, vectorised over the whole GEMM.  It reproduces
  looping the analytic DDot over every tile, including per-channel
  dispersion (channels are assigned cyclically along the contraction
  dimension) and stochastic encoding noise per encoded element.

The executor is *batched*: operands may carry any number of leading
batch axes (``[..., m, d] x [..., d, n]``) with numpy-style rank
broadcasting (e.g. a 2-D weight against 3-D activations), and the whole
stack — every head and every sequence of an attention product — is
computed as single whole-batch einsum/matmul expressions.  The
per-matrix Python loop of the original engine is kept as a test oracle
(``tests/core/reference_dptc.py``): ``tests/core/test_batched_dptc.py``
pins the equivalence and ``tests_nightly/test_wallclock_floors.py`` the
speedup.

**Hot-path staging.**  A noisy matmul is four stages, the paper's
SAMPLE -> ENCODE -> COMPUTE -> DETECT: the fused RNG draw of
:meth:`DPTC.sample_noise`, :meth:`DPTC.prepare_chunk` (per-matrix
normalisation, magnitude factors and the trig operand products),
:meth:`DPTC.compute_chunk` (the two exact matmuls plus the additive
dispersion terms) and :meth:`DPTC.detect_chunk` (systematic factors,
``beta`` rescaling, zero masking).  :meth:`DPTC.matmul` is that one
stage body: it runs each stage inside a ``stage.<name>`` span of the
ambient tracer (:func:`~repro.obs.trace.current_tracer`), so a traced
and an untraced call execute the same arithmetic and a tracer activated
anywhere above (``engine.batch``, ``shard.core``) sees the stages
beneath it.  The ideal path is a bare ``np.matmul`` with no spans.

The per-contraction-length dispersion factor cache is a small LRU
(:data:`CHANNEL_CACHE_SIZE` entries): long-lived serving engines see
ragged traffic with unbounded distinct contraction lengths, and an
uncapped cache is a slow memory leak.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.dispersion import DispersionProfile, dispersion_profile
from repro.core.noise import NoiseModel
from repro.obs.trace import current_tracer
from repro.optics.wdm import WDMGrid


@dataclass(frozen=True)
class DPTCGeometry:
    """Dimensions of one DPTC crossbar (paper Table II notation)."""

    n_h: int = 12  #: input waveguides along the horizontal direction
    n_v: int = 12  #: input waveguides along the vertical direction
    n_lambda: int = 12  #: wavelengths multiplexed per waveguide

    def __post_init__(self) -> None:
        if min(self.n_h, self.n_v, self.n_lambda) < 1:
            raise ValueError(f"all DPTC dimensions must be >= 1, got {self}")

    @property
    def n_ddots(self) -> int:
        """Number of DDot engines in the crossbar."""
        return self.n_h * self.n_v

    @property
    def macs_per_cycle(self) -> int:
        """Multiply-accumulates completed per clock cycle."""
        return self.n_h * self.n_lambda * self.n_v

    @property
    def ops_per_cycle(self) -> int:
        """Operations per cycle (2 per MAC, the usual TOPS convention)."""
        return 2 * self.macs_per_cycle

    def tile_counts(self, m: int, d: int, n: int) -> tuple[int, int, int]:
        """Tile grid needed for an ``[m, d] x [d, n]`` GEMM."""
        if min(m, d, n) < 1:
            raise ValueError(f"GEMM dims must be >= 1, got {(m, d, n)}")
        return (
            math.ceil(m / self.n_h),
            math.ceil(d / self.n_lambda),
            math.ceil(n / self.n_v),
        )

    def cycles(self, m: int, d: int, n: int) -> int:
        """Clock cycles one DPTC needs for an ``[m, d] x [d, n]`` GEMM."""
        tiles_m, tiles_d, tiles_n = self.tile_counts(m, d, n)
        return tiles_m * tiles_d * tiles_n

    def utilization(self, m: int, d: int, n: int) -> float:
        """Fraction of the crossbar's MACs doing useful work for a GEMM."""
        useful = m * d * n
        provisioned = self.cycles(m, d, n) * self.macs_per_cycle
        return useful / provisioned

    def encoding_ops_shared(self, tiles_h: int = 1, tiles_v: int = 1) -> int:
        """Scalar encodings (DAC+MZM ops) per tile-MM with intra-core sharing.

        Eq. 6: the crossbar broadcasts each modulated waveguide to a full
        row/column of DDots, so a ``[Nh,Nl] x [Nl,Nv]`` shot needs only
        ``Nh*Nl + Nl*Nv`` encodings.
        """
        return (self.n_h * self.n_lambda + self.n_lambda * self.n_v) * tiles_h * tiles_v

    def encoding_ops_unshared(self, tiles_h: int = 1, tiles_v: int = 1) -> int:
        """Scalar encodings without operand sharing (separate dot engines).

        Prior designs encode both operands for every DDot independently:
        ``2 * Nh * Nv * Nlambda`` per shot.
        """
        return (2 * self.n_h * self.n_v * self.n_lambda) * tiles_h * tiles_v

    def encoding_saving(self) -> float:
        """Encoding-cost reduction factor ``2*Nh*Nv / (Nh + Nv)``.

        12x for the paper's 12x12x12 core.
        """
        return self.encoding_ops_unshared() / self.encoding_ops_shared()


@dataclass(frozen=True)
class DPTCNoiseDraw:
    """One realisation of every stochastic factor of a (batched) matmul.

    The arrays live at the *given* operand shapes (before batch
    broadcasting), so a shared 2-D weight is encoded — and perturbed —
    once for the whole batch, exactly like the crossbar's operand
    sharing broadcasts one modulated waveguide to a full row of DDots.

    Attributes:
        magnitude_a, magnitude_b: multiplicative encoding factors
            ``1 + delta`` applied to the normalised operands.
        phase_a, phase_b: per-element phase drifts (rad).
        systematic: multiplicative output factors ``1 + eps`` at the
            broadcast output shape.

    Ideal components collapse to scalars (1 for factors, 0 for phases)
    so a disabled noise term costs neither RNG draws nor memory.
    """

    magnitude_a: np.ndarray | float
    magnitude_b: np.ndarray | float
    phase_a: np.ndarray | float
    phase_b: np.ndarray | float
    systematic: np.ndarray | float


@dataclass
class PreparedMatmul:
    """ENCODE output of one noisy matmul.

    Everything COMPUTE and DETECT need, produced by
    :meth:`DPTC.prepare_chunk`, read by :meth:`DPTC.compute_chunk` and
    consumed by :meth:`DPTC.detect_chunk`.
    """

    out_shape: tuple[int, ...]
    beta_a: np.ndarray
    beta_b: np.ndarray
    has_zero: bool
    systematic: np.ndarray | float
    a_cos: np.ndarray
    a_sin: np.ndarray
    b_cos: np.ndarray
    b_sin: np.ndarray
    row_term: np.ndarray
    col_term: np.ndarray


#: Entries kept in the per-contraction-length dispersion factor cache.
#: One entry per distinct ``d`` seen by the engine; ragged serving
#: traffic would grow an uncapped cache without bound.
CHANNEL_CACHE_SIZE = 32


class DPTC:
    """Functional (optionally noisy) executor for DPTC matrix multiplies.

    Args:
        geometry: crossbar dimensions.
        noise: non-ideality bundle (defaults to exact arithmetic).
        grid: DWDM grid; defaults to the paper's grid sized to
            ``geometry.n_lambda`` channels.
    """

    def __init__(
        self,
        geometry: DPTCGeometry | None = None,
        noise: NoiseModel | None = None,
        grid: WDMGrid | None = None,
    ) -> None:
        self.geometry = geometry if geometry is not None else DPTCGeometry()
        self.noise = noise if noise is not None else NoiseModel.ideal()
        self.grid = grid if grid is not None else WDMGrid(self.geometry.n_lambda)
        if self.grid.n_channels != self.geometry.n_lambda:
            raise ValueError(
                f"grid has {self.grid.n_channels} channels, geometry expects "
                f"{self.geometry.n_lambda}"
            )
        if self.noise.include_dispersion:
            self.profile = dispersion_profile(self.grid)
        else:
            self.profile = DispersionProfile.ideal(self.geometry.n_lambda)
        self._channel_cache: OrderedDict[
            int, tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = OrderedDict()
        # The noise model is frozen, so its ideality is known once; a
        # reassigned ``noise`` falls back to asking it.
        self._ideal_noise = self.noise if self.noise.is_ideal else None

    def tile_matmul(
        self,
        a: np.ndarray,
        b: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """One-shot ``[Nh, Nlambda] x [Nlambda, Nv]`` tile product."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        expected_a = (self.geometry.n_h, self.geometry.n_lambda)
        expected_b = (self.geometry.n_lambda, self.geometry.n_v)
        if a.shape != expected_a or b.shape != expected_b:
            raise ValueError(
                f"tile shapes must be {expected_a} x {expected_b}, "
                f"got {a.shape} x {b.shape}"
            )
        return self.matmul(a, b, rng=rng)

    @staticmethod
    def _broadcast_out_shape(
        a_shape: tuple[int, ...], b_shape: tuple[int, ...]
    ) -> tuple[int, ...]:
        """Validate stacked operand shapes; return the output shape."""
        if len(a_shape) < 2 or len(b_shape) < 2:
            raise ValueError(
                f"operands must be at least 2-D, got {a_shape} x {b_shape}"
            )
        if a_shape[-1] != b_shape[-2]:
            raise ValueError(
                f"incompatible matmul shapes: {a_shape} x {b_shape}"
            )
        try:
            batch = np.broadcast_shapes(a_shape[:-2], b_shape[:-2])
        except ValueError as exc:
            raise ValueError(
                f"batch dims not broadcastable: {a_shape} x {b_shape}"
            ) from exc
        return batch + (a_shape[-2], b_shape[-1])

    def sample_noise(
        self,
        a_shape: tuple[int, ...],
        b_shape: tuple[int, ...],
        rng: np.random.Generator,
    ) -> DPTCNoiseDraw:
        """Draw every stochastic factor for one (batched) matmul.

        The sampling order is fixed — magnitude A, magnitude B, phase A,
        phase B, systematic — and each array is drawn in one vectorised
        call, so the batched engine and the per-matrix reference loop
        consume an identical RNG stream when handed the same generator.
        """
        a_shape = tuple(a_shape)
        b_shape = tuple(b_shape)
        out_shape = self._broadcast_out_shape(a_shape, b_shape)
        encoding = self.noise.encoding
        # (shape, std, base) per draw; factors are base + std * N(0, 1).
        segments = (
            (a_shape, encoding.magnitude_std, 1.0),
            (b_shape, encoding.magnitude_std, 1.0),
            (a_shape, encoding.phase_std_rad, 0.0),
            (b_shape, encoding.phase_std_rad, 0.0),
            (out_shape, self.noise.systematic.std, 1.0),
        )
        # One fused standard-normal draw for all segments.  The PCG64
        # stream is consumed value-by-value, so slicing one big draw is
        # bit-identical to five sequential ``rng.normal`` calls — the
        # documented sampling order is unchanged, just cheaper.  The
        # magnitude pair and the phase pair each share a std, so each
        # pair is scaled in one pass.
        total = sum(math.prod(shape) for shape, std, _ in segments if std > 0.0)
        z = rng.standard_normal(total) if total else None
        values: list[np.ndarray | float] = []
        offset = 0
        for pair in (segments[0:2], segments[2:4], segments[4:5]):
            std, base = pair[0][1], pair[0][2]
            if std == 0.0:
                values.extend(base for _ in pair)
                continue
            counts = [math.prod(shape) for shape, _, _ in pair]
            block = z[offset : offset + sum(counts)]
            offset += sum(counts)
            block *= std
            if base != 0.0:
                block += base
            lo = 0
            for (shape, _, _), count in zip(pair, counts):
                values.append(block[lo : lo + count].reshape(shape))
                lo += count
        return DPTCNoiseDraw(*values)

    def _channel_factors(
        self, d: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-contraction-element dispersion factors (cyclic channels).

        Cached per contraction length: the profile is fixed at
        construction, so the cyclic tiling never changes.  The cache is
        a small LRU capped at :data:`CHANNEL_CACHE_SIZE` entries —
        ragged serving traffic (variable-``d`` GEMVs against a
        long-lived engine) touches unboundedly many distinct lengths,
        and evicted entries are merely recomputed, never wrong.
        """
        cached = self._channel_cache.get(d)
        if cached is None:
            kappa = np.resize(self.profile.kappa, d)
            phase_deviation = np.resize(self.profile.phase_deviation, d)
            two_tk = 2.0 * np.sqrt(kappa * (1.0 - kappa))
            cached = (kappa, phase_deviation, two_tk)
            self._channel_cache[d] = cached
            if len(self._channel_cache) > CHANNEL_CACHE_SIZE:
                self._channel_cache.popitem(last=False)
        else:
            self._channel_cache.move_to_end(d)
        return cached

    def matmul(
        self,
        a: np.ndarray,
        b: np.ndarray,
        rng: np.random.Generator | None = None,
        draw: DPTCNoiseDraw | None = None,
    ) -> np.ndarray:
        """Full-range matrix product ``a @ b`` executed on the DPTC.

        Operands may be stacked: ``[..., m, d] x [..., d, n]`` with
        numpy-style broadcasting of the leading batch axes (a 2-D weight
        against 3-D activations is fine).  The whole batch — every head
        and every sequence — is computed in single whole-batch matmul
        expressions; there is no per-matrix Python loop.

        Arbitrary GEMM sizes are supported; the contraction dimension is
        mapped cyclically onto the WDM channels (tile ``i`` of the
        contraction uses channel ``i mod Nlambda``), which is exactly the
        channel assignment of tiled execution on the hardware.

        Operands are normalised per matrix by their maximum magnitudes
        (the hardware's ``beta_x``/``beta_y`` scaling) and the output is
        rescaled, so values of any range are accepted.

        Args:
            a, b: stacked operands.
            rng: noise sampling stream (fresh unseeded generator if
                omitted); unused when ``draw`` is given.
            draw: a pre-sampled :class:`DPTCNoiseDraw` for this operand
                pair, e.g. to share one realisation with the per-matrix
                reference loop of ``tests/core/reference_dptc.py``.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        noise = self.noise
        if noise is self._ideal_noise or noise.is_ideal:
            # The plain product validates its own batch broadcast; the
            # rank and core checks come first so every error message is
            # the one _broadcast_out_shape gives.
            if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
                self._broadcast_out_shape(a.shape, b.shape)
            try:
                return np.matmul(a, b)
            except ValueError:
                self._broadcast_out_shape(a.shape, b.shape)
                raise
        out_shape = self._broadcast_out_shape(a.shape, b.shape)
        if not a.any() or not b.any():
            # An all-zero operand short-circuits before any noise is
            # sampled, like the reference loop's per-matrix early
            # return — the shared RNG stream stays aligned.
            return np.zeros(out_shape)
        tracer = current_tracer()
        if draw is None:
            if rng is None:
                rng = np.random.default_rng()
            with tracer.span("stage.sample"):
                draw = self.sample_noise(a.shape, b.shape, rng)
        with tracer.span("stage.encode"):
            prepared = self.prepare_chunk(a, b, draw)
        with tracer.span("stage.compute"):
            out = self.compute_chunk(prepared)
        with tracer.span("stage.detect"):
            return self.detect_chunk(prepared, out)

    def prepare_chunk(
        self, a: np.ndarray, b: np.ndarray, draw: DPTCNoiseDraw
    ) -> PreparedMatmul:
        """ENCODE stage: normalise, perturb and trig-encode both operands.

        ``draw`` is the :meth:`sample_noise` realisation for these
        operand shapes.  All-zero matrices of a stack are masked to zero
        by :meth:`detect_chunk`.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        out_shape = self._broadcast_out_shape(a.shape, b.shape)

        # Per-matrix normalisation: each [m, d] / [d, n] slice of the
        # stack gets its own beta (all-zero slices are masked at the end).
        beta_a = np.max(np.abs(a), axis=(-2, -1), keepdims=True)
        beta_b = np.max(np.abs(b), axis=(-2, -1), keepdims=True)
        has_zero = bool((beta_a == 0.0).any() or (beta_b == 0.0).any())
        a_hat = a / (np.where(beta_a == 0.0, 1.0, beta_a) if has_zero else beta_a)
        b_hat = b / (np.where(beta_b == 0.0, 1.0, beta_b) if has_zero else beta_b)
        a_hat *= draw.magnitude_a
        b_hat *= draw.magnitude_b

        d = a.shape[-1]
        kappa, phase_deviation, two_tk = self._channel_factors(d)

        # Additive term first, while a_hat/b_hat are pristine:
        # sum_i -(2*kappa_i - 1) * (a_i^2 - b_i^2) / 2.  The fused
        # einsum squares and contracts in one pass.
        additive = -(2.0 * kappa - 1.0)
        row_term = np.einsum("...md,...md,d->...m", a_hat, a_hat, additive)
        col_term = np.einsum("d,...dn,...dn->...n", additive, b_hat, b_hat)

        # Multiplicative term: sum_i 2*t_i*k_i * cos(dphi_i + py - px) * a*b,
        # expanded via cos(P - Q) so it reduces to two exact matmuls.
        # Buffers are recycled (trig results host the products) — every
        # array here is freshly allocated by this call, never caller- or
        # draw-owned.
        angle_b = phase_deviation[:, None] + draw.phase_b
        cos_b = np.cos(angle_b)
        sin_b = np.sin(angle_b, out=angle_b)
        b_hat *= two_tk[:, None]
        if cos_b.shape == b_hat.shape:
            b_cos = np.multiply(b_hat, cos_b, out=cos_b)
            b_sin = np.multiply(b_hat, sin_b, out=sin_b)
        else:  # scalar phase drift: angle is the [d, 1] channel profile
            b_cos = b_hat * cos_b
            b_sin = b_hat * sin_b
        if isinstance(draw.phase_a, np.ndarray):
            cos_a = np.cos(draw.phase_a)
            sin_a = np.sin(draw.phase_a)
            a_cos = np.multiply(a_hat, cos_a, out=cos_a)
            a_sin = np.multiply(a_hat, sin_a, out=sin_a)
        else:
            a_cos = a_hat * math.cos(draw.phase_a)
            a_sin = a_hat * math.sin(draw.phase_a)
        return PreparedMatmul(
            out_shape=out_shape,
            beta_a=beta_a,
            beta_b=beta_b,
            has_zero=has_zero,
            systematic=draw.systematic,
            a_cos=a_cos,
            a_sin=a_sin,
            b_cos=b_cos,
            b_sin=b_sin,
            row_term=row_term,
            col_term=col_term,
        )

    def compute_chunk(self, prepared: PreparedMatmul) -> np.ndarray:
        """COMPUTE stage: the two exact matmuls plus the additive terms.

        Repeatable — it never mutates ``prepared`` (the profiling
        harness relies on that).
        """
        out = prepared.a_cos @ prepared.b_cos
        out += prepared.a_sin @ prepared.b_sin
        out += 0.5 * prepared.row_term[..., :, None]
        out -= 0.5 * prepared.col_term[..., None, :]
        return out

    def detect_chunk(
        self, prepared: PreparedMatmul, out: np.ndarray
    ) -> np.ndarray:
        """DETECT stage: systematic factors, beta rescale, zero masking.

        Consumes ``out`` (in-place scaling) — pass a fresh
        :meth:`compute_chunk` result, or a copy when profiling.
        """
        out *= prepared.systematic
        out *= prepared.beta_a * prepared.beta_b
        if prepared.has_zero:
            out = np.where(
                (prepared.beta_a == 0.0) | (prepared.beta_b == 0.0), 0.0, out
            )
        return out
