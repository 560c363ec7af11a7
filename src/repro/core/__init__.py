"""The paper's primary contribution: DDot and DPTC photonic compute cores.

* :class:`DDot` — the dynamically-operated, full-range optical vector
  dot-product engine (analytic model of the interference circuit).
* :class:`DPTC` / :class:`DPTCGeometry` — the crossbar tensor core that
  performs one-shot matrix-matrix multiplication with intra-core operand
  sharing.
* :class:`ShardedDPTC` — a grid of DPTC cores executing one batched
  matmul as leading-batch-axis shards or contraction (K-axis) slabs
  with digital partial-sum accumulation (the multi-core scaling axes
  of the accelerator), each core with its own RNG stream and
  calibration state, run in core order on the caller (or on a host
  thread pool with ``parallel=True``).
* :meth:`DPTC.matmul` runs a noisy product as the paper's four stages
  (SAMPLE/ENCODE/COMPUTE/DETECT), each in a ``stage.*`` span of the
  ambient tracer; :mod:`repro.core.hotpath` profiles those stages and
  holds the shared ``best_of`` timer.
* Noise and dispersion models of Sec. III-C, shared by the accuracy
  studies and the circuit-level validation.
"""

from repro.core.calibration import (
    CalibratedDPTC,
    additive_correction,
    channel_gains,
    dispersion_error_reduction,
)
from repro.core.ddot import DDot, analytic_output
from repro.core.dispersion import DispersionProfile, dispersion_profile
from repro.core.dptc import (
    CHANNEL_CACHE_SIZE,
    DPTC,
    DPTCGeometry,
    DPTCNoiseDraw,
    PreparedMatmul,
)
from repro.core.hotpath import profile_stages
from repro.core.noise import (
    DEFAULT_MAGNITUDE_STD,
    DEFAULT_PHASE_STD_DEG,
    DEFAULT_SYSTEMATIC_STD,
    EncodingNoise,
    NoiseModel,
    SystematicNoise,
)
from repro.core.sharding import (
    SHARD_AXES,
    DigitalAccumulator,
    ShardedDPTC,
    contraction_slabs,
    shard_bounds,
)

__all__ = [
    "CHANNEL_CACHE_SIZE",
    "CalibratedDPTC",
    "DDot",
    "DPTC",
    "DigitalAccumulator",
    "PreparedMatmul",
    "SHARD_AXES",
    "contraction_slabs",
    "additive_correction",
    "channel_gains",
    "dispersion_error_reduction",
    "profile_stages",
    "DPTCGeometry",
    "DPTCNoiseDraw",
    "DEFAULT_MAGNITUDE_STD",
    "DEFAULT_PHASE_STD_DEG",
    "DEFAULT_SYSTEMATIC_STD",
    "DispersionProfile",
    "EncodingNoise",
    "NoiseModel",
    "ShardedDPTC",
    "SystematicNoise",
    "analytic_output",
    "dispersion_profile",
    "shard_bounds",
]
