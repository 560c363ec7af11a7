"""The seed's per-matrix DPTC loop: the oracle of the batched engine.

:meth:`DPTC.matmul` computes a whole ``[..., m, d] x [..., d, n]`` stack
in single whole-batch expressions.  The engine it replaced looped a 2-D
product per matrix; that loop is kept here, unchanged apart from taking
the engine as ``dptc`` instead of ``self``, as ground truth for
``tests/core/test_batched_dptc.py`` and the batched-vs-loop wall-clock
floor in ``tests_nightly/test_wallclock_floors.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.dptc import DPTC, DPTCNoiseDraw


def matmul_reference(
    dptc: DPTC,
    a: np.ndarray,
    b: np.ndarray,
    rng: np.random.Generator | None = None,
    draw: DPTCNoiseDraw | None = None,
) -> np.ndarray:
    """Per-matrix Python-loop execution (the pre-batching engine).

    Preserved as ground truth for :meth:`DPTC.matmul`: every ``[m, d] x
    [d, n]`` slice of the stack is computed by a separate 2-D
    evaluation, exactly like the original executor loop.

    Two RNG disciplines are supported:

    * ``draw`` given — the loop consumes the one whole-batch noise
      realisation (sampling order preserved), so the result matches
      the vectorised engine to machine precision;
    * ``rng`` given (or neither) — noise is sampled per matrix
      inside the loop, the original engine's behaviour; results
      then match the batched path only distributionally.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out_shape = dptc._broadcast_out_shape(a.shape, b.shape)
    batch = out_shape[:-2]
    a_full = np.broadcast_to(a, batch + a.shape[-2:])
    b_full = np.broadcast_to(b, batch + b.shape[-2:])

    if dptc.noise.is_ideal:
        out = np.empty(out_shape)
        for index in np.ndindex(batch):
            out[index] = a_full[index] @ b_full[index]
        return out

    out = np.empty(out_shape)
    if draw is None:
        # Original discipline: every slice samples its own noise
        # from the shared generator, exactly like the pre-batching
        # engine did (five separate draws per matrix).
        if rng is None:
            rng = np.random.default_rng()
        for index in np.ndindex(batch):
            out[index] = _matmul_2d_legacy(dptc, a_full[index], b_full[index], rng)
        return out

    magnitude_a = np.broadcast_to(draw.magnitude_a, a_full.shape)
    magnitude_b = np.broadcast_to(draw.magnitude_b, b_full.shape)
    phase_a = np.broadcast_to(draw.phase_a, a_full.shape)
    phase_b = np.broadcast_to(draw.phase_b, b_full.shape)
    systematic = np.broadcast_to(draw.systematic, out_shape)
    for index in np.ndindex(batch):
        slice_draw = DPTCNoiseDraw(
            magnitude_a=magnitude_a[index],
            magnitude_b=magnitude_b[index],
            phase_a=phase_a[index],
            phase_b=phase_b[index],
            systematic=systematic[index],
        )
        out[index] = _noisy_matmul_2d(
            dptc, a_full[index], b_full[index], slice_draw
        )
    return out


def _matmul_2d_legacy(
    dptc: DPTC, a: np.ndarray, b: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """The original (pre-batching) noisy 2-D product, verbatim.

    Samples noise inline — magnitude A, magnitude B, phase A,
    phase B, systematic, each as its own draw — and recomputes the
    channel tiling per call, exactly like the seed implementation.
    """
    beta_a = float(np.max(np.abs(a)))
    beta_b = float(np.max(np.abs(b)))
    if beta_a == 0.0 or beta_b == 0.0:
        return np.zeros((a.shape[0], b.shape[1]))

    a_hat = dptc.noise.encoding.perturb_magnitude(a / beta_a, rng)
    b_hat = dptc.noise.encoding.perturb_magnitude(b / beta_b, rng)

    d = a.shape[1]
    kappa = np.resize(dptc.profile.kappa, d)
    phase_deviation = np.resize(dptc.profile.phase_deviation, d)
    two_tk = 2.0 * np.sqrt(kappa * (1.0 - kappa))

    phase_a = dptc.noise.encoding.sample_phase(a.shape, rng)
    phase_b = dptc.noise.encoding.sample_phase(b.shape, rng)
    angle_b = phase_deviation[:, None] + phase_b
    a_cos = a_hat * np.cos(phase_a)
    a_sin = a_hat * np.sin(phase_a)
    b_cos = two_tk[:, None] * b_hat * np.cos(angle_b)
    b_sin = two_tk[:, None] * b_hat * np.sin(angle_b)
    out = a_cos @ b_cos + a_sin @ b_sin

    additive = -(2.0 * kappa - 1.0)
    out += 0.5 * ((a_hat**2) @ additive)[:, None]
    out -= 0.5 * (additive @ (b_hat**2))[None, :]

    out = dptc.noise.systematic.apply(out, rng)
    return out * beta_a * beta_b


def _noisy_matmul_2d(
    dptc: DPTC, a: np.ndarray, b: np.ndarray, draw: DPTCNoiseDraw
) -> np.ndarray:
    """One noisy 2-D product with an explicit noise realisation."""
    beta_a = float(np.max(np.abs(a)))
    beta_b = float(np.max(np.abs(b)))
    if beta_a == 0.0 or beta_b == 0.0:
        return np.zeros((a.shape[0], b.shape[1]))

    a_hat = (a / beta_a) * draw.magnitude_a
    b_hat = (b / beta_b) * draw.magnitude_b
    kappa, phase_deviation, two_tk = dptc._channel_factors(a.shape[1])

    angle_b = phase_deviation[:, None] + draw.phase_b
    a_cos = a_hat * np.cos(draw.phase_a)
    a_sin = a_hat * np.sin(draw.phase_a)
    b_cos = two_tk[:, None] * b_hat * np.cos(angle_b)
    b_sin = two_tk[:, None] * b_hat * np.sin(angle_b)
    out = a_cos @ b_cos + a_sin @ b_sin

    additive = -(2.0 * kappa - 1.0)
    out += 0.5 * ((a_hat**2) @ additive)[:, None]
    out -= 0.5 * (additive @ (b_hat**2))[None, :]

    out = out * draw.systematic
    return out * (beta_a * beta_b)
