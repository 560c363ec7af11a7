"""Engine hot-path measurement: the per-stage profile and the one timer.

Every layer above the engine — serving, continuous batching, the
cluster — ultimately divides its throughput by the latency of one
noisy :meth:`~repro.core.dptc.DPTC.matmul`, which runs the paper's
four stages (SAMPLE, ENCODE, COMPUTE, DETECT) in one body, each inside
its own ``stage.*`` span.  This module measures that body:

* :func:`profile_stages` times the four stages separately through the
  public stage methods, plus the end-to-end call, for the
  ``repro hotpath-bench`` verb and the nightly throughput floor;
* :func:`best_of` is the one best-of-N wall-clock timer shared by the
  CLI and the wall-clock floors of ``tests_nightly/``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.dptc import DPTC

#: Stage names of the per-stage breakdown, in execution order.
STAGES = ("sample", "encode", "compute", "detect")


def best_of(fn, repeats: int, *, inner: int = 1) -> float:
    """Fastest per-call seconds of ``fn()``: one warm-up, then ``repeats`` rounds of ``inner``."""
    if repeats < 1 or inner < 1:
        raise ValueError(f"need repeats >= 1 and inner >= 1, got {repeats}, {inner}")
    fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - start) / inner)
    return min(samples)


def profile_stages(
    core: DPTC,
    a: np.ndarray,
    b: np.ndarray,
    seed: int = 0,
    repeats: int = 3,
) -> dict[str, float]:
    """Best-of-``repeats`` seconds per hot-path stage of one matmul.

    Stages are timed in isolation through the public stage API —
    SAMPLE via :meth:`DPTC.sample_noise`, ENCODE via
    :meth:`DPTC.prepare_chunk` with the pre-sampled draw, COMPUTE via
    :meth:`DPTC.compute_chunk` and DETECT via :meth:`DPTC.detect_chunk`
    on a fresh copy (DETECT scales in place).  Also reports the
    end-to-end ``total`` of a plain :meth:`DPTC.matmul` call, which the
    throughput figures divide by.

    An **ideal** (noiseless) engine has no SAMPLE/ENCODE stages — its
    matmul is one exact digital product — so the profile degrades to a
    COMPUTE/DETECT-only breakdown: ``compute`` times the exact product,
    ``detect`` is zero (no photodetection rescale on the ideal path),
    and the ``sample``/``encode`` keys are absent.  Consumers iterate
    the keys that are present (``repro hotpath-bench --noise off``).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    times: dict[str, float] = {}
    if core.noise.is_ideal:
        times["compute"] = best_of(lambda: np.matmul(a, b), repeats)
        times["detect"] = 0.0
    else:
        times["sample"] = best_of(
            lambda: core.sample_noise(a.shape, b.shape, np.random.default_rng(seed)),
            repeats,
        )
        draw = core.sample_noise(a.shape, b.shape, np.random.default_rng(seed))
        times["encode"] = best_of(
            lambda: core.prepare_chunk(a, b, draw=draw), repeats
        )
        prepared = core.prepare_chunk(a, b, draw=draw)
        times["compute"] = best_of(lambda: core.compute_chunk(prepared), repeats)
        raw = core.compute_chunk(prepared)
        times["detect"] = best_of(
            lambda: core.detect_chunk(prepared, raw.copy()), repeats
        )
    times["total"] = best_of(
        lambda: core.matmul(a, b, rng=np.random.default_rng(seed)), repeats
    )
    return times
