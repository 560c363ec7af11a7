"""Engine hot-path pipelining: chunked, double-buffered noisy matmuls.

Every layer above the engine — serving, continuous batching, the
cluster — ultimately divides its throughput by the latency of one
noisy :meth:`~repro.core.dptc.DPTC.matmul`.  The paper's dataflow
(Sec. III-B/IV) overlaps operand encoding with crossbar compute in
hardware; this module does the software equivalent for the functional
engine:

* :func:`chunk_bounds` splits the leading batch axis into contiguous
  chunks of at most ``chunk_size`` stacks;
* :func:`pipelined_matmul` runs the chunk schedule with a one-deep (or
  deeper) prefetch stage: SAMPLE+ENCODE of chunk ``k+1`` executes on a
  prefetch thread while COMPUTE+DETECT of chunk ``k`` occupies the
  caller (numpy releases the GIL inside both the RNG fill and the
  matmul kernels, so the stages genuinely overlap on multi-CPU hosts).

**The bit-equality contract.**  Chunked execution consumes the RNG in
per-chunk fused draws, chunks in batch order — which is *exactly* the
stream a sequence of unchunked engine calls on the chunk slices would
consume.  The oracle::

    np.concatenate([core.matmul(a[s:e], b[s:e], rng=rng) for s, e in bounds])

is bit-identical to ``pipelined_matmul(core, a, b, rng=rng, ...)`` for
every ``pipeline_depth`` (0 = no overlap, same schedule), because
pipelining only reorders the stages in *wall-clock* time — the draws,
their order, and every floating-point operation are unchanged.  With a
single chunk (``chunk_size >= batch``) the schedule degenerates to the
plain whole-batch call, bit for bit.

:func:`profile_stages` times the four stages (sample / encode /
compute / detect) separately for the ``BENCH_hotpath.json`` breakdown
and the ``repro hotpath-bench`` CLI verb.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import CancelledError, Executor

import numpy as np

from repro.core.dptc import DPTC
from repro.obs.trace import current_tracer


def chunk_bounds(batch: int, chunk_size: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` chunks of at most ``chunk_size``.

    Every chunk except possibly the last is exactly ``chunk_size``
    stacks; the remainder rides in the final chunk.  ``batch == 0``
    yields no chunks.
    """
    if batch < 0:
        raise ValueError(f"batch must be >= 0, got {batch}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [
        (start, min(start + chunk_size, batch))
        for start in range(0, batch, chunk_size)
    ]


def slice_batch_operand(
    x: np.ndarray, batch_rank: int, start: int, stop: int
) -> np.ndarray:
    """The ``[start, stop)`` batch rows of one operand, or the whole.

    An operand participates in the chunk split only when it actually
    carries the leading batch axis (full batch rank, size > 1);
    broadcast operands — a shared 2-D weight, a size-1 leading axis —
    pass whole, so each chunk encodes them once, exactly like the
    sequential per-chunk oracle would.
    """
    if x.ndim - 2 == batch_rank and x.shape[0] > 1:
        return x[start:stop]
    return x


def pipelined_matmul(
    core: DPTC,
    a: np.ndarray,
    b: np.ndarray,
    rng: np.random.Generator | None = None,
    *,
    chunk_size: int,
    pipeline_depth: int = 1,
    prefetch: Executor | None = None,
) -> np.ndarray:
    """Chunked ``a @ b`` on ``core`` with an overlapped prefetch stage.

    Args:
        core: the engine (any :class:`DPTC` subclass; calibrated cores
            calibrate each chunk through their own stage pair).
        a, b: stacked operands, as for :meth:`DPTC.matmul`.
        rng: noise stream; fresh unseeded generator if omitted.
        chunk_size: max stacks per chunk along the leading batch axis.
        pipeline_depth: chunks the prefetch stage may run ahead of
            compute.  0 executes the same schedule strictly
            sequentially (bit-identical — the unpipelined gate).
        prefetch: a **single-worker** executor for the SAMPLE+ENCODE
            stage.  Must be single-worker: the RNG stream is stateful
            and chunk draws must land in batch order.  ``None`` forces
            sequential execution regardless of ``pipeline_depth``.

    The prefetch stage degrades gracefully around shutdown: if the
    executor is closed mid-flight (``ShardedDPTC.close`` from another
    thread), remaining chunks are prepared inline on the calling
    thread — same draws, same order, same result, no deadlock.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out_shape = DPTC._broadcast_out_shape(a.shape, b.shape)
    batch = out_shape[:-2]
    if core.noise.is_ideal or not batch:
        # Nothing to pipeline: the ideal path is a single exact matmul,
        # and matrix operands have no batch axis to chunk.
        return core.matmul(a, b, rng=rng)
    bounds = chunk_bounds(batch[0], chunk_size)
    if len(bounds) <= 1:
        return core.matmul(a, b, rng=rng)
    if rng is None:
        rng = np.random.default_rng()

    # SAMPLE runs as ``predraw`` and ENCODE as ``prepare_chunk`` with
    # that pre-sampled draw: the exact RNG consumption and arithmetic of
    # ``prepare_chunk(rng=rng)``, split so each stage gets its own span.
    # COMPUTE/DETECT likewise split ``finish_chunk``.  Stage spans parent
    # under one ``hotpath.matmul`` span passed explicitly (prefetch
    # threads have no ambient context); ``prefetch`` marks the
    # SAMPLE+ENCODE pairs that ran on the prefetch worker.
    batch_rank = len(batch)
    tracer = current_tracer()
    caller_ident = threading.get_ident()
    span = tracer.start_span(
        "hotpath.matmul",
        batch=bounds[-1][1],
        chunks=len(bounds),
        pipeline_depth=pipeline_depth if prefetch is not None else 0,
    )

    def prepare(k: int):
        start, stop = bounds[k]
        a_k = slice_batch_operand(a, batch_rank, start, stop)
        b_k = slice_batch_operand(b, batch_rank, start, stop)
        overlapped = threading.get_ident() != caller_ident
        with tracer.span(
            "stage.sample", parent=span, chunk=k, prefetch=overlapped
        ):
            draw = core.predraw(a_k, b_k, rng)
        if draw is None:  # all-zero chunk: no draws were consumed
            return None
        with tracer.span(
            "stage.encode", parent=span, chunk=k, prefetch=overlapped
        ):
            return core.prepare_chunk(a_k, b_k, draw=draw)

    def finish(k: int, prepared) -> np.ndarray:
        if prepared is None:
            start, stop = bounds[k]
            return np.zeros((stop - start,) + out_shape[1:])
        with tracer.span("stage.compute", parent=span, chunk=k):
            raw = core.compute_chunk(prepared)
        with tracer.span("stage.detect", parent=span, chunk=k):
            return core.detect_chunk(prepared, raw)

    try:
        return _run_chunk_schedule(
            bounds, prepare, finish, pipeline_depth=pipeline_depth,
            prefetch=prefetch,
        )
    finally:
        tracer.end(span)


def _run_chunk_schedule(
    bounds: list[tuple[int, int]],
    prepare,
    finish,
    *,
    pipeline_depth: int,
    prefetch: Executor | None,
) -> np.ndarray:
    """Run the chunk schedule (sequential or prefetch-overlapped)."""
    n = len(bounds)
    results: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    if pipeline_depth < 1 or prefetch is None:
        for k in range(n):
            results[k] = finish(k, prepare(k))
        return np.concatenate(results, axis=0)

    # Overlapped schedule: keep up to `pipeline_depth` prepare futures
    # in flight on the single prefetch worker (FIFO, so the stream is
    # consumed in chunk order), finishing chunks on this thread as
    # their preparation lands.
    pending: deque = deque()
    submitted = 0
    inline = False  # prefetch executor gone: prepare on this thread

    def submit_next() -> None:
        nonlocal submitted, inline
        if inline or submitted >= n:
            return
        try:
            pending.append(prefetch.submit(prepare, submitted))
        except RuntimeError:
            # Executor shut down mid-flight (close-while-busy): the
            # remaining chunks fall back to inline preparation.
            inline = True
        else:
            submitted += 1

    for _ in range(min(pipeline_depth, n)):
        submit_next()
    for k in range(n):
        if k < submitted:
            future = pending.popleft()
            try:
                prepared = future.result()
            except CancelledError:
                # The single FIFO worker never started this prepare, so
                # nothing behind it ran either: the stream is positioned
                # exactly at chunk k.  Drop the dead queue and continue
                # inline, in order.
                for stale in pending:
                    stale.cancel()
                pending.clear()
                submitted = k
                inline = True
                prepared = prepare(k)
            else:
                submit_next()
        else:
            prepared = prepare(k)
        results[k] = finish(k, prepared)
    return np.concatenate(results, axis=0)


# -- stage profiling -------------------------------------------------------

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
