"""Multi-core sharded execution of batched DPTC matmuls (Sec. IV).

The accelerator is not one DPTC but a grid of them — LT-B provisions
4 tiles x 2 cores — and its throughput comes from spreading a
transformer's GEMM stacks across that grid.  :class:`ShardedDPTC`
models that for the functional execution path along *either* axis of
the paper's dataflow:

* ``shard_axis="batch"`` — a batched ``[..., m, d] x [..., d, n]``
  matmul is split along the leading batch axis into contiguous shards,
  one per core; results are concatenated in shard order.
* ``shard_axis="contraction"`` — every core executes a contiguous
  ``[..., m, d/N] x [..., d/N, n]`` K-slab of the *same* matrix
  product through its own DPTC, and the per-core partial products are
  summed by a :class:`DigitalAccumulator`, mirroring the paper's
  post-photodetection digital partial-sum accumulation.

Per-core state is genuinely per-core:

* each core is a separate :class:`DPTC` (or :class:`CalibratedDPTC`)
  object, so dispersion profiles, channel caches, and calibration state
  never alias between cores;
* each core draws noise from its own RNG stream, spawned from the call's
  generator by core index (``rng.spawn``), so noise statistics stay
  per-core and a fixed seed reproduces the exact same per-core draws
  regardless of which cores end up with work or how the scheduler
  interleaves them.

**Exactness contract.**  On the ideal path the sharded result is
*bit-identical* to the single-core batched call (and to ``np.matmul``)
for both shard axes.  For the batch axis this is free — shards are
disjoint slices.  For the contraction axis it is a statement about the
*digital* accumulator: in hardware the per-slab partial products leave
the photodetectors through the ADC as fixed-point words and the digital
adder tree sums them exactly (integer addition is associative).  A
float64 model can only honour that exactness by not reassociating the
contraction — summing independently *rounded* float64 slab products
would inject ~1e-16 reassociation error that the exact fixed-point
accumulation does not have.  The ideal path therefore evaluates the
exact product in one full-contraction ``np.matmul`` on core 0, while
the noisy path performs genuine per-core K-slab execution plus
core-order digital accumulation (there the reassociation sits far
below the modelled noise floor).  Under noise the sharded result
matches the single-core engine distributionally — each core is its own
physical device with its own stochastic encoding, exactly as in
hardware.

**Parallel execution.**  Shards run on a thread pool, one worker per
core (numpy releases the GIL inside the heavy kernels).  Results are
reassembled in shard (core) order and every core consumes only its own
stream, so parallel and sequential (``parallel=False``) execution of the
same seed are bit-equal and independent of scheduling.

**Tracing.**  :meth:`ShardedDPTC.matmul` opens a ``shard.matmul`` span
on the caller thread and each core a ``shard.core`` span under it,
re-activated on the pool thread; the core's :meth:`DPTC.matmul` then
records its four ``stage.*`` spans under ``shard.core``.
"""

from __future__ import annotations

import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.dptc import DPTC, DPTCGeometry
from repro.core.noise import NoiseModel
from repro.obs.trace import current_tracer
from repro.optics.wdm import WDMGrid

#: Supported sharding axes: leading batch axis or the contraction (K) axis.
SHARD_AXES = ("batch", "contraction")


def shard_bounds(batch: int, num_shards: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` bounds splitting ``batch`` items.

    ``np.array_split`` semantics: the first ``batch % num_shards`` shards
    get one extra item; when ``num_shards > batch`` the trailing shards
    are empty (those cores simply idle).
    """
    if batch < 0:
        raise ValueError(f"batch must be >= 0, got {batch}")
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    base, extra = divmod(batch, num_shards)
    bounds = []
    start = 0
    for index in range(num_shards):
        stop = start + base + (1 if index < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def slice_batch_operand(
    x: np.ndarray, batch_rank: int, start: int, stop: int
) -> np.ndarray:
    """The ``[start, stop)`` batch rows of one operand, or the whole.

    An operand participates in the batch split only when it actually
    carries the leading batch axis (full batch rank, size > 1);
    broadcast operands — a shared 2-D weight, a size-1 leading axis —
    pass whole, so each core encodes them once for its shard.
    """
    if x.ndim - 2 == batch_rank and x.shape[0] > 1:
        return x[start:stop]
    return x


def contraction_slabs(
    x: np.ndarray, num_shards: int, axis: int
) -> list[np.ndarray]:
    """Contiguous slabs of ``x`` along ``axis``, one per shard.

    The K-axis companion of :func:`shard_bounds`: slab ``i`` holds
    ``x[..., start_i:stop_i, ...]`` (``shard_bounds`` split along
    ``axis``), so concatenating the slabs along ``axis`` reproduces
    ``x`` exactly and ``num_shards`` greater than the axis length
    yields empty trailing slabs.  Slabs are views, not copies.
    """
    x = np.asarray(x)
    if not -x.ndim <= axis < x.ndim:
        raise ValueError(f"axis {axis} out of range for ndim {x.ndim}")
    slabs = []
    index: list[slice] = [slice(None)] * x.ndim
    for start, stop in shard_bounds(x.shape[axis], num_shards):
        index[axis] = slice(start, stop)
        slabs.append(x[tuple(index)])
    return slabs


class DigitalAccumulator:
    """Post-photodetection digital partial-sum accumulation (Sec. IV).

    After each core's photodetectors and ADCs produce a partial product
    for its contraction slab, the digital accumulator sums the partials
    — in core order, matching the adder tree's deterministic reduction.
    This is the float64 stand-in for the hardware's exact fixed-point
    accumulation; see the module docstring for why the *ideal* path
    bypasses it in favour of one exact full-contraction product.
    """

    @staticmethod
    def accumulate(partials: list[np.ndarray]) -> np.ndarray:
        """Sum per-core partial products in core order."""
        if not partials:
            raise ValueError("need at least one partial product")
        out = np.array(partials[0], dtype=float, copy=True)
        for partial in partials[1:]:
            out += partial
        return out


class ShardedDPTC:
    """N DPTC cores executing one batched matmul as shards.

    Drop-in for :class:`DPTC` on the ``matmul(a, b, rng=...)`` surface;
    with ``num_cores=1`` it degenerates to the plain single-core
    batched engine for either shard axis (plus the per-core
    stream-spawning discipline, kept uniform across core counts so
    results depend only on the seed and the core index).

    Args:
        num_cores: cores to spread the work over.
        geometry / noise / grid: forwarded to every core.
        core_cls: core implementation, e.g. :class:`CalibratedDPTC`;
            each core gets its own instance (own calibration state).
        parallel: run shards on the thread pool; sequential execution
            (``parallel=False``) gives bit-identical results.
        shard_axis: ``"batch"`` splits the leading batch axis into
            contiguous per-core shards; ``"contraction"`` splits the
            K axis into contiguous per-core slabs whose partial
            products are digitally accumulated in core order.
    """

    def __init__(
        self,
        num_cores: int = 1,
        geometry: DPTCGeometry | None = None,
        noise: NoiseModel | None = None,
        grid: WDMGrid | None = None,
        core_cls: type[DPTC] = DPTC,
        parallel: bool = True,
        shard_axis: str = "batch",
    ) -> None:
        if num_cores < 1:
            raise ValueError(f"num_cores must be >= 1, got {num_cores}")
        if shard_axis not in SHARD_AXES:
            raise ValueError(
                f"shard_axis must be one of {SHARD_AXES}, got {shard_axis!r}"
            )
        self.num_cores = num_cores
        self.shard_axis = shard_axis
        self.cores = [core_cls(geometry, noise, grid) for _ in range(num_cores)]
        self.geometry = self.cores[0].geometry
        self.noise = self.cores[0].noise
        self.grid = self.cores[0].grid
        self.parallel = parallel
        self._pool: ThreadPoolExecutor | None = None
        self._finalizer: weakref.finalize | None = None

    def close(self) -> None:
        """Shut down the worker pool (idempotent; it recreates lazily).

        Waits for in-flight core jobs, and detaches the
        garbage-collection finalizer, so no executor outlives an
        explicitly closed engine.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None

    def _workers(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.num_cores, thread_name_prefix="dptc-core"
            )
            # Release the workers when this engine is collected; the
            # finalizer holds the pool, not self, so no cycle.
            self._finalizer = weakref.finalize(
                self, self._pool.shutdown, wait=False
            )
        return self._pool

    def tile_matmul(
        self,
        a: np.ndarray,
        b: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """One-shot single-tile product; a single tile occupies one core."""
        return self.cores[0].tile_matmul(a, b, rng=rng)

    def _spawn_streams(self, rng: np.random.Generator | None) -> list:
        """One independent child stream per core (stable by core index).

        ``SeedSequence`` spawning is prefix-stable: child ``i`` of a
        fresh generator is the same stream for *any* ``num_cores > i``,
        so growing the core grid never perturbs the draws of the cores
        that already existed.
        """
        if self.noise.is_ideal:
            return [None] * self.num_cores
        if rng is None:
            rng = np.random.default_rng()
        return rng.spawn(self.num_cores)

    def _core_matmul(
        self,
        index: int,
        a: np.ndarray,
        b: np.ndarray,
        stream: np.random.Generator | None,
        trace: tuple,
    ) -> np.ndarray:
        """One core's shard under its ``shard.core`` span.

        ``trace`` is ``(tracer, parent_span)`` captured on the *caller*
        thread: this method may run on a pool thread where the ambient
        contextvars are empty, so the shard span crosses explicitly and
        is re-activated here for the core's stage spans beneath.
        """
        tracer, parent = trace
        with (
            tracer.span("shard.core", parent=parent, core=index) as core_span,
            tracer.activate(core_span),
        ):
            return self.cores[index].matmul(a, b, rng=stream)

    def _run_jobs(self, jobs: list[tuple], trace: tuple) -> list[np.ndarray]:
        """Execute ``(core_index, a, b, stream)`` jobs, results in job order."""
        if not self.parallel:
            return [
                self._core_matmul(index, a, b, stream, trace)
                for index, a, b, stream in jobs
            ]

        def run(job: tuple) -> np.ndarray:
            index, a, b, stream = job
            return self._core_matmul(index, a, b, stream, trace)

        return list(self._workers().map(run, jobs))

    def matmul(
        self,
        a: np.ndarray,
        b: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Batched ``a @ b`` sharded across the cores.

        Dispatches on :attr:`shard_axis`; cores with an empty shard or
        slab idle (their RNG streams are still reserved, so per-core
        draws are reproducible independently of the problem size).
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        out_shape = DPTC._broadcast_out_shape(a.shape, b.shape)
        tracer = current_tracer()
        with tracer.span(
            "shard.matmul",
            num_cores=self.num_cores,
            shard_axis=self.shard_axis,
            batch=list(out_shape[:-2]),
        ) as span:
            trace = (tracer, span)
            if self.shard_axis == "contraction":
                return self._matmul_contraction(a, b, out_shape, rng, trace)
            return self._matmul_batch(a, b, out_shape, rng, trace)

    def _matmul_batch(
        self,
        a: np.ndarray,
        b: np.ndarray,
        out_shape: tuple[int, ...],
        rng: np.random.Generator | None,
        trace: tuple,
    ) -> np.ndarray:
        """Leading-batch-axis sharding (concatenate in shard order)."""
        batch = out_shape[:-2]
        streams = self._spawn_streams(rng)
        # <= 1 covers the zero-size batch axis too: core 0 returns the
        # empty stack exactly like the single-core engine.
        if not batch or batch[0] <= 1 or self.num_cores == 1:
            return self._core_matmul(0, a, b, streams[0], trace)

        batch_rank = len(batch)
        jobs = []  # (core_index, a_shard, b_shard, stream)
        for index, (start, stop) in enumerate(
            shard_bounds(batch[0], self.num_cores)
        ):
            if start == stop:
                continue
            jobs.append(
                (
                    index,
                    slice_batch_operand(a, batch_rank, start, stop),
                    slice_batch_operand(b, batch_rank, start, stop),
                    streams[index],
                )
            )
        # batch[0] >= 2 and num_cores >= 2 here, so there are always at
        # least two non-empty shards.
        results = self._run_jobs(jobs, trace)
        out = np.concatenate(results, axis=0)
        assert out.shape == out_shape
        return out

    def _matmul_contraction(
        self,
        a: np.ndarray,
        b: np.ndarray,
        out_shape: tuple[int, ...],
        rng: np.random.Generator | None,
        trace: tuple,
    ) -> np.ndarray:
        """Contraction-axis sharding with digital partial-sum accumulation.

        Core ``i`` executes the contiguous K-slab ``a[..., ki:ki+1] @
        b[..., ki:ki+1, :]`` on its own DPTC with its own RNG stream;
        the :class:`DigitalAccumulator` then sums the partial products
        in core order.  The ideal path evaluates the exact
        full-contraction product on core 0 instead — the accumulator is
        exact in hardware, and reassociating a float64 contraction is
        not (see the module docstring) — which keeps ideal results
        bit-identical to ``np.matmul`` at every core count, divisible
        or not.
        """
        d = a.shape[-1]
        streams = self._spawn_streams(rng)
        if self.noise.is_ideal or self.num_cores == 1 or d <= 1:
            # Ideal: exact digital accumulation == the exact product.
            # num_cores == 1 (or a single-element contraction): the
            # plain batched engine, one slab on core 0 / stream 0.
            return self._core_matmul(0, a, b, streams[0], trace)

        a_slabs = contraction_slabs(a, self.num_cores, axis=-1)
        b_slabs = contraction_slabs(b, self.num_cores, axis=-2)
        jobs = [  # (core_index, a_slab, b_slab, stream)
            (index, a_slab, b_slab, streams[index])
            for index, (a_slab, b_slab) in enumerate(zip(a_slabs, b_slabs))
            if a_slab.shape[-1] > 0  # num_cores > d: trailing cores idle
        ]
        partials = self._run_jobs(jobs, trace)
        out = DigitalAccumulator.accumulate(partials)
        assert out.shape == out_shape
        return out
