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
  regardless of which cores end up with work, which backend runs them,
  or how the scheduler interleaves them.

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

**Backends.**  ``backend="thread"`` runs shards on a thread pool
(numpy releases the GIL inside the heavy kernels).  ``backend=
"process"`` runs them on a :class:`~concurrent.futures.
ProcessPoolExecutor` for true parallelism on multi-CPU hosts: the
per-core constructor arguments are pickled once per worker (pool
initializer) and workers rebuild their :class:`DPTC` replicas
deterministically on first use.  The hot path ships **no generators
and no pickled operands**: the parent pre-draws each job's noise from
the per-core stream (:meth:`DPTC.predraw`, consumed in exactly the
order the worker would have) and packs operands plus draw arrays into
one ``multiprocessing.shared_memory`` segment per call
(:mod:`repro.core.hotpath`), so jobs carry only names, offsets and
shapes.  Thread, process, and sequential execution of the same seed
are therefore bit-equal and independent of scheduling.  The pool uses
the ``spawn`` start method, which behaves identically on every
platform and never forks a threaded parent.  Results are reassembled
in shard (core) order, so the output never depends on the backend or
schedule.

**Chunked pipelining.**  ``chunk_size=c`` splits every per-core shard
into chunks of at most ``c`` stacks along the leading batch axis and
executes them through :func:`repro.core.hotpath.pipelined_matmul`:
with ``pipeline_depth >= 1`` (thread backend) each core's SAMPLE +
ENCODE stage for chunk ``k+1`` runs on a dedicated single-worker
prefetch thread while COMPUTE + DETECT of chunk ``k`` occupies the
core's pool thread; on the process backend the parent plays the
prefetch stage — it pre-draws every chunk's noise while the workers
chew through ENCODE+COMPUTE+DETECT.  Chunked execution consumes the
RNG in per-chunk fused draws, chunks in batch order, which is exactly
the stream sequential per-chunk engine calls would consume — so for
equal seeds pipelined == unpipelined == sequential, bit for bit,
across backends and shard axes.  ``chunk_size=None`` (default) keeps
the whole-batch draw order of the unchunked engine.
"""

from __future__ import annotations

import multiprocessing
import weakref
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np

from repro.core.dptc import DPTC, DPTCGeometry, DPTCNoiseDraw
from repro.core.hotpath import (
    attach_segment,
    chunk_bounds,
    pack_arrays,
    pipelined_matmul,
    release_segment,
    slice_batch_operand,
    unpack_spec,
)
from repro.core.hotpath import shared_memory as _shm_module
from repro.core.noise import NoiseModel
from repro.obs.trace import current_tracer
from repro.optics.wdm import WDMGrid

#: Supported sharding axes: leading batch axis or the contraction (K) axis.
SHARD_AXES = ("batch", "contraction")

#: Supported shard-execution backends.
BACKENDS = ("thread", "process")

#: Start method for the process backend.  ``spawn`` is deliberately
#: chosen over the Linux default ``fork``: it behaves identically on
#: every platform, never forks a parent that already runs pool threads,
#: and makes worker state reconstruction explicit (the initializer),
#: which is what keeps seeded runs scheduler-independent.
_MP_START_METHOD = "spawn"


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


# -- process-backend worker state -----------------------------------------
#
# Each worker process rebuilds its DPTC replicas from constructor
# arguments shipped once via the pool initializer (pickled once per
# worker).  Construction is deterministic, and every job carries the
# core index plus that core's *pre-drawn* noise (or none, on the ideal
# path), so results depend only on (seed, core index, operands) — never
# on which worker happens to execute which core.

_WORKER_FACTORY: tuple | None = None
_WORKER_CORES: dict[int, DPTC] = {}


def _process_worker_init(
    core_cls: type[DPTC],
    geometry: DPTCGeometry,
    noise: NoiseModel,
    grid: WDMGrid,
) -> None:
    global _WORKER_FACTORY
    _WORKER_FACTORY = (core_cls, geometry, noise, grid)
    _WORKER_CORES.clear()


def _resolve_ref(segment, ref):
    """An operand/draw component from its job reference.

    Specs (``(offset, shape, dtype)`` tuples) resolve to views of the
    shared segment; plain floats and ndarrays (the inline-pickle
    fallback) pass through unchanged.
    """
    if isinstance(ref, tuple):
        return unpack_spec(segment, ref)
    return ref


def _process_worker_run(job: tuple) -> np.ndarray:
    """Execute one ``(shm_name, core_index, a_ref, b_ref, draw_refs)`` job.

    ``draw_refs`` is ``None`` only on the ideal path (exact matmul, no
    noise to draw); noisy jobs always carry the parent's pre-drawn
    realisation, so workers never touch an RNG.  Shared segments are
    attached per job and released before returning — the engine's
    matmul never returns memory aliasing its inputs, so the result
    survives the detach.
    """
    shm_name, core_index, a_ref, b_ref, draw_refs = job
    core = _WORKER_CORES.get(core_index)
    if core is None:
        if _WORKER_FACTORY is None:
            raise RuntimeError("process worker used before initialization")
        core_cls, geometry, noise, grid = _WORKER_FACTORY
        core = core_cls(geometry, noise, grid)
        _WORKER_CORES[core_index] = core
    segment = attach_segment(shm_name) if shm_name is not None else None
    try:
        a = _resolve_ref(segment, a_ref)
        b = _resolve_ref(segment, b_ref)
        if draw_refs is None:
            return core.matmul(a, b)
        draw = DPTCNoiseDraw(*(_resolve_ref(segment, ref) for ref in draw_refs))
        return core.matmul(a, b, draw=draw)
    finally:
        if segment is not None:
            release_segment(segment)


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
        parallel: run shards on the worker pool; sequential execution
            (``parallel=False``) gives bit-identical results.
        shard_axis: ``"batch"`` splits the leading batch axis into
            contiguous per-core shards; ``"contraction"`` splits the
            K axis into contiguous per-core slabs whose partial
            products are digitally accumulated in core order.
        backend: ``"thread"`` (default) or ``"process"``; see the
            module docstring.  Bit-equal for equal seeds.
        chunk_size: when set, split each core's shard into chunks of at
            most this many stacks along the leading batch axis and
            pipeline them (see the module docstring); ``None`` keeps
            the unchunked whole-shard draw order.
        pipeline_depth: chunks the prefetch stage may run ahead of
            compute (thread backend; the process backend's parent-side
            predraw is inherently ahead).  0 runs the chunk schedule
            strictly sequentially — bit-identical, no overlap.
        shared_memory: ship process-backend operands and draws through
            ``multiprocessing.shared_memory`` (default) instead of
            pickling them into the job queue.  Results are bit-equal
            either way; the flag exists as an escape hatch.
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
        backend: str = "thread",
        chunk_size: int | None = None,
        pipeline_depth: int = 1,
        shared_memory: bool = True,
    ) -> None:
        if num_cores < 1:
            raise ValueError(f"num_cores must be >= 1, got {num_cores}")
        if shard_axis not in SHARD_AXES:
            raise ValueError(
                f"shard_axis must be one of {SHARD_AXES}, got {shard_axis!r}"
            )
        if backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {backend!r}"
            )
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1 or None, got {chunk_size}")
        if pipeline_depth < 0:
            raise ValueError(
                f"pipeline_depth must be >= 0, got {pipeline_depth}"
            )
        self.num_cores = num_cores
        self.shard_axis = shard_axis
        self.backend = backend
        self.core_cls = core_cls
        self.cores = [core_cls(geometry, noise, grid) for _ in range(num_cores)]
        self.geometry = self.cores[0].geometry
        self.noise = self.cores[0].noise
        self.grid = self.cores[0].grid
        self.parallel = parallel
        self.chunk_size = chunk_size
        self.pipeline_depth = pipeline_depth
        self.shared_memory = shared_memory and _shm_module is not None
        self._pool: Executor | None = None
        self._finalizer: weakref.finalize | None = None
        self._prefetch_pools: list[ThreadPoolExecutor | None] = [None] * num_cores
        self._prefetch_finalizers: list[weakref.finalize] = []

    def close(self) -> None:
        """Shut down every worker pool (idempotent; pools recreate lazily).

        Prefetch pools are drained *first*, then the main pool: an
        in-flight core job that tries to prefetch after its pool closed
        gets a ``RuntimeError`` from ``submit`` and falls back to
        preparing chunks inline (same draws, same order), so a
        close-while-busy never deadlocks and never changes results.
        Releases thread *and* process pools alike and detaches the
        garbage-collection finalizers, so no executor outlives an
        explicitly closed engine.
        """
        for index, pool in enumerate(self._prefetch_pools):
            if pool is not None:
                pool.shutdown(wait=True)
                self._prefetch_pools[index] = None
        for finalizer in self._prefetch_finalizers:
            finalizer.detach()
        self._prefetch_finalizers.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None

    def _workers(self) -> Executor:
        if self._pool is None:
            if self.backend == "process":
                self._pool = ProcessPoolExecutor(
                    max_workers=self.num_cores,
                    mp_context=multiprocessing.get_context(_MP_START_METHOD),
                    initializer=_process_worker_init,
                    initargs=(self.core_cls, self.geometry, self.noise, self.grid),
                )
            else:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.num_cores, thread_name_prefix="dptc-core"
                )
            # Release the workers when this engine is collected; the
            # finalizer holds the pool, not self, so no cycle.
            self._finalizer = weakref.finalize(
                self, self._pool.shutdown, wait=False
            )
        return self._pool

    def _prefetch(self, index: int) -> ThreadPoolExecutor:
        """Core ``index``'s lazy single-worker SAMPLE+ENCODE stage.

        Single-worker is load-bearing: the prefetch executor serialises
        chunk preparations in submission (FIFO) order, which is what
        keeps the stateful RNG stream consumed in batch order at any
        ``pipeline_depth``.
        """
        pool = self._prefetch_pools[index]
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=f"dptc-prefetch-{index}"
            )
            self._prefetch_pools[index] = pool
            self._prefetch_finalizers.append(
                weakref.finalize(self, pool.shutdown, wait=False)
            )
        return pool

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

    @staticmethod
    def _shard_operand(
        x: np.ndarray, batch_rank: int, start: int, stop: int
    ) -> np.ndarray:
        """Slice the shard's rows out of one operand (batch axis).

        An operand only participates in the split when it actually
        carries the leading batch axis (full batch rank and size > 1);
        broadcast operands — a shared 2-D weight, or a size-1 leading
        axis — are passed whole, so each core encodes them once for its
        shard, mirroring the crossbar's operand sharing.
        """
        return slice_batch_operand(x, batch_rank, start, stop)

    def _core_matmul(
        self,
        index: int,
        a: np.ndarray,
        b: np.ndarray,
        stream: np.random.Generator | None,
        trace: tuple,
        sequential: bool = False,
    ) -> np.ndarray:
        """One core's shard, chunk-pipelined when ``chunk_size`` is set.

        ``sequential=True`` (the ``parallel=False`` engine) runs the
        identical chunk schedule with no prefetch overlap — the
        bit-equality oracle for the pipelined paths.

        ``trace`` is ``(tracer, parent_span)`` captured on the *caller*
        thread: this method may run on a pool thread where the ambient
        contextvars are empty, so the shard span crosses explicitly and
        is re-activated here for the hot path beneath.
        """
        tracer, parent = trace
        with (
            tracer.span("shard.core", parent=parent, core=index) as core_span,
            tracer.activate(core_span),
        ):
            core = self.cores[index]
            if self.chunk_size is None:
                return core.matmul(a, b, rng=stream)
            prefetch = None
            depth = 0
            if not sequential and self.parallel and self.pipeline_depth >= 1:
                depth = self.pipeline_depth
                prefetch = self._prefetch(index)
            return pipelined_matmul(
                core,
                a,
                b,
                stream,
                chunk_size=self.chunk_size,
                pipeline_depth=depth,
                prefetch=prefetch,
            )

    def _run_jobs(self, jobs: list[tuple], trace: tuple) -> list[np.ndarray]:
        """Execute ``(core_index, a, b, stream)`` jobs, results in job order."""
        if not self.parallel:
            return [
                self._core_matmul(index, a, b, stream, trace, sequential=True)
                for index, a, b, stream in jobs
            ]
        if self.backend == "process":
            # Spans cannot cross the process boundary; the parent's
            # SAMPLE stage + dispatch is visible as one point event.
            trace[1].add_event(
                "process_dispatch",
                jobs=len(jobs),
                cores=sorted({job[0] for job in jobs}),
            )
            return self._run_jobs_process(jobs)

        def run(job: tuple) -> np.ndarray:
            index, a, b, stream = job
            return self._core_matmul(index, a, b, stream, trace)

        return list(self._workers().map(run, jobs))

    def _run_jobs_process(self, jobs: list[tuple]) -> list[np.ndarray]:
        """Process-backend execution with pre-drawn noise + shared memory.

        The parent is the pipeline's SAMPLE stage: it consumes each
        per-core stream chunk-by-chunk (exactly the order the chunked
        thread/sequential paths consume it), packs operands and draw
        arrays into one shared segment, and ships reference-only jobs.
        All-zero chunks short-circuit parent-side — the worker never
        sees them, matching the engine's draw-less zero fast path.
        """
        raw: list[tuple[int, np.ndarray, np.ndarray, DPTCNoiseDraw | None]] = []
        plan: list[list[tuple]] = []  # ("zeros", shape) | ("job", raw_index)
        for index, a, b, stream in jobs:
            entries: list[tuple] = []
            if self.noise.is_ideal:
                # Exact matmul: no draws, no chunk gain — one whole job.
                entries.append(("job", len(raw)))
                raw.append((index, a, b, None))
                plan.append(entries)
                continue
            out_shape = DPTC._broadcast_out_shape(a.shape, b.shape)
            batch = out_shape[:-2]
            chunked = (
                self.chunk_size is not None
                and bool(batch)
                and batch[0] > self.chunk_size
            )
            if not chunked:
                draw = self.cores[index].predraw(a, b, stream)
                if draw is None:
                    entries.append(("zeros", out_shape))
                else:
                    entries.append(("job", len(raw)))
                    raw.append((index, a, b, draw))
                plan.append(entries)
                continue
            batch_rank = len(batch)
            for start, stop in chunk_bounds(batch[0], self.chunk_size):
                a_chunk = slice_batch_operand(a, batch_rank, start, stop)
                b_chunk = slice_batch_operand(b, batch_rank, start, stop)
                draw = self.cores[index].predraw(a_chunk, b_chunk, stream)
                if draw is None:
                    entries.append(("zeros", (stop - start,) + out_shape[1:]))
                else:
                    entries.append(("job", len(raw)))
                    raw.append((index, a_chunk, b_chunk, draw))
            plan.append(entries)

        job_results: list[np.ndarray] = []
        if raw:
            packed_jobs, segment = self._pack_process_jobs(raw)
            try:
                job_results = list(
                    self._workers().map(_process_worker_run, packed_jobs)
                )
            finally:
                if segment is not None:
                    release_segment(segment, unlink=True)

        results = []
        for entries in plan:
            parts = [
                np.zeros(payload) if tag == "zeros" else job_results[payload]
                for tag, payload in entries
            ]
            results.append(
                parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)
            )
        return results

    def _pack_process_jobs(self, raw: list[tuple]) -> tuple[list[tuple], object]:
        """Turn predrawn jobs into shipped jobs (+ the shared segment).

        With shared memory enabled, every distinct operand/draw array is
        copied into the segment exactly once (dedupe by identity — a
        broadcast weight shared across cores packs once) and jobs carry
        ``(offset, shape, dtype)`` specs; scalars ride along inline.
        The fallback ships the arrays themselves (pickled), same job
        shape, ``shm_name=None``.
        """
        if not self.shared_memory:
            return [
                (
                    None,
                    index,
                    a,
                    b,
                    None if draw is None else (
                        draw.magnitude_a,
                        draw.magnitude_b,
                        draw.phase_a,
                        draw.phase_b,
                        draw.systematic,
                    ),
                )
                for index, a, b, draw in raw
            ], None
        arrays: list[np.ndarray] = []
        slot_by_id: dict[int, int] = {}
        staged: list[tuple] = []

        def stage(x):
            if isinstance(x, np.ndarray):
                key = id(x)
                if key not in slot_by_id:
                    slot_by_id[key] = len(arrays)
                    arrays.append(x)
                return ("slot", slot_by_id[key])
            return ("inline", x)

        for index, a, b, draw in raw:
            staged.append(
                (
                    index,
                    stage(a),
                    stage(b),
                    None if draw is None else tuple(
                        stage(component)
                        for component in (
                            draw.magnitude_a,
                            draw.magnitude_b,
                            draw.phase_a,
                            draw.phase_b,
                            draw.systematic,
                        )
                    ),
                )
            )
        segment, specs = pack_arrays(arrays)

        def resolve(ref):
            tag, payload = ref
            return specs[payload] if tag == "slot" else payload

        packed = [
            (
                segment.name,
                index,
                resolve(a_ref),
                resolve(b_ref),
                None if draw_refs is None else tuple(
                    resolve(ref) for ref in draw_refs
                ),
            )
            for index, a_ref, b_ref, draw_refs in staged
        ]
        return packed, segment

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
            backend=self.backend,
            batch=list(out_shape[:-2]),
        ) as span:
            trace = (tracer, span)
            if self.shard_axis == "contraction":
                return self._matmul_contraction(a, b, out_shape, rng, trace)
            return self._matmul_batch(a, b, out_shape, rng, trace)

    def _single(
        self,
        a: np.ndarray,
        b: np.ndarray,
        stream: np.random.Generator | None,
        trace: tuple,
    ) -> np.ndarray:
        """Whole problem on core 0 (chunk-pipelined in the parent)."""
        return self._core_matmul(
            0, a, b, stream, trace, sequential=not self.parallel
        )

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
            return self._single(a, b, streams[0], trace)

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
                    self._shard_operand(a, batch_rank, start, stop),
                    self._shard_operand(b, batch_rank, start, stop),
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
            return self._single(a, b, streams[0], trace)

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
