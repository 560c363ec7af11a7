"""Engine hot-path benchmark: stage breakdown + pipelined throughput.

Sections, each with a hard equivalence gate and a measurement:

* **Bit-equality gates** (always enforced) — the invariant that makes
  pipelining safe to ship: chunked execution consumes the RNG in
  per-chunk fused draws in batch order, so for equal seeds

  - ``pipelined_matmul`` (any depth) == the sequential per-chunk
    oracle (``concatenate(core.matmul(chunk) for chunk in bounds)``),
  - pipelined == unpipelined (depth 0) == ``parallel=False``
    sequential on :class:`ShardedDPTC`, across both shard axes,
  - a single chunk (``chunk_size >= batch``) reproduces the unchunked
    whole-batch call bit for bit.

* **Per-stage breakdown** — best-of wall-clock of the four hot-path
  stages (sample / encode / compute / detect) of the headline batched
  matmul, via :func:`repro.core.hotpath.profile_stages`; recorded in
  the artifact so stage regressions show up in CI trends.

* **Throughput + speedup floors** (nightly) — effective single-engine
  matmul throughput (GFLOP/s over the end-to-end noisy call) must
  clear :data:`MIN_THROUGHPUT_GFLOPS`, and pipelined
  execution must beat the identical sequential chunk schedule by
  :data:`MIN_PIPELINE_SPEEDUP` on the headline case.  Overlap needs
  parallel hardware, so ``--report-only`` (the fast lane; also 1-CPU
  runners) records both numbers without asserting the floors; the
  bit-equality gates always apply.

Emits a ``BENCH_hotpath.json`` artifact (``--out PATH`` to relocate)
with every number printed, including ``host_cpus`` so flat speedups on
serial runners are explainable from the artifact alone.
"""

import json
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core import DPTC, NoiseModel, ShardedDPTC
from repro.core.hotpath import best_of, chunk_bounds, pipelined_matmul, profile_stages

#: Headline batched case: an attention-shaped stack.
HEAD_BATCH = 64
HEAD_M = 32
HEAD_D = 64
HEAD_N = 32

#: Chunk/depth used for the headline pipelined run.
HEAD_CHUNK = 8
HEAD_DEPTH = 1

#: Nightly floor on pipelined-over-sequential speedup (headline case).
MIN_PIPELINE_SPEEDUP = 1.15

#: Nightly floor on effective single-engine matmul throughput.
MIN_THROUGHPUT_GFLOPS = 0.2


def _headline_operands() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(0)
    a = rng.normal(size=(HEAD_BATCH, HEAD_M, HEAD_D))
    b = rng.normal(size=(HEAD_BATCH, HEAD_D, HEAD_N))
    return a, b


def bit_equality() -> dict:
    """The reordering-only invariant, checked everywhere it must hold."""
    rng = np.random.default_rng(3)
    a = rng.normal(size=(13, 6, 24))
    b = rng.normal(size=(13, 24, 6))
    a[4] = 0.0  # an all-zero stack exercises the draw-less short-circuit
    core = DPTC(noise=NoiseModel.paper_default())

    # pipelined_matmul (any depth) vs the sequential per-chunk oracle.
    def oracle(chunk_size: int) -> np.ndarray:
        stream = np.random.default_rng(42)
        return np.concatenate(
            [
                core.matmul(a[start:stop], b[start:stop], rng=stream)
                for start, stop in chunk_bounds(a.shape[0], chunk_size)
            ],
            axis=0,
        )

    oracle_exact = True
    with ThreadPoolExecutor(max_workers=1) as prefetch:
        for chunk_size in (1, 3, 5, 13):
            want = oracle(chunk_size)
            for depth, pool in ((0, None), (1, prefetch), (3, prefetch)):
                got = pipelined_matmul(
                    core, a, b, np.random.default_rng(42),
                    chunk_size=chunk_size, pipeline_depth=depth, prefetch=pool,
                )
                if not np.array_equal(want, got):
                    oracle_exact = False

    # Single chunk == the unchunked whole-batch call.
    whole = core.matmul(a, b, rng=np.random.default_rng(11))
    single_chunk = pipelined_matmul(
        core, a, b, np.random.default_rng(11), chunk_size=a.shape[0],
        pipeline_depth=1,
    )
    single_chunk_exact = bool(np.array_equal(whole, single_chunk))

    # ShardedDPTC: pipelined == unpipelined == sequential, both shard
    # axes, chunked and unchunked.
    sharded_bit_equal = {}
    for shard_axis in ("batch", "contraction"):
        for chunk_size in (None, 2):
            sequential = ShardedDPTC(
                num_cores=3, noise=NoiseModel.paper_default(),
                shard_axis=shard_axis, parallel=False, chunk_size=chunk_size,
            )
            want = sequential.matmul(a, b, rng=np.random.default_rng(5))
            sequential.close()
            equal = True
            for depth in (0, 1, 2):
                engine = ShardedDPTC(
                    num_cores=3, noise=NoiseModel.paper_default(),
                    shard_axis=shard_axis,
                    chunk_size=chunk_size, pipeline_depth=depth,
                )
                got = engine.matmul(a, b, rng=np.random.default_rng(5))
                engine.close()
                if not np.array_equal(want, got):
                    equal = False
            key = f"{shard_axis}/chunk={chunk_size}"
            sharded_bit_equal[key] = equal
    return {
        "oracle_exact": oracle_exact,
        "single_chunk_exact": single_chunk_exact,
        "sharded_bit_equal": sharded_bit_equal,
    }


def stage_breakdown() -> dict:
    """Per-stage best-of timings of the headline noisy matmul."""
    a, b = _headline_operands()
    core = DPTC(noise=NoiseModel.paper_default())
    times = profile_stages(core, a, b, seed=0, repeats=3)
    return {
        "shape": [HEAD_BATCH, HEAD_M, HEAD_D, HEAD_N],
        "seconds": times,
        "share": {
            name: times[name] / times["total"]
            for name in ("sample", "encode", "compute", "detect")
        },
    }


def pipeline_throughput() -> dict:
    """Headline sequential-vs-pipelined wall-clock + engine throughput."""
    a, b = _headline_operands()
    core = DPTC(noise=NoiseModel.paper_default())
    flop = 2.0 * HEAD_BATCH * HEAD_M * HEAD_D * HEAD_N

    total_s = best_of(lambda: core.matmul(a, b, rng=np.random.default_rng(1)), 5)
    sequential_s = best_of(
        lambda: pipelined_matmul(
            core, a, b, np.random.default_rng(1),
            chunk_size=HEAD_CHUNK, pipeline_depth=0,
        ),
        5,
    )
    with ThreadPoolExecutor(max_workers=1) as prefetch:
        pipelined_s = best_of(
            lambda: pipelined_matmul(
                core, a, b, np.random.default_rng(1),
                chunk_size=HEAD_CHUNK, pipeline_depth=HEAD_DEPTH,
                prefetch=prefetch,
            ),
            5,
        )
    return {
        "shape": [HEAD_BATCH, HEAD_M, HEAD_D, HEAD_N],
        "chunk_size": HEAD_CHUNK,
        "pipeline_depth": HEAD_DEPTH,
        "whole_batch_s": total_s,
        "sequential_s": sequential_s,
        "pipelined_s": pipelined_s,
        "pipelined_speedup": sequential_s / pipelined_s,
        "throughput_gflops": flop / total_s / 1e9,
    }


def run(enforce_floors: bool = True, out_path: str = "BENCH_hotpath.json") -> dict:
    equality = bit_equality()
    print("Bit-equality gates (same draws, same order, reordered in time)")
    print(f"  pipelined == sequential per-chunk oracle : {equality['oracle_exact']}")
    print(f"  single chunk == unchunked whole batch    : {equality['single_chunk_exact']}")
    for key, equal in equality["sharded_bit_equal"].items():
        print(f"  sharded [{key}] pipelined == unpipelined == sequential : {equal}")
    assert equality["oracle_exact"], "pipelined result drifted from the chunk oracle"
    assert equality["single_chunk_exact"], "single-chunk result drifted from unchunked"
    assert all(equality["sharded_bit_equal"].values()), (
        "sharded pipelined execution drifted across depths/axes"
    )

    stages = stage_breakdown()
    print("\nPer-stage breakdown "
          f"([{HEAD_BATCH}x{HEAD_M}x{HEAD_D}] x [{HEAD_BATCH}x{HEAD_D}x{HEAD_N}])")
    for name in ("sample", "encode", "compute", "detect"):
        print(
            f"  {name:7s}: {stages['seconds'][name] * 1e3:7.3f} ms "
            f"({100.0 * stages['share'][name]:5.1f} %)"
        )
    print(f"  total  : {stages['seconds']['total'] * 1e3:7.3f} ms")

    cpus = os.cpu_count() or 1
    throughput = pipeline_throughput()
    print(f"\nPipelined throughput ({cpus} host CPU(s), "
          f"chunk={HEAD_CHUNK}, depth={HEAD_DEPTH})")
    print(
        f"  whole batch {throughput['whole_batch_s'] * 1e3:7.2f} ms | "
        f"sequential {throughput['sequential_s'] * 1e3:7.2f} ms | "
        f"pipelined {throughput['pipelined_s'] * 1e3:7.2f} ms "
        f"({throughput['pipelined_speedup']:.2f}x, floor {MIN_PIPELINE_SPEEDUP:.2f}x)"
    )
    print(
        f"  engine throughput {throughput['throughput_gflops']:.3f} GFLOP/s "
        f"(floor {MIN_THROUGHPUT_GFLOPS:.2f})"
    )
    if enforce_floors:
        assert throughput["throughput_gflops"] >= MIN_THROUGHPUT_GFLOPS, (
            f"engine throughput {throughput['throughput_gflops']:.3f} GFLOP/s "
            f"below the {MIN_THROUGHPUT_GFLOPS:.2f} floor"
        )
        assert throughput["pipelined_speedup"] >= MIN_PIPELINE_SPEEDUP, (
            f"pipelined speedup {throughput['pipelined_speedup']:.2f}x below "
            f"the {MIN_PIPELINE_SPEEDUP:.2f}x floor"
        )

    report = {
        "host_cpus": cpus,
        "bit_equality": equality,
        "stages": stages,
        "throughput": throughput,
    }
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"\nwrote {out_path}")
    return report


if __name__ == "__main__":
    from _gate import main

    main(run, __doc__, "the throughput and pipelined-speedup floors")
