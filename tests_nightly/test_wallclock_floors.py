"""Wall-clock floors: batched engine, batched training, serving, telemetry.

These are the host-sensitive timings.  ``testpaths`` names only
``tests``, so tier-1 never runs them; the nightly CI job does::

    PYTHONPATH=src python -m pytest -q tests_nightly

Every check here is a speedup floor, a throughput floor or an overhead
ceiling.  The deterministic half of each measured path (bit-equality,
span trees, ledgers, residency) is a tier-1 test.  Timings are
best-of-N through :func:`repro.core.hotpath.best_of`; the serving curve
is clocked by :func:`repro.serving.run_open_loop`, first submit to last
completion, best of two runs.  Run with ``-s`` to see the measured
values.
"""

import io
from functools import partial

import numpy as np

from repro.core import DPTC, NoiseModel, ShardedDPTC
from repro.core.hotpath import best_of, profile_stages
from repro.neural import (
    MultiHeadAttention,
    PhotonicExecutor,
    Tensor,
    TinyViT,
    no_grad,
    striped_image_dataset,
    train_classifier,
)
from repro.obs import StreamingSpanWriter, Tracer, span_lines
from repro.obs.demo import TracedMatmulServable, trace_workload_config
from repro.serving import (
    EngineConfig,
    ServingEngine,
    SimulatedClock,
    VisionServable,
    poisson_gaps,
    run_open_loop,
)
from tests.core.reference_dptc import matmul_reference
from tests.neural.reference_train import train_classifier_reference

#: Batched multi-head attention over the seed's per-matrix loop.
MIN_BATCHED_SPEEDUP = 5.0
#: Batched minibatch training over the seed's per-sample loop.
MIN_TRAIN_SPEEDUP = 2.0
#: Open-loop throughput at max_batch_size=8 over max_batch_size=1.
MIN_BATCHING_GAIN = 1.3
#: End-to-end single-engine noisy matmul throughput.
MIN_THROUGHPUT_GFLOPS = 0.2
#: Traced over untraced sharded matmul.
MAX_TRACED_OVERHEAD = 1.10
#: Streamed over batch-collected-and-dumped traced serving run.
MAX_STREAM_OVERHEAD = 1.10

#: The attention-shaped stack the hot path is tuned for.
HEAD_SHAPE = (64, 32, 64, 32)  # batch, m, d, n


def head_operands(seed):
    batch, m, d, n = HEAD_SHAPE
    rng = np.random.default_rng(seed)
    return rng.normal(size=(batch, m, d)), rng.normal(size=(batch, d, n))


def attention_speedup(dim=192, heads=8, tokens=8, sequences=8):
    """An 8-head x 8-sequence attention forward (short sequences, where
    per-matrix Python overhead dominates the loop): batched engine vs
    the seed path, one sequence at a time through the per-matrix loop."""
    executor = PhotonicExecutor(
        noise=NoiseModel.paper_default(),
        quant=None,
        rng=np.random.Generator(np.random.SFC64(0)),
    )
    mha = MultiHeadAttention(dim, heads, executor=executor, rng=np.random.default_rng(1))
    x = np.random.default_rng(0).normal(size=(sequences, tokens, dim))
    dptc = executor._dptc
    with no_grad():
        batched_s = best_of(lambda: mha(Tensor(x)), 9, inner=3)
        dptc.matmul = partial(matmul_reference, dptc)
        try:
            loop_s = best_of(
                lambda: [mha(Tensor(x[i])) for i in range(sequences)], 5, inner=2
            )
        finally:
            del dptc.matmul
    return loop_s / batched_s


def test_batched_attention_beats_the_per_matrix_loop():
    # Best of three attempts: one descheduled round must not fail it.
    speedup = 0.0
    for _ in range(3):
        speedup = max(speedup, attention_speedup())
        if speedup >= MIN_BATCHED_SPEEDUP:
            break
    print(f"batched vs per-matrix attention: {speedup:.2f}x")
    assert speedup >= MIN_BATCHED_SPEEDUP


def test_batched_training_beats_the_per_sample_loop():
    """One noise-aware TinyViT epoch on 32 samples: batched on two
    cores vs the seed's per-sample loop on one."""
    data = striped_image_dataset(n_samples=32, n_classes=4, seed=2)

    def epoch(train, num_cores):
        executor = PhotonicExecutor.paper_default(seed=0, num_cores=num_cores)
        model = TinyViT(n_classes=4, depth=1, executor=executor, seed=0)
        train(model, data, epochs=1, lr=5e-3, seed=0)

    batched_s = best_of(lambda: epoch(train_classifier, 2), 3)
    reference_s = best_of(lambda: epoch(train_classifier_reference, 1), 2)
    speedup = reference_s / batched_s
    print(f"batched vs per-sample training: {speedup:.2f}x")
    assert speedup >= MIN_TRAIN_SPEEDUP


def vision_servable():
    model = TinyViT(
        image_size=16,
        patch_size=4,
        dim=32,
        depth=1,
        heads=2,
        n_classes=4,
        mlp_ratio=2.0,
        executor=PhotonicExecutor(),
        seed=0,
    )
    return VisionServable(model)


def test_dynamic_batching_raises_throughput():
    """48 Poisson arrivals (mean gap 0.25 ms) swept over max_batch_size."""
    rng = np.random.default_rng(1)
    images = [rng.normal(size=(16, 16)) for _ in range(48)]
    curve = {}
    for max_batch_size in (1, 2, 4, 8):
        best = 0.0
        for _ in range(2):
            engine = ServingEngine(
                vision_servable(),
                config=EngineConfig(
                    max_batch_size=max_batch_size,
                    max_wait_us=500.0,
                    queue_depth=2 * len(images),
                ),
            )
            gaps = poisson_gaps(len(images), 0.25e-3, np.random.default_rng(2))
            with engine:
                best = max(best, run_open_loop(engine, images, gaps)["throughput_rps"])
        curve[max_batch_size] = best
    gain = curve[8] / curve[1]
    print(f"open-loop req/s by max_batch_size: {curve}; gain {gain:.2f}x")
    assert curve[8] > curve[1]
    assert gain >= MIN_BATCHING_GAIN


def test_engine_throughput_floor():
    a, b = head_operands(0)
    times = profile_stages(DPTC(noise=NoiseModel.paper_default()), a, b, seed=0, repeats=5)
    gflops = 2.0 * np.prod(HEAD_SHAPE) / times["total"] / 1e9
    print(f"noisy matmul throughput: {gflops:.3f} GFLOP/s")
    assert gflops >= MIN_THROUGHPUT_GFLOPS


def test_tracing_overhead_ceiling():
    """A two-core batch-sharded noisy matmul, traced vs untraced."""
    engine = ShardedDPTC(num_cores=2, noise=NoiseModel.paper_default())
    a, b = head_operands(7)

    def run():
        return engine.matmul(a, b, rng=np.random.default_rng(3))

    def run_traced():
        with Tracer().activate():
            return run()

    untraced_s = best_of(run, 5)
    ratio = best_of(run_traced, 5) / untraced_s
    print(f"traced / untraced sharded matmul: {ratio:.3f}x")
    assert ratio <= MAX_TRACED_OVERHEAD


def traced_serving_run(collector=None):
    """48 requests of [16, 64] x [64, 32] noisy matmuls through a
    traced engine: per-request math heavy enough that per-span costs
    amortize, the regime streaming targets."""
    clock = SimulatedClock()
    tracer = Tracer(clock=clock, collector=collector)
    servable = TracedMatmulServable(seed=0, m=16, d=64, n=32)
    rng = np.random.default_rng(2)
    engine = ServingEngine(
        servable, config=trace_workload_config(4), clock=clock, tracer=tracer
    )
    with engine:
        for index in range(48):
            engine.submit(
                rng.uniform(-1.0, 1.0, (16, 64)), session_id=f"session-{index % 3}"
            )
            if index % 4 == 3:
                engine.step()
        engine.run_until_idle()
    return tracer.collector


def test_streaming_overhead_ceiling():
    """Streaming each span as it ends vs collecting the run and dumping
    it once at the end: same bytes, different schedule."""

    def batch_run():
        lines = span_lines(traced_serving_run())
        return "\n".join(lines) + ("\n" if lines else "")

    def stream_run():
        sink = io.StringIO()
        with StreamingSpanWriter(sink) as writer:
            traced_serving_run(writer)
        return sink.getvalue()

    batch_s = best_of(batch_run, 5)
    ratio = best_of(stream_run, 5) / batch_s
    print(f"streamed / batch-dumped traced run: {ratio:.3f}x")
    assert ratio <= MAX_STREAM_OVERHEAD
