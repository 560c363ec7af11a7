"""The benchmark's three workloads.

Each workload makes all of its inputs from the seed when it is built,
before anything is timed.  ``build()`` constructs the system and runs
it to a first result (the set-up the ``setup_s`` metric times), and
``run_round(system)`` replays the same fixed inputs once and returns
what the round produced.  A run repeats rounds until its time is up.
``check(outputs)`` compares the first round's outputs with an
independent oracle.

Every system is driven from the calling thread in manual mode (a
``SimulatedClock``), so host time is measured with ``perf_counter``
around the calls and nothing is charged by a virtual cost model.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.cluster import ClusterConfig, ServingCluster
from repro.neural.autograd import no_grad
from repro.neural.data import striped_image_dataset
from repro.neural.photonic import PhotonicExecutor
from repro.neural.train import Adam, train_classifier
from repro.serving import EngineConfig, ServingEngine, SimulatedClock, VisionServable
from repro.workloads.llm import DecoderConfig, decode_servable, kv_cache_bytes
from repro.workloads.transformer import KIND_VISION, TransformerConfig, servable_model

from perfbench.spans import patched

#: The TinyViT served by ``vit-noisy`` and trained by ``train-noisy``.
VIT = TransformerConfig(
    "perfbench-vit",
    depth=2,
    dim=32,
    heads=4,
    seq_len=17,
    mlp_ratio=2.0,
    kind=KIND_VISION,
    n_classes=4,
    patch_size=4,
    image_size=16,
    in_channels=1,
)
#: Transformer tokens one 16x16 image carries through the encoder
#: (16 patches + CLS).
VIT_TOKENS = VIT.seq_len

#: The one decoder layer ``decode-cluster`` serves.
DECODER = DecoderConfig("perfbench-decode", depth=1, dim=64, heads=4, mlp_ratio=4.0)

#: Weights are fixed; the seed varies inputs and noise streams.
WEIGHT_SEED = 0


@dataclass
class RoundResult:
    """What one round did: counts, per-step times and outputs."""

    items: int
    tokens: int
    attempted: int
    failed: int
    steps_s: list[float]
    outputs: list[np.ndarray]
    ttft_s: list[float] = field(default_factory=list)
    tpot_s: list[float] = field(default_factory=list)
    counters: dict = field(default_factory=dict)


class VitNoisy:
    """Offline noisy evaluation through one request-scheduler engine."""

    name = "vit-noisy"
    why = (
        "noisy int4 ViT inference, one core: DPTC noise sampling and "
        "encoding do most of the work, the scheduler almost none"
    )
    item = "image"
    batch = 8

    def __init__(self, seed: int, images: int = 64) -> None:
        self.seed = seed
        data = striped_image_dataset(n_samples=images + self.batch, seed=seed)
        self.warmup = data.inputs[: self.batch]
        self.images = data.inputs[self.batch :]

    def _model(self):
        executor = PhotonicExecutor.paper_default(seed=self.seed)
        return servable_model(VIT, executor=executor, seed=WEIGHT_SEED)

    def build(self) -> ServingEngine:
        engine = ServingEngine(
            VisionServable(self._model()),
            config=EngineConfig(
                max_batch_size=self.batch,
                max_wait_us=0.0,
                queue_depth=len(self.images),
            ),
            clock=SimulatedClock(),
        )
        handles = [engine.submit(image) for image in self.warmup]
        engine.step()
        for handle in handles:
            handle.result(timeout=0)
        return engine

    def close(self, engine: ServingEngine) -> None:
        engine.close()

    def run_round(self, engine: ServingEngine) -> RoundResult:
        handles = [engine.submit(image) for image in self.images]
        steps = []
        while True:
            start = time.perf_counter()
            executed = engine.step()
            if not executed:
                break
            steps.append(time.perf_counter() - start)
        outputs, failed = _collect(handles)
        return RoundResult(
            items=len(handles),
            tokens=len(handles) * VIT_TOKENS,
            attempted=len(handles),
            failed=failed,
            steps_s=steps,
            outputs=outputs,
        )

    def check(self, outputs: list[np.ndarray]) -> bool:
        """The same batches through the model on a fresh executor."""
        model = self._model()
        expected = []
        with no_grad():
            model(self.warmup)
            for start in range(0, len(self.images), self.batch):
                logits = model(self.images[start : start + self.batch]).data
                expected.extend(logits)
        return _bit_equal(outputs, expected)


class DecodeCluster:
    """Closed-loop decode sessions on a two-replica continuous cluster."""

    name = "decode-cluster"
    why = (
        "closed-loop int4 decode on a 2-replica paged-KV cluster: "
        "serving, cluster and re-quantization of static weights dominate"
    )
    item = "token"
    replicas = 2
    lanes = 4  # per replica
    live = 12  # sessions in flight, more than the fleet's 8 lanes
    block_size = 4
    pool_blocks = 14  # per replica; the longest session needs 9
    prompt_len = 16
    min_steps = 8
    max_steps = 32
    # Two system prompts, alternating by session: cache_aware routing
    # places every fork of one prompt with its holders, so a single
    # prompt would leave the second replica idle.
    prefixes = ("system-a", "system-b")

    def __init__(self, seed: int, sessions: int = 16) -> None:
        self.seed = seed
        rng = np.random.default_rng(seed)
        # A fixed multiset of lengths in seeded order: every seed decodes
        # the same number of tokens, so throughput compares across seeds.
        lengths = np.linspace(self.min_steps, self.max_steps, sessions).round()
        lengths = rng.permutation(lengths).astype(int)
        self.sessions = [rng.normal(0.0, 1.0, (length, DECODER.dim)) for length in lengths]
        self.warmup = rng.normal(0.0, 1.0, (2, DECODER.dim))
        self._rounds = 0

    def _engine_config(self) -> EngineConfig:
        return EngineConfig(
            max_batch_size=self.lanes,
            max_wait_us=0.0,
            queue_depth=4 * self.live,
            scheduler="continuous",
            block_size=self.block_size,
            kv_capacity_bytes=self.pool_blocks
            * kv_cache_bytes(DECODER, self.block_size),
            seed=WEIGHT_SEED,
        )

    def build(self) -> ServingCluster:
        engine = self._engine_config()
        cluster = ServingCluster(
            lambda replica_id: decode_servable(
                DECODER, executor=PhotonicExecutor.digital_reference(), engine=engine
            ),
            config=ClusterConfig(
                replicas=self.replicas,
                policy="cache_aware",
                engine=engine,
                shared_cache=True,
                share_prefixes=True,
            ),
            clock=SimulatedClock(),
        )
        for prefix in self.prefixes:
            cluster.register_prefix(prefix, self.prompt_len)
        for step, token in enumerate(self.warmup):
            handle = cluster.submit(
                token,
                session_id="warmup",
                prefix_id=self.prefixes[0] if step == 0 else None,
            )
            cluster.run_until_idle()
            handle.result(timeout=0)
        cluster.release_session("warmup")
        return cluster

    def close(self, cluster: ServingCluster) -> None:
        cluster.close()

    def run_round(self, cluster: ServingCluster) -> RoundResult:
        self._rounds += 1
        tag = f"r{self._rounds}"
        before = _cluster_counters(cluster)
        waiting = deque(range(len(self.sessions)))
        # session index -> [next step, handle, started, last result]
        live: dict[int, list] = {}
        resolved: dict[int, float] = {}
        outputs: dict[int, list[np.ndarray]] = {i: [] for i in waiting}
        ttft, tpot, steps = [], [], []
        attempted = failed = 0

        def submit(index: int, step: int) -> None:
            nonlocal attempted
            handle = cluster.submit(
                self.sessions[index][step],
                session_id=f"{tag}-{index}",
                prefix_id=self.prefixes[index % 2] if step == 0 else None,
            )
            handle.add_done_callback(
                lambda _h, i=index: resolved.__setitem__(i, time.perf_counter())
            )
            attempted += 1
            live[index][1] = handle

        def admit() -> None:
            while waiting and len(live) < self.live:
                index = waiting.popleft()
                live[index] = [0, None, time.perf_counter(), None]
                submit(index, 0)

        admit()
        while live:
            start = time.perf_counter()
            cluster.step()
            steps.append(time.perf_counter() - start)
            for index in list(live):
                state = live[index]
                if index not in resolved:
                    continue
                at = resolved.pop(index)
                step, handle, started, last = state
                if handle.exception(timeout=0) is not None:
                    failed += 1
                else:
                    outputs[index].append(handle.result(timeout=0))
                if last is None:
                    ttft.append(at - started)
                else:
                    tpot.append(at - last)
                state[0], state[3] = step + 1, at
                if state[0] < len(self.sessions[index]):
                    submit(index, state[0])
                else:
                    cluster.release_session(f"{tag}-{index}")
                    del live[index]
            admit()
        after = _cluster_counters(cluster)
        tokens = sum(len(outs) for outs in outputs.values())
        return RoundResult(
            items=tokens,
            tokens=tokens,
            attempted=attempted,
            failed=failed,
            steps_s=steps,
            outputs=[np.stack(outputs[i]) for i in sorted(outputs)],
            ttft_s=ttft,
            tpot_s=tpot,
            counters={key: after[key] - before[key] for key in after},
        )

    def check(self, outputs: list[np.ndarray]) -> bool:
        """Each session decoded alone, batch 1, on a single engine."""
        servable = decode_servable(
            DECODER,
            executor=PhotonicExecutor.digital_reference(),
            engine=EngineConfig(block_size=self.block_size, seed=WEIGHT_SEED),
        )
        engine = ServingEngine(
            servable,
            config=EngineConfig(max_batch_size=1, max_wait_us=0.0, queue_depth=1),
            clock=SimulatedClock(),
        )
        expected = []
        with engine:
            for index, tokens in enumerate(self.sessions):
                session = f"oracle-{index}"
                servable.cache.open_session(session, prompt_len=self.prompt_len)
                rows = []
                for token in tokens:
                    handle = engine.submit(token, session_id=session)
                    engine.step()
                    rows.append(handle.result(timeout=0))
                engine.release_session(session)
                expected.append(np.stack(rows))
        return _bit_equal(outputs, expected)


class TrainNoisy:
    """Noise-aware training of the TinyViT on two sharded thread cores."""

    name = "train-noisy"
    why = (
        "noise-aware training on 2 batch-sharded thread cores: weights "
        "change every step; the only workload on sharding and autograd"
    )
    item = "sample"
    batch = 16

    def __init__(self, seed: int, samples: int = 64, epochs: int = 1) -> None:
        self.seed = seed
        self.dataset = striped_image_dataset(n_samples=samples, seed=seed)
        self.epochs = epochs

    def build(self):
        executor = PhotonicExecutor.paper_default(
            seed=self.seed, num_cores=2, shard_axis="batch", backend="thread"
        )
        model = servable_model(VIT, executor=executor, seed=WEIGHT_SEED)
        with no_grad():
            model(self.dataset.inputs[: self.batch])
        return model

    def close(self, model) -> None:
        model.executor.close()

    def run_round(self, model) -> RoundResult:
        stamps = [time.perf_counter()]
        original = Adam.step

        def stamped(optimizer) -> None:
            original(optimizer)
            stamps.append(time.perf_counter())

        with patched([(Adam, "step", stamped)]):
            result = train_classifier(
                model,
                self.dataset,
                epochs=self.epochs,
                batch_size=self.batch,
                seed=self.seed,
            )
        samples = self.epochs * len(self.dataset)
        return RoundResult(
            items=samples,
            tokens=samples * VIT_TOKENS,
            attempted=len(stamps) - 1,
            failed=0,
            steps_s=list(np.diff(stamps)),
            outputs=[np.array(result.losses + [result.train_accuracy])],
        )

    def check(self, outputs: list[np.ndarray]) -> bool:
        """A second run on a fresh executor with the same seed."""
        model = self.build()
        try:
            return _bit_equal(outputs, self.run_round(model).outputs)
        finally:
            self.close(model)


WORKLOADS = {cls.name: cls for cls in (VitNoisy, DecodeCluster, TrainNoisy)}


def _collect(handles) -> tuple[list[np.ndarray], int]:
    outputs, failed = [], 0
    for handle in handles:
        if handle.exception(timeout=0) is not None:
            failed += 1
        else:
            outputs.append(handle.result(timeout=0))
    return outputs, failed


def _bit_equal(got: list[np.ndarray], expected: list[np.ndarray]) -> bool:
    return len(got) == len(expected) and all(
        a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, expected)
    )


def _cluster_counters(cluster: ServingCluster) -> dict[str, int]:
    """Prefix adoptions and migrations so far, from the cluster's metrics.

    ``cluster.snapshot()`` would summarize every request record kept so
    far, a cost that grows with the run.
    """
    metrics = cluster.metrics
    return {
        "prefix_adoptions": metrics.prefix_adoptions_shared
        + metrics.prefix_adoptions_private,
        "migrations": metrics.migrations,
    }
