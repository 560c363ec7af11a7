"""Tests for the model-side servable adapters."""

import gc

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ServingCluster
from repro.neural import quantization
from repro.neural.photonic import PhotonicExecutor
from repro.neural.text import TinyBERT
from repro.neural.vision import TinyViT
from repro.serving import (
    DecodeServable,
    EngineConfig,
    InferenceRequest,
    RequestHandle,
    ServingEngine,
    MemoCache,
    SimulatedClock,
    TextServable,
    VisionServable,
    decode_payload,
    mixed_decode_trace,
    run_decode_trace,
)
from repro.serving import servable as servable_module
from repro.serving.loadgen import bit_equal, sequential_decode
from repro.workloads import DecoderConfig, decode_servable, servable_model
from repro.workloads.transformer import KIND_TEXT, TransformerConfig


def request_of(payload, session_id=None, i=0) -> InferenceRequest:
    return InferenceRequest(
        payload=payload,
        handle=RequestHandle(i, 0.0),
        arrival=0.0,
        session_id=session_id,
        request_id=i,
    )


def tiny_vit(**kwargs) -> TinyViT:
    kwargs.setdefault("image_size", 16)
    kwargs.setdefault("patch_size", 4)
    kwargs.setdefault("dim", 16)
    kwargs.setdefault("depth", 1)
    kwargs.setdefault("heads", 2)
    kwargs.setdefault("mlp_ratio", 2.0)
    return TinyViT(**kwargs)


class TestVisionServable:
    def test_prepare_validates_shape(self):
        servable = VisionServable(tiny_vit())
        with pytest.raises(ValueError):
            servable.prepare(np.zeros((8, 8)))
        with pytest.raises(ValueError):
            servable.prepare(np.zeros((2, 16, 16)))

    def test_execute_matches_direct_batched_forward(self):
        rng = np.random.default_rng(0)
        images = [rng.normal(size=(16, 16)) for _ in range(3)]
        servable = VisionServable(tiny_vit(seed=1))
        outputs = servable.execute(
            [request_of(servable.prepare(img), i=i) for i, img in enumerate(images)]
        )
        direct = tiny_vit(seed=1)(np.stack(images)).data
        assert all(np.array_equal(out, direct[i]) for i, out in enumerate(outputs))


class TestTextServable:
    def make(self, seed=0):
        return TextServable(
            TinyBERT(seq_len=9, dim=16, depth=1, heads=2, seed=seed), pad_id=0
        )

    def test_prepare_pads_to_the_model_length(self):
        servable = self.make()
        padded = servable.prepare([3, 4, 5])
        assert padded.shape == (9,)
        assert list(padded[:3]) == [3, 4, 5]
        assert all(padded[3:] == 0)

    def test_padding_is_batch_independent(self):
        """A prompt's padded form never depends on its batch mates."""
        servable = self.make()
        assert np.array_equal(servable.prepare([7]), servable.prepare([7]))

    def test_prepare_validates(self):
        servable = self.make()
        with pytest.raises(ValueError):
            servable.prepare([])
        with pytest.raises(ValueError):
            servable.prepare(list(range(10)))  # longer than seq_len
        with pytest.raises(ValueError):
            servable.prepare([[1, 2], [3, 4]])

    def test_pad_id_must_be_in_vocabulary(self):
        model = TinyBERT(seq_len=9, dim=16, depth=1, heads=2)
        with pytest.raises(ValueError):
            TextServable(model, pad_id=model.vocab_size)

    def test_ragged_batch_matches_padded_sequential(self):
        prompts = [[5], [1, 2, 3], list(range(1, 9))]
        servable = self.make(seed=2)
        requests = [
            request_of(servable.prepare(p), i=i) for i, p in enumerate(prompts)
        ]
        outputs = servable.execute(requests)
        reference_model = TinyBERT(seq_len=9, dim=16, depth=1, heads=2, seed=2)
        for prompt, out in zip(prompts, outputs):
            padded = servable.prepare(prompt)
            assert np.array_equal(out, reference_model(padded).data)


class TestDecodeServable:
    def config(self) -> DecoderConfig:
        return DecoderConfig("toy", depth=2, dim=16, heads=2, mlp_ratio=2.0)

    def test_prepare_validates_dim(self):
        servable = DecodeServable(self.config())
        with pytest.raises(ValueError):
            servable.prepare(np.zeros(8))

    def test_requires_session_id(self):
        servable = DecodeServable(self.config())
        with pytest.raises(ValueError):
            servable.execute([request_of(np.zeros(16), session_id=None)])

    def test_step_appends_kv_and_returns_token_vector(self):
        servable = DecodeServable(self.config())
        servable.cache.open_session("s", prompt_len=4)
        out = servable.execute([request_of(np.ones(16), session_id="s")])
        assert out[0].shape == (16,)
        assert servable.cache.context_len("s") == 5

    def test_sessions_open_lazily(self):
        servable = DecodeServable(self.config())
        servable.execute([request_of(np.ones(16), session_id="fresh")])
        assert servable.cache.context_len("fresh") == 1

    def test_batched_equals_sequential_decode(self):
        """Coalesced GEMV projections == per-request decode, bit-exact."""
        rng = np.random.default_rng(3)
        steps = [rng.normal(size=16) for _ in range(4)]
        sessions = ["a", "b", "a", "b"]

        sequential = DecodeServable(self.config(), seed=0)
        seq_out = [
            sequential.execute([request_of(x, session_id=sid, i=i)])[0]
            for i, (x, sid) in enumerate(zip(steps, sessions))
        ]
        # Batch the two independent sessions' first steps, then seconds.
        batched = DecodeServable(self.config(), seed=0)
        first = batched.execute(
            [
                request_of(steps[0], session_id="a", i=0),
                request_of(steps[1], session_id="b", i=1),
            ]
        )
        second = batched.execute(
            [
                request_of(steps[2], session_id="a", i=2),
                request_of(steps[3], session_id="b", i=3),
            ]
        )
        for expected, got in zip(seq_out, first + second):
            assert np.array_equal(expected, got)

    def test_engine_config_sizes_the_cache(self):
        """``EngineConfig`` is the one source of a served decoder's KV
        settings and seed; an executor passed in is used as is."""
        config = self.config()
        engine = EngineConfig(
            block_size=2, kv_capacity_bytes=1 << 12, kv_bits=4, seed=3
        )
        executor = PhotonicExecutor.ideal()
        servable = decode_servable(config, executor=executor, engine=engine)
        assert servable.executor is executor
        cache = servable.cache
        assert cache.config == config
        assert cache.block_size == cache.pool.block_size == 2
        assert cache.kv_bits == cache.pool.kv_bits == 4
        assert cache.pool.capacity_bytes == 1 << 12
        reference = DecodeServable(config, seed=3)
        for ours, theirs in zip(servable._weights.arrays, reference._weights.arrays):
            np.testing.assert_array_equal(ours, theirs)


class TestWorkloadEntryPoints:
    def test_servable_model_vision(self):
        config = TransformerConfig(
            "t-vit", depth=1, dim=16, heads=2, seq_len=17,
            mlp_ratio=2.0, n_classes=3, patch_size=4, image_size=16,
            in_channels=1,
        )
        model = servable_model(config, seed=0)
        assert isinstance(model, TinyViT)
        logits = model(np.zeros((16, 16)))
        assert logits.shape == (3,)

    def test_servable_model_rejects_multichannel_vision(self):
        config = TransformerConfig(
            "t-rgb", depth=1, dim=16, heads=2, seq_len=17,
            patch_size=4, image_size=16, in_channels=3,
        )
        with pytest.raises(ValueError):
            servable_model(config)

    def test_servable_model_text(self):
        config = TransformerConfig(
            "t-bert", depth=1, dim=16, heads=2, seq_len=9,
            mlp_ratio=2.0, kind=KIND_TEXT, n_classes=2,
        )
        model = servable_model(config, vocab_size=16, seed=0)
        assert isinstance(model, TinyBERT)
        assert model.seq_len == 9 and model.vocab_size == 16

    def test_decode_servable_entry_point(self):
        config = DecoderConfig("toy", depth=2, dim=16, heads=2, mlp_ratio=2.0)
        servable = decode_servable(config)
        assert isinstance(servable, DecodeServable)
        assert servable.cache.config == config


class TestDecodeBatchAtomicity:
    """A bad batch-mate must never poison another request's session."""

    def config(self) -> DecoderConfig:
        return DecoderConfig("toy", depth=2, dim=16, heads=2, mlp_ratio=2.0)

    def test_failed_batch_leaves_no_kv_state(self):
        servable = DecodeServable(self.config(), seed=0)
        good = request_of(servable.prepare(np.ones(16)), session_id="a", i=0)
        bad = request_of(servable.prepare(np.ones(16)), session_id=None, i=1)
        with pytest.raises(ValueError):
            servable.execute([good, bad])
        assert not servable.cache.has_session("a"), "failed batch committed KV"

    def test_retry_after_failure_matches_clean_execution(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=16)
        poisoned = DecodeServable(self.config(), seed=0)
        with pytest.raises(ValueError):
            poisoned.execute(
                [
                    request_of(poisoned.prepare(x), session_id="a", i=0),
                    request_of(poisoned.prepare(x), session_id=None, i=1),
                ]
            )
        retried = poisoned.execute([request_of(poisoned.prepare(x), session_id="a")])
        clean = DecodeServable(self.config(), seed=0)
        expected = clean.execute([request_of(clean.prepare(x), session_id="a")])
        assert np.array_equal(retried[0], expected[0])
        assert poisoned.cache.context_len("a") == 1


class TestCacheIsolation:
    def test_cached_results_never_alias(self):
        cache = MemoCache(1 << 16)
        engine = ServingEngine(
            VisionServable(tiny_vit(seed=0)),
            config=EngineConfig(max_batch_size=2),
            clock=SimulatedClock(),
            cache=cache,
        )
        with engine:
            rng = np.random.default_rng(0)
            image = rng.normal(size=(16, 16))
            first = engine.submit(image, cache_key="p")
            engine.run_until_idle()
            original = first.result(timeout=0).copy()
            first.result(timeout=0)[:] = 0.0  # caller mutates in place
            second = engine.submit(image, cache_key="p")
            assert second.cache_hit
            assert np.array_equal(second.result(timeout=0), original)
            second.result(timeout=0)[:] = -1.0
            third = engine.submit(image, cache_key="p")
            assert np.array_equal(third.result(timeout=0), original)


class TestIntraBatchSessionChaining:
    def test_same_session_steps_in_one_batch_match_sequential(self):
        """Step t+1 coalesced with step t still attends over step t."""
        config = DecoderConfig("toy", depth=2, dim=16, heads=2, mlp_ratio=2.0)
        rng = np.random.default_rng(11)
        x1, x2 = rng.normal(size=16), rng.normal(size=16)

        sequential = DecodeServable(config, seed=0)
        expected = [
            sequential.execute([request_of(x1, session_id="s", i=0)])[0],
            sequential.execute([request_of(x2, session_id="s", i=1)])[0],
        ]
        batched = DecodeServable(config, seed=0)
        got = batched.execute(
            [
                request_of(x1, session_id="s", i=0),
                request_of(x2, session_id="s", i=1),
            ]
        )
        assert np.array_equal(expected[0], got[0])
        assert np.array_equal(expected[1], got[1])
        assert batched.cache.context_len("s") == 2


class TestNonFinitePayloads:
    """NaN/inf payloads are refused at submit, in the caller's thread."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_vision_prepare_rejects(self, bad):
        image = np.zeros((16, 16))
        image[3, 5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            VisionServable(tiny_vit()).prepare(image)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_decode_prepare_rejects(self, bad):
        config = DecoderConfig("toy", depth=2, dim=16, heads=2, mlp_ratio=2.0)
        token = np.ones(16)
        token[7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            DecodeServable(config).prepare(token)

    def test_nan_submit_fails_alone(self):
        rng = np.random.default_rng(5)
        images = [rng.normal(size=(16, 16)) for _ in range(3)]
        poisoned = images[1].copy()
        poisoned[0, 0] = np.nan
        engine = ServingEngine(
            VisionServable(tiny_vit(seed=2)),
            config=EngineConfig(max_batch_size=4, max_wait_us=0.0),
            clock=SimulatedClock(),
        )
        with engine:
            handles = [engine.submit(images[0])]
            with pytest.raises(ValueError, match="non-finite"):
                engine.submit(poisoned)
            handles += [engine.submit(image) for image in images[1:]]
            assert engine.pending == 3
            engine.step()
            outputs = [handle.result(timeout=0) for handle in handles]
        oracle = VisionServable(tiny_vit(seed=2))
        for image, output in zip(images, outputs):
            expected = oracle.execute([request_of(oracle.prepare(image))])[0]
            np.testing.assert_array_equal(output, expected)


class TestFrozenDecodeWeights:
    DECODER = DecoderConfig("frozen", depth=2, dim=16, heads=2, mlp_ratio=2.0)

    def test_weights_are_read_only(self):
        servable = DecodeServable(self.DECODER)
        for weight in (
            servable.w_qkv,
            servable.w_out,
            servable.w_ffn1,
            servable.w_ffn2,
        ):
            with pytest.raises(ValueError):
                weight[0, 0] = 1.0
        with pytest.raises(ValueError):
            servable.w_qkv *= 2.0

    def weights(self, servable):
        return (servable.w_qkv, servable.w_out, servable.w_ffn1, servable.w_ffn2)

    def test_equal_config_and_seed_share_the_arrays(self):
        first = DecodeServable(self.DECODER, seed=3)
        for twin in (
            DecodeServable(self.DECODER, seed=3, block_size=2),
            DecodeServable(
                DecoderConfig("frozen", depth=2, dim=16, heads=2, mlp_ratio=2.0),
                seed=np.int64(3),
            ),
        ):
            for mine, theirs in zip(self.weights(first), self.weights(twin)):
                assert mine is theirs

    def test_other_seed_or_config_gets_its_own_arrays(self):
        first = DecodeServable(self.DECODER, seed=3)
        other_seed = DecodeServable(self.DECODER, seed=4)
        renamed = DecodeServable(
            DecoderConfig("renamed", depth=2, dim=16, heads=2, mlp_ratio=2.0), seed=3
        )
        for mine, seeded, named in zip(
            self.weights(first), self.weights(other_seed), self.weights(renamed)
        ):
            assert seeded is not mine and named is not mine
            assert not np.array_equal(seeded, mine)
            np.testing.assert_array_equal(named, mine)  # same dims, same draw

    @pytest.mark.parametrize(
        "seed", [None, True, np.random.SeedSequence(3)], ids=["none", "bool", "seedseq"]
    )
    def test_non_integer_seeds_draw_fresh_weights(self, seed):
        first, second = (DecodeServable(self.DECODER, seed=seed) for _ in range(2))
        for mine, theirs in zip(self.weights(first), self.weights(second)):
            assert mine is not theirs
            assert not theirs.flags.writeable
            if seed is None:
                assert not np.array_equal(mine, theirs)

    def test_entry_dies_with_the_last_servable(self):
        key = (self.DECODER, 5)
        servables = [DecodeServable(self.DECODER, seed=5) for _ in range(2)]
        before = [weight.copy() for weight in self.weights(servables[0])]
        servables.pop()
        gc.collect()
        assert key in servable_module._SHARED_WEIGHTS
        servables.pop()
        gc.collect()
        assert key not in servable_module._SHARED_WEIGHTS
        rebuilt = DecodeServable(self.DECODER, seed=5)
        for old, new in zip(before, self.weights(rebuilt)):
            assert old.tobytes() == new.tobytes()

    def test_replicas_share_weights_and_match_oracle(self, monkeypatch):
        """Three replicas plus one added replica hold one frozen copy of
        the weights, the fleet quantizes each weight once, and it still
        decodes bit-equal to batch-1 sequential decode."""
        specs = mixed_decode_trace(6, seed=4, max_steps=6, horizon_s=2e-3)

        def payload_fn(i, t):
            return decode_payload(8, i, t, self.DECODER.dim)

        reference = sequential_decode(
            lambda: DecodeServable(self.DECODER, seed=0, block_size=2), specs, payload_fn
        )
        gc.collect()  # the oracle's weights and grids die with its servables
        assert (self.DECODER, 0) not in servable_module._SHARED_WEIGHTS

        calls = []
        original = quantization.quantize_array

        def counting(values, bits, per_matrix=False):
            calls.append(values)
            return original(values, bits, per_matrix=per_matrix)

        monkeypatch.setattr(quantization, "quantize_array", counting)
        servables, batches = [], []

        def factory(replica_id):
            servable = DecodeServable(self.DECODER, seed=0, block_size=2)
            execute, index = servable.execute, len(servables)
            batches.append(0)

            def counted(requests):
                batches[index] += 1
                return execute(requests)

            servable.execute = counted
            servables.append(servable)
            return servable

        with ServingCluster(
            factory,
            config=ClusterConfig(
                replicas=3,
                policy="round_robin",
                engine=EngineConfig(
                    max_batch_size=4,
                    max_wait_us=0.0,
                    queue_depth=64,
                    scheduler="continuous",
                    block_size=2,
                ),
            ),
            clock=SimulatedClock(),
        ) as cluster:
            cluster.add_replica()
            result = run_decode_trace(cluster, specs, payload_fn=payload_fn)

        assert bit_equal(result["outputs"], reference)
        assert len(servables) == 4 and all(batches)
        assert len({id(servable.executor) for servable in servables}) == 4
        for servable in servables:
            for mine, first in zip(self.weights(servable), self.weights(servables[0])):
                assert mine is first
        for weight in self.weights(servables[0]):
            assert sum(values is weight for values in calls) == 1
