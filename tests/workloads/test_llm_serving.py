"""Decode-shape edge cases feeding the serving batcher (Sec. VI-B).

The satellite coverage the serving PR promises: single-token GEMV
batches, ragged prompt coalescing under the padding policy, and KV
accounting consistency between :func:`kv_cache_bytes` and the
:class:`SessionCache` ledger.
"""

import numpy as np
import pytest

from repro.serving import (
    DecodeServable,
    EngineConfig,
    InferenceRequest,
    RequestHandle,
    ServingEngine,
    SessionCache,
    SimulatedClock,
)
from repro.workloads import (
    DecoderConfig,
    decode_trace,
    dynamic_ops,
    kv_cache_bytes,
    pad_prompts,
)


def toy_decoder() -> DecoderConfig:
    return DecoderConfig("toy", depth=2, dim=16, heads=2, mlp_ratio=2.0)


def decode_request(servable, payload, session_id) -> InferenceRequest:
    return InferenceRequest(
        payload=servable.prepare(payload),
        handle=RequestHandle(0, 0.0),
        arrival=0.0,
        session_id=session_id,
    )


class TestSingleTokenGEMVBatches:
    def test_trace_projections_match_the_coalesced_batch_shape(self):
        """decode_trace's qkv GEMV row is exactly the batcher's stack."""
        batch = 5
        trace = decode_trace(toy_decoder(), context_len=3, batch=batch)
        qkv = next(op for op in trace if op.name == "qkv_proj")
        assert (qkv.m, qkv.k) == (batch, 16)
        # Attention stays per-request: single-query rows, per-request count.
        for op in dynamic_ops(trace):
            assert op.m == 1

    def test_engine_coalesces_single_token_requests_into_one_gemv(self):
        servable = DecodeServable(toy_decoder(), seed=0)
        rng = np.random.default_rng(0)
        engine = ServingEngine(
            servable, config=EngineConfig(max_batch_size=8), clock=SimulatedClock()
        )
        with engine:
            handles = [
                engine.submit(rng.normal(size=16), session_id=f"s{i}")
                for i in range(5)
            ]
            engine.run_until_idle()
            outputs = [h.result(timeout=0) for h in handles]
        assert engine.metrics.batch_occupancy() == {5: 1}
        assert all(out.shape == (16,) for out in outputs)
        # Each request grew its own session by exactly one token.
        assert all(servable.cache.context_len(f"s{i}") == 1 for i in range(5))

    def test_batch_of_one_equals_batch_of_many(self):
        rng = np.random.default_rng(1)
        vectors = [rng.normal(size=16) for _ in range(4)]

        def run(max_batch_size):
            servable = DecodeServable(toy_decoder(), seed=0)
            engine = ServingEngine(
                servable,
                config=EngineConfig(max_batch_size=max_batch_size),
                clock=SimulatedClock(),
            )
            with engine:
                handles = [
                    engine.submit(x, session_id=f"s{i}")
                    for i, x in enumerate(vectors)
                ]
                engine.run_until_idle()
                return [h.result(timeout=0) for h in handles]

        for single, coalesced in zip(run(1), run(8)):
            assert np.array_equal(single, coalesced)


class TestRaggedPromptPadding:
    def test_pads_to_the_batch_maximum_by_default(self):
        padded, lengths = pad_prompts([[1, 2, 3], [4], [5, 6]])
        assert padded.shape == (3, 3)
        assert lengths == [3, 1, 2]
        assert padded.tolist() == [[1, 2, 3], [4, 0, 0], [5, 6, 0]]

    def test_explicit_target_and_pad_id(self):
        padded, _ = pad_prompts([[1], [2, 3]], pad_id=9, length=4)
        assert padded.tolist() == [[1, 9, 9, 9], [2, 3, 9, 9]]

    def test_rejects_overlong_prompts(self):
        with pytest.raises(ValueError):
            pad_prompts([[1, 2, 3]], length=2)

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            pad_prompts([])
        with pytest.raises(ValueError):
            pad_prompts([[]])

    def test_single_token_prompts_coalesce(self):
        """The decode regime: every prompt is one token long."""
        padded, lengths = pad_prompts([[7], [8], [9]])
        assert padded.shape == (3, 1)
        assert lengths == [1, 1, 1]


class TestKVAccountingConsistency:
    def test_servable_sessions_follow_kv_cache_bytes(self):
        config = toy_decoder()
        servable = DecodeServable(config, seed=0)
        servable.cache.open_session("s", prompt_len=6)
        rng = np.random.default_rng(2)
        for step in range(1, 4):
            servable.execute([decode_request(servable, rng.normal(size=16), "s")])
            expected = kv_cache_bytes(config, 6 + step, bits=servable.cache.kv_bits)
            assert servable.cache.session_bytes("s") == expected

    def test_batched_decode_accounts_every_session(self):
        config = toy_decoder()
        cache = SessionCache(config)
        servable = DecodeServable(config, cache=cache, seed=0)
        rng = np.random.default_rng(3)
        engine = ServingEngine(
            servable, config=EngineConfig(max_batch_size=4), clock=SimulatedClock()
        )
        with engine:
            for step in range(2):
                for sid in ("a", "b"):
                    engine.submit(rng.normal(size=16), session_id=sid)
            engine.run_until_idle()
        assert cache.total_kv_bytes() == 2 * kv_cache_bytes(config, 2)

    def test_kv_bits_thread_through(self):
        config = toy_decoder()
        cache = SessionCache(config, kv_bits=4)
        servable = DecodeServable(config, cache=cache, seed=0)
        servable.execute([decode_request(servable, np.ones(16), "s")])
        assert cache.session_bytes("s") == kv_cache_bytes(config, 1, bits=4)
