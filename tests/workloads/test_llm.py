"""Tests for the Sec. VI-B LLM workload analysis."""

import pytest

from repro.arch import lt_base, lt_large
from repro.analysis import analyze_decode, batch_to_saturate
from repro.workloads import (
    DecoderConfig,
    decode_trace,
    dynamic_ops,
    gpt2_large,
    gpt2_medium,
    gpt2_small,
    kv_cache_bytes,
    kv_recompute_trace,
    prefill_trace,
    total_flops,
)
from repro.workloads.llm import shared_kv_cache_bytes


class TestDecoderConfigs:
    def test_gpt2_family(self):
        assert (gpt2_small().depth, gpt2_small().dim) == (12, 768)
        assert (gpt2_medium().depth, gpt2_medium().dim) == (24, 1024)
        assert (gpt2_large().depth, gpt2_large().dim) == (36, 1280)

    def test_head_dim(self):
        assert gpt2_small().head_dim == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            DecoderConfig("bad", depth=0, dim=768, heads=12)
        with pytest.raises(ValueError):
            DecoderConfig("bad", depth=12, dim=770, heads=12)


class TestTraces:
    def test_prefill_is_large_gemms(self):
        trace = prefill_trace(gpt2_small(), prompt_len=512)
        assert all(op.m >= 512 or op.dynamic for op in trace)
        assert any(op.dynamic for op in trace)

    def test_decode_is_gemv_shaped(self):
        trace = decode_trace(gpt2_small(), context_len=512)
        # Attention rows are single-query; projections are batch-1.
        for op in dynamic_ops(trace):
            assert op.m == 1
        projections = [op for op in trace if not op.dynamic]
        assert all(op.m == 1 for op in projections)

    def test_decode_flops_scale_with_context_only_in_attention(self):
        short = decode_trace(gpt2_small(), context_len=128)
        long = decode_trace(gpt2_small(), context_len=1024)
        short_attn = total_flops(dynamic_ops(short))
        long_attn = total_flops(dynamic_ops(long))
        assert long_attn == pytest.approx(8 * short_attn)

    def test_batching_scales_projections(self):
        single = decode_trace(gpt2_small(), 128, batch=1)
        batched = decode_trace(gpt2_small(), 128, batch=8)
        proj_single = [op for op in single if op.name == "qkv_proj"][0]
        proj_batched = [op for op in batched if op.name == "qkv_proj"][0]
        assert proj_batched.m == 8 * proj_single.m

    def test_validation(self):
        with pytest.raises(ValueError):
            prefill_trace(gpt2_small(), prompt_len=0)
        with pytest.raises(ValueError):
            decode_trace(gpt2_small(), context_len=0)
        with pytest.raises(ValueError):
            decode_trace(gpt2_small(), context_len=8, batch=0)


class TestKVCache:
    def test_linear_in_context(self):
        cfg = gpt2_small()
        assert kv_cache_bytes(cfg, 200, 8) == pytest.approx(
            2 * kv_cache_bytes(cfg, 100, 8)
        )

    def test_gpt2_small_size_at_2k(self):
        """2 * 12 layers * 768 dim * 2048 tokens at 8-bit ~ 37.7 MB."""
        assert kv_cache_bytes(gpt2_small(), 2048, 8) == pytest.approx(
            37.75e6, rel=0.01
        )

    def test_bits_scale(self):
        cfg = gpt2_small()
        assert kv_cache_bytes(cfg, 128, 4) == pytest.approx(
            kv_cache_bytes(cfg, 128, 8) / 2
        )

    def test_recompute_trades_memory_for_compute(self):
        """Recomputing K/V adds GEMM work proportional to the context."""
        ops = kv_recompute_trace(gpt2_small(), context_len=512)
        assert total_flops(ops) > 0
        assert all(not op.dynamic for op in ops)
        double = kv_recompute_trace(gpt2_small(), context_len=1024)
        assert total_flops(double) == pytest.approx(2 * total_flops(ops))


class TestSharedKVCache:
    #: 2 layers x dim 16 x (K + V) at 8 bits: 64 bytes per cached token.
    TOY = DecoderConfig("toy", depth=2, dim=16, heads=2)

    @pytest.mark.parametrize("block_size", [1, 2, 4])
    def test_no_prefix_is_the_unshared_sum(self, block_size):
        contexts = [1, 3, 6, 9]
        unshared = sum(
            kv_cache_bytes(self.TOY, -(-c // block_size) * block_size)
            for c in contexts
        )
        assert (
            shared_kv_cache_bytes(self.TOY, 0, contexts, block_size=block_size)
            == unshared
        )

    @pytest.mark.parametrize(
        "block_size, tokens",
        [
            # prefix 3 -> 4 tokens once; suffixes 1 -> 2 and 5 -> 6.
            (2, 4 + 2 + 6),
            # prefix 3 -> 4 tokens once; suffixes 1 -> 4 and 5 -> 8.
            (4, 4 + 4 + 8),
        ],
    )
    def test_prefix_and_suffixes_round_to_pages(self, block_size, tokens):
        assert kv_cache_bytes(self.TOY, 1) == 64
        assert (
            shared_kv_cache_bytes(self.TOY, 3, [4, 8], block_size=block_size)
            == 64 * tokens
        )

    def test_prefix_charged_once(self):
        one = shared_kv_cache_bytes(self.TOY, 4, [6], block_size=2)
        three = shared_kv_cache_bytes(self.TOY, 4, [6, 6, 6], block_size=2)
        assert three - one == 2 * kv_cache_bytes(self.TOY, 2)

    def test_validation(self):
        with pytest.raises(ValueError, match="prefix_len"):
            shared_kv_cache_bytes(self.TOY, -1, [4])
        with pytest.raises(ValueError, match="block_size"):
            shared_kv_cache_bytes(self.TOY, 2, [4], block_size=0)
        with pytest.raises(ValueError, match="shorter than the shared prefix"):
            shared_kv_cache_bytes(self.TOY, 5, [6, 4])


class TestRooflineAnalysis:
    """The paper's Sec. VI-B claims, made quantitative."""

    def test_decode_is_memory_bound(self):
        """'This characteristic makes LLMs memory-bounded.'"""
        analysis = analyze_decode(lt_base(8), gpt2_small(), context_len=512)
        assert analysis.memory_bound
        assert analysis.compute_utilization < 0.5

    def test_prefill_like_intensity_is_higher(self):
        """Prefill GEMMs have far higher arithmetic intensity."""
        decode = analyze_decode(lt_base(8), gpt2_small(), 512)
        assert decode.arithmetic_intensity < 10

    def test_batching_raises_utilization(self):
        cfg = gpt2_small()
        low = analyze_decode(lt_base(8), cfg, 128, batch=1)
        high = analyze_decode(lt_base(8), cfg, 128, batch=32)
        assert high.compute_utilization > low.compute_utilization

    def test_latency_is_roofline_max(self):
        analysis = analyze_decode(lt_base(8), gpt2_small(), 256)
        assert analysis.latency == max(
            analysis.compute_time, analysis.memory_time
        )

    def test_bigger_model_more_memory_traffic(self):
        small = analyze_decode(lt_base(8), gpt2_small(), 256)
        large = analyze_decode(lt_base(8), gpt2_large(), 256)
        assert large.hbm_bytes > 2 * small.hbm_bytes

    def test_batch_to_saturate_reports_underutilization(self):
        """Decode attention stays KV-bound: even large batches do not
        saturate the photonic compute (the paper's motivation for
        memory-system scaling)."""
        batch = batch_to_saturate(lt_base(8), gpt2_small(), 512, max_batch=64)
        assert batch > 4

    def test_faster_accelerator_more_memory_bound(self):
        """Doubling compute (LT-L) cannot help a memory-bound phase."""
        base = analyze_decode(lt_base(8), gpt2_small(), 512)
        large = analyze_decode(lt_large(8), gpt2_small(), 512)
        assert large.memory_time == pytest.approx(base.memory_time)
        assert large.compute_time <= base.compute_time
