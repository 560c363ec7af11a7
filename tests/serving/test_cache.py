"""Tests for the session cache (memoization + KV accounting)."""

import numpy as np
import pytest

from repro.serving import MISS, SessionCache
from repro.workloads import DecoderConfig, kv_cache_bytes


def toy_decoder() -> DecoderConfig:
    return DecoderConfig("toy", depth=2, dim=16, heads=2, mlp_ratio=2.0)


class TestMemoization:
    def test_miss_then_hit(self):
        cache = SessionCache()
        assert cache.get("k") is MISS
        value = np.arange(4.0)
        cache.put("k", value)
        assert cache.get("k") is value
        assert cache.hits == 1 and cache.misses == 1

    def test_byte_accounting(self):
        cache = SessionCache()
        cache.put("a", np.zeros(4))  # 32 bytes
        cache.put("b", np.zeros(2))  # 16 bytes
        assert cache.memo_entries == 2
        assert cache.memo_bytes == 48

    def test_lru_eviction(self):
        cache = SessionCache(capacity_bytes=64)
        cache.put("a", np.zeros(4))  # 32 bytes
        cache.put("b", np.zeros(4))  # 32 bytes -> at capacity
        assert cache.get("a") is not MISS  # refresh "a"; "b" is now LRU
        cache.put("c", np.zeros(4))
        assert cache.get("b") is MISS
        assert cache.get("a") is not MISS
        assert cache.get("c") is not MISS
        assert cache.evictions == 1
        assert cache.memo_bytes == 64

    def test_oversized_entries_are_not_admitted(self):
        cache = SessionCache(capacity_bytes=16)
        cache.put("huge", np.zeros(64))
        assert cache.get("huge") is MISS
        assert cache.memo_bytes == 0

    def test_replacing_a_key_updates_bytes(self):
        cache = SessionCache()
        cache.put("k", np.zeros(8))
        cache.put("k", np.zeros(2))
        assert cache.memo_entries == 1
        assert cache.memo_bytes == 16

    def test_validates_capacity(self):
        with pytest.raises(ValueError):
            SessionCache(capacity_bytes=-1)


class TestSessions:
    def test_open_and_grow(self):
        cache = SessionCache(toy_decoder())
        cache.open_session("s", prompt_len=3)
        assert cache.context_len("s") == 3
        k = np.zeros(16)
        assert cache.append_kv("s", k, k) == 4
        assert cache.append_kv("s", k, k) == 5
        session = cache.session("s")
        assert len(session.keys) == 2 and session.prompt_len == 3

    @pytest.mark.parametrize("config", [toy_decoder(), None], ids=["paged", "implicit"])
    def test_keys_and_values_span_pages_like_a_per_slot_walk(self, config):
        """``keys``/``values`` over a 3+ page session are the per-slot views
        a slot-by-slot page walk finds, in step order."""

        def slot(session, index):  # one linear walk per slot
            for block in session.blocks:
                if index < block.fill:
                    return block, index
                index -= block.fill
            raise IndexError(index)

        cache = SessionCache(config, block_size=2)
        cache.open_session("s", prompt_len=3)
        rng = np.random.default_rng(0)
        steps = [(rng.normal(size=16), rng.normal(size=16)) for _ in range(6)]
        for k, v in steps:
            cache.append_kv("s", k, v)
        session = cache.session("s")
        assert len(session.blocks) >= 3
        first = session.prompt_slots
        for name, column in (("keys", 0), ("values", 1)):
            rows = getattr(session, name)
            assert len(rows) == len(steps)
            for i, row in enumerate(rows):
                block, index = slot(session, first + i)
                page = getattr(block, name)
                assert np.shares_memory(row, page)
                np.testing.assert_array_equal(row, page[index])
                np.testing.assert_array_equal(row, steps[i][column])

    def test_duplicate_open_rejected(self):
        cache = SessionCache(toy_decoder())
        cache.open_session("s")
        with pytest.raises(ValueError):
            cache.open_session("s")

    def test_unknown_session_rejected(self):
        cache = SessionCache(toy_decoder())
        with pytest.raises(KeyError):
            cache.session("nope")

    def test_bytes_match_the_llm_analysis(self):
        """SessionCache accounting is kv_cache_bytes by definition."""
        config = toy_decoder()
        cache = SessionCache(config, kv_bits=8)
        cache.open_session("s", prompt_len=5)
        k = np.zeros(16)
        for _ in range(3):
            cache.append_kv("s", k, k)
        assert cache.session_bytes("s") == kv_cache_bytes(config, 8, bits=8)

    def test_kv_bits_scale_the_accounting(self):
        config = toy_decoder()
        int8 = SessionCache(config, kv_bits=8)
        int4 = SessionCache(config, kv_bits=4)
        for cache in (int8, int4):
            cache.open_session("s", prompt_len=4)
        assert int4.session_bytes("s") * 2 == int8.session_bytes("s")

    def test_empty_session_holds_no_bytes(self):
        cache = SessionCache(toy_decoder())
        cache.open_session("s")
        assert cache.session_bytes("s") == 0

    def test_total_and_close(self):
        config = toy_decoder()
        cache = SessionCache(config)
        cache.open_session("a", prompt_len=2)
        cache.open_session("b", prompt_len=7)
        expected = kv_cache_bytes(config, 2) + kv_cache_bytes(config, 7)
        assert cache.total_kv_bytes() == expected
        freed = cache.close_session("b")
        assert freed == kv_cache_bytes(config, 7)
        assert cache.total_kv_bytes() == kv_cache_bytes(config, 2)
        assert not cache.has_session("b")

    def test_session_api_needs_a_config(self):
        cache = SessionCache()
        cache.open_session("s", prompt_len=1)
        with pytest.raises(ValueError):
            cache.session_bytes("s")

    def test_stats(self):
        cache = SessionCache(toy_decoder())
        cache.open_session("s", prompt_len=2)
        cache.put("k", np.zeros(4))
        cache.get("k")
        cache.get("missing")
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["open_sessions"] == 1
        assert stats["total_kv_bytes"] == kv_cache_bytes(toy_decoder(), 2)
