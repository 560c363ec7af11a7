"""SharedCacheTier units: the fleet memo's LRU byte budget, and
prefix-chain refcount/holder custody, alone and under threads."""

import sys
import threading

import numpy as np
import pytest

from repro.cluster import SharedCacheTier
from repro.serving.cache import MISS
from repro.workloads.llm import DecoderConfig, kv_cache_bytes


def toy_decoder() -> DecoderConfig:
    return DecoderConfig("store-test", depth=2, dim=16, heads=2, mlp_ratio=2.0)


class TestTierMemo:
    def test_miss_then_hit_with_counters(self):
        memo = SharedCacheTier().memo
        assert memo.get("k") is MISS
        memo.put("k", np.arange(4.0))
        np.testing.assert_array_equal(memo.get("k"), np.arange(4.0))
        assert memo.hits == 1 and memo.misses == 1

    def test_lru_eviction_under_byte_budget(self):
        entry = np.zeros(16)  # 128 bytes
        memo = SharedCacheTier(memo_capacity_bytes=3 * entry.nbytes).memo
        for i in range(3):
            memo.put(f"k{i}", entry)
        assert memo.get("k0") is not MISS  # refresh k0
        memo.put("k3", entry)  # evicts k1, the LRU
        assert memo.get("k1") is MISS
        assert memo.get("k0") is not MISS
        assert memo.evictions == 1
        assert memo.memo_entries == 3
        assert memo.memo_bytes == 3 * entry.nbytes

    def test_overwrite_replaces_bytes_not_duplicates(self):
        memo = SharedCacheTier(memo_capacity_bytes=1 << 10).memo
        memo.put("k", np.zeros(8))
        memo.put("k", np.zeros(16))  # same key, larger value
        assert memo.memo_entries == 1
        assert memo.memo_bytes == 128
        np.testing.assert_array_equal(memo.get("k"), np.zeros(16))

    def test_oversized_entry_never_admitted(self):
        memo = SharedCacheTier(memo_capacity_bytes=8).memo
        memo.put("big", np.zeros(100))
        assert memo.memo_entries == 0 and memo.get("big") is MISS

    def test_budget_bounds_non_array_values(self):
        memo = SharedCacheTier(memo_capacity_bytes=8).memo
        for i in range(1000):
            memo.put(i, [float(i)] * 1000)
        assert memo.memo_bytes <= 8
        assert memo.memo_entries == 0  # each list alone exceeds the budget

    def test_non_string_keys(self):
        memo = SharedCacheTier().memo
        memo.put((1, "a"), np.ones(2))
        assert memo.get((1, "a")) is not MISS
        assert memo.get((1, "b")) is MISS

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SharedCacheTier(memo_capacity_bytes=-1)


class TestTierPrefixChains:
    def test_ensure_prefix_pages_and_bytes(self):
        config = toy_decoder()
        tier = SharedCacheTier()
        chain = tier.ensure_prefix("sys", 5, config=config, block_size=2)
        assert chain.n_blocks == 3  # ceil(5 / 2) pages
        assert chain.tokens == 5 and chain.keys.shape == (5, config.dim)
        assert not chain.keys.any() and not chain.values.any()  # zero-state rows
        assert chain.nbytes == kv_cache_bytes(config, 6)  # page-rounded
        assert tier.prefix_ids == ["sys"]
        assert tier.shared_bytes == chain.nbytes

    def test_ensure_prefix_idempotent_and_strict(self):
        config = toy_decoder()
        tier = SharedCacheTier()
        chain = tier.ensure_prefix("sys", 4, config=config, block_size=2)
        assert tier.ensure_prefix("sys", 4, config=config, block_size=2) is chain
        with pytest.raises(ValueError, match="already registered with"):
            tier.ensure_prefix("sys", 6, config=config, block_size=2)
        with pytest.raises(ValueError):
            tier.ensure_prefix("other", 0, config=config)

    def test_refcount_and_holder_custody(self):
        tier = SharedCacheTier()
        tier.ensure_prefix("sys", 2, config=toy_decoder())
        assert tier.refcount("sys") == 0
        tier.acquire_prefix("sys", replica_id=1)
        tier.acquire_prefix("sys", replica_id=0)
        tier.acquire_prefix("sys", replica_id=1)
        assert tier.refcount("sys") == 3
        assert tier.replicas_holding("sys") == [0, 1]
        assert tier.release_prefix("sys", replica_id=1) == 2
        assert tier.replicas_holding("sys") == [0, 1]  # 1 still holds one
        assert tier.release_prefix("sys", replica_id=1) == 1
        assert tier.replicas_holding("sys") == [0]
        assert tier.release_prefix("sys", replica_id=0) == 0
        assert tier.replicas_holding("sys") == []

    def test_prefix_ids_are_opaque_keys(self):
        # Holder custody is keyed by value: "a" and "a/1" never mix.
        tier = SharedCacheTier()
        for prefix_id in ("a", "a/1"):
            tier.ensure_prefix(prefix_id, 2, config=toy_decoder())
        tier.acquire_prefix("a/1", replica_id=0)
        tier.acquire_prefix("a", replica_id=1)
        assert tier.replicas_holding("a") == [1]
        assert tier.replicas_holding("a/1") == [0]
        assert tier.prefix_ids == ["a", "a/1"]

    def test_acquire_unregistered_raises(self):
        tier = SharedCacheTier()
        with pytest.raises(KeyError):
            tier.acquire_prefix("ghost", replica_id=0)

    def test_release_guards(self):
        tier = SharedCacheTier()
        tier.ensure_prefix("sys", 2, config=toy_decoder())
        with pytest.raises(ValueError, match="not referenced"):
            tier.release_prefix("sys", replica_id=0)
        tier.acquire_prefix("sys", replica_id=0)
        with pytest.raises(ValueError):
            tier.release_prefix("sys", replica_id=3)  # holds none

    def test_move_holder_follows_migration(self):
        tier = SharedCacheTier()
        tier.ensure_prefix("sys", 2, config=toy_decoder())
        tier.acquire_prefix("sys", replica_id=0)
        tier.move_holder("sys", 0, 2)
        assert tier.replicas_holding("sys") == [2]
        assert tier.refcount("sys") == 1
        tier.move_holder("sys", 2, 2)  # same-replica move is a no-op
        assert tier.replicas_holding("sys") == [2]
        with pytest.raises(ValueError):
            tier.move_holder("sys", 0, 1)  # source holds none

    def test_drop_prefix_guard(self):
        tier = SharedCacheTier()
        tier.ensure_prefix("sys", 2, config=toy_decoder())
        tier.acquire_prefix("sys", replica_id=0)
        with pytest.raises(ValueError, match="referenced"):
            tier.drop_prefix("sys")
        tier.release_prefix("sys", replica_id=0)
        assert tier.drop_prefix("sys") is True
        assert tier.drop_prefix("sys") is False

    def test_stats_sections(self):
        tier = SharedCacheTier()
        tier.memo.put("k", np.zeros(4))
        tier.memo.get("k")
        tier.memo.get("absent")
        tier.ensure_prefix("sys", 3, config=toy_decoder(), block_size=2)
        tier.acquire_prefix("sys", replica_id=0)
        stats = tier.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["memo_entries"] == 1 and stats["memo_bytes"] == 32
        assert stats["prefixes"] == 1
        assert stats["shared_bytes"] == tier.shared_bytes
        assert stats["referenced_prefixes"] == 1


class TestTierThreads:
    def test_concurrent_custody_balances(self):
        # Forks, moves and releases from many threads: a lost update in
        # any of the three maps leaves a refcount or holder behind.
        tier = SharedCacheTier()
        tier.ensure_prefix("sys", 2, config=toy_decoder())
        errors = []
        start = threading.Barrier(8)

        def client(index: int) -> None:
            try:
                start.wait(timeout=10.0)
                for step in range(2000):
                    home, away = step % 2, 1 - step % 2  # contended pair
                    tier.acquire_prefix("sys", home)
                    tier.move_holder("sys", home, away)
                    tier.replicas_holding("sys")
                    tier.release_prefix("sys", away)
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=client, args=(i,), daemon=True)
                for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=20.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert tier.refcount("sys") == 0
        assert tier.replicas_holding("sys") == []
        assert tier.stats()["referenced_prefixes"] == 0
