"""Tests for the paged KV accounting: BlockPool and the pooled
SessionCache invariants (page-rounded ledger, swap custody, reuse)."""

import numpy as np
import pytest

from repro.serving import BlockPool, SessionCache
from repro.workloads import DecoderConfig, kv_cache_bytes


def toy_decoder() -> DecoderConfig:
    return DecoderConfig("toy", depth=2, dim=16, heads=2, mlp_ratio=2.0)


class TestBlockPool:
    def test_block_bytes_match_formula(self):
        config = toy_decoder()
        pool = BlockPool(config, block_size=4)
        assert pool.block_bytes == kv_cache_bytes(config, 4, bits=8)

    def test_capacity_blocks_floor(self):
        config = toy_decoder()
        per = kv_cache_bytes(config, 2)
        pool = BlockPool(config, block_size=2, capacity_bytes=3 * per + per // 2)
        assert pool.capacity_blocks == 3
        assert pool.can_fit(3) and not pool.can_fit(4)

    def test_unbounded_pool_always_fits(self):
        pool = BlockPool(toy_decoder(), block_size=2)
        assert pool.capacity_blocks is None
        assert pool.can_fit(10**6)

    def test_blocks_for_rounds_up(self):
        pool = BlockPool(toy_decoder(), block_size=4)
        assert pool.blocks_for(0) == 0
        assert pool.blocks_for(1) == 1
        assert pool.blocks_for(4) == 1
        assert pool.blocks_for(5) == 2

    def test_free_list_reuse(self):
        pool = BlockPool(toy_decoder(), block_size=2)
        pool.allocate()
        pool.release(1)
        assert pool.in_use == 0 and pool.free_blocks == 1
        pool.allocate(2)  # the freed page first, then a fresh one
        assert pool.free_blocks == 0 and pool.in_use == 2
        assert pool.reuses == 1 and pool.allocations == 2

    def test_charge_discharge_custody(self):
        config = toy_decoder()
        pool = BlockPool(config, block_size=1, capacity_bytes=kv_cache_bytes(config, 2))
        pool.allocate(), pool.allocate()
        assert pool.in_use == 2
        pool.discharge(2)
        assert pool.in_use == 0 and pool.can_fit(2)
        pool.charge(2)
        assert pool.in_use == 2

    def test_charge_never_fails_over_budget(self):
        config = toy_decoder()
        pool = BlockPool(config, block_size=1, capacity_bytes=kv_cache_bytes(config, 1))
        pool.allocate()
        pool.charge(3)  # adoption must not lose state
        assert pool.in_use == 4
        assert not pool.can_fit(1)

    def test_recycle_skips_custody_decrement(self):
        pool = BlockPool(toy_decoder(), block_size=2)
        pool.allocate()
        pool.discharge(1)  # swapped out: custody already dropped
        pool.recycle(1)
        assert pool.in_use == 0 and pool.free_blocks == 1
        pool.allocate()
        assert pool.reuses == 1 and pool.allocations == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockPool(toy_decoder(), block_size=0)
        with pytest.raises(ValueError):
            BlockPool(toy_decoder(), block_size=1, capacity_bytes=-1)


class TestPageRoundedLedger:
    def test_session_bytes_round_up_to_pages(self):
        config = toy_decoder()
        cache = SessionCache(config, block_size=4)
        cache.open_session("s", prompt_len=1)
        # context 1 occupies one 4-token page
        assert cache.session_bytes("s") == kv_cache_bytes(config, 4)
        for t in range(1, 5):
            k = np.full(config.dim, float(t))
            cache.append_kv("s", k, -k)
        # context 5 spills into a second page
        assert cache.session_bytes("s") == kv_cache_bytes(config, 8)

    def test_zero_context_is_zero_bytes(self):
        config = toy_decoder()
        cache = SessionCache(config, block_size=4)
        cache.open_session("s", prompt_len=0)
        assert cache.session_bytes("s") == 0

    def test_exact_page_boundary(self):
        config = toy_decoder()
        cache = SessionCache(config, block_size=4)
        cache.open_session("s", prompt_len=4)
        assert cache.session_bytes("s") == kv_cache_bytes(config, 4)
        assert cache.session_blocks("s") == 1

    def test_block_size_one_matches_unpaged_accounting(self):
        config = toy_decoder()
        cache = SessionCache(config)  # default block_size=1
        cache.open_session("s", prompt_len=3)
        k = np.ones(config.dim)
        cache.append_kv("s", k, k)
        cache.append_kv("s", k, k)
        assert cache.session_bytes("s") == kv_cache_bytes(config, 5, bits=8)

    def test_stats_report_paging(self):
        config = toy_decoder()
        cache = SessionCache(config, block_size=2, kv_capacity_bytes=10**6)
        cache.open_session("s", prompt_len=3)
        stats = cache.stats()
        assert stats["block_size"] == 2
        assert stats["swapped_sessions"] == 0
        assert stats["resident_kv_bytes"] == cache.session_bytes("s")
        assert stats["pool"]["in_use_blocks"] == 2


class TestLedgerPoolInvariant:
    def test_resident_bytes_equal_pool_in_use(self):
        config = toy_decoder()
        cache = SessionCache(config, block_size=2)
        for sid, prompt in (("a", 1), ("b", 4), ("c", 0)):
            cache.open_session(sid, prompt_len=prompt)
        k = np.ones(config.dim)
        cache.append_kv("a", k, k)
        for _ in range(3):
            cache.append_kv("c", k, k)
        assert cache.resident_kv_bytes() == cache.pool.in_use_bytes
        assert cache.total_kv_bytes() == sum(
            cache.session_bytes(sid) for sid in ("a", "b", "c")
        )

    def test_swap_out_leaves_ledger_but_frees_pool(self):
        config = toy_decoder()
        cache = SessionCache(config, block_size=2)
        cache.open_session("s", prompt_len=3)
        ledger = cache.session_bytes("s")
        blocks = cache.swap_out("s")
        assert blocks == 2
        assert cache.session_bytes("s") == ledger  # ledger remembers
        assert cache.resident_kv_bytes() == 0 == cache.pool.in_use_bytes
        assert cache.stats()["swapped_sessions"] == 1
        assert cache.swap_in("s") == 2
        assert cache.resident_kv_bytes() == ledger


class TestSwapBitExactness:
    def test_kv_arrays_survive_swap_round_trip(self):
        config = toy_decoder()
        cache = SessionCache(config, block_size=2)
        cache.open_session("s", prompt_len=2)
        rng = np.random.default_rng(0)
        for _ in range(3):
            k, v = rng.normal(size=config.dim), rng.normal(size=config.dim)
            cache.append_kv("s", k, v)
        before = cache.session("s").kv_arrays(config.dim)
        cache.swap_out("s")
        cache.swap_in("s")
        after = cache.session("s").kv_arrays(config.dim)
        np.testing.assert_array_equal(before[0], after[0])
        np.testing.assert_array_equal(before[1], after[1])


class TestPopAdopt:
    def _filled(self, config, cache, sid="s"):
        cache.open_session(sid, prompt_len=2)
        k = np.arange(config.dim, dtype=float)
        cache.append_kv(sid, k, 2 * k)
        return cache

    def test_pop_moves_blocks_wholesale(self):
        config = toy_decoder()
        src = SessionCache(config, block_size=2)
        dst = SessionCache(config, block_size=2)
        self._filled(config, src)
        session = src.pop_session("s")
        assert src.resident_kv_bytes() == 0 == src.pool.in_use_bytes
        assert not src.has_session("s")
        dst.adopt_session(session)
        assert dst.session_bytes("s") == kv_cache_bytes(config, 4)
        assert dst.resident_kv_bytes() == dst.pool.in_use_bytes
        k = np.arange(config.dim, dtype=float)
        keys, values = dst.session("s").kv_arrays(config.dim)
        np.testing.assert_array_equal(keys[2], k)
        np.testing.assert_array_equal(values[2], 2 * k)

    def test_pop_swapped_session_skips_discharge(self):
        config = toy_decoder()
        src = SessionCache(config, block_size=2)
        self._filled(config, src)
        src.swap_out("s")
        in_use = src.pool.in_use
        session = src.pop_session("s")
        assert session.swapped
        assert src.pool.in_use == in_use  # nothing to discharge twice

    def test_adopt_refuses_another_page_size(self):
        config = toy_decoder()
        src = SessionCache(config, block_size=2)
        self._filled(config, src)
        session = src.pop_session("s")
        dst = SessionCache(config, block_size=4)
        with pytest.raises(ValueError, match="do not fit"):
            dst.adopt_session(session)
        assert not dst.has_session("s") and dst.pool.in_use == 0

    def test_adopt_over_budget_succeeds(self):
        config = toy_decoder()
        src = SessionCache(config, block_size=1)
        self._filled(config, src)
        tiny = SessionCache(
            config, block_size=1, kv_capacity_bytes=kv_cache_bytes(config, 1)
        )
        tiny.adopt_session(src.pop_session("s"))  # charge never fails
        assert tiny.session_bytes("s") == kv_cache_bytes(config, 3)
        assert not tiny.pool.can_fit(1)


class TestCloseSemantics:
    def test_close_resident_releases(self):
        config = toy_decoder()
        cache = SessionCache(config, block_size=2)
        cache.open_session("s", prompt_len=3)
        cache.close_session("s")
        assert cache.pool.in_use == 0
        cache.open_session("t", prompt_len=3)
        assert cache.pool.reuses == 2  # pages came off the free list

    def test_close_swapped_recycles_without_double_release(self):
        config = toy_decoder()
        cache = SessionCache(config, block_size=2)
        cache.open_session("s", prompt_len=2)
        cache.swap_out("s")
        cache.close_session("s")
        assert cache.pool.in_use == 0
        cache.open_session("t", prompt_len=2)
        assert cache.pool.in_use == 1


class TestPrefixExportAdopt:
    """Copy-on-write prefix sharing: export transfers page custody out
    of the pool, adopters alias the chain without charging it, and the
    first generated token lands on a fresh private page."""

    def test_export_discharges_and_keeps_alias(self):
        config = toy_decoder()
        cache = SessionCache(config, block_size=2)
        cache.open_session("donor", prompt_len=4)
        assert cache.pool.in_use == 2
        chain = cache.export_prefix("donor", "sys")
        assert chain.tokens == 4 and chain.n_blocks == 2
        assert cache.pool.in_use == 0  # custody moved to the tier
        session = cache.session("donor")
        assert session.shared_blocks == 2 and session.prefix_id == "sys"
        assert session.private_blocks == 0
        assert cache.session_bytes("donor") == 0
        assert cache.shared_session_bytes("donor") == kv_cache_bytes(config, 4)

    def test_export_boundary_must_be_page_aligned(self):
        config = toy_decoder()
        cache = SessionCache(config, block_size=2)
        cache.open_session("s", prompt_len=5)
        with pytest.raises(ValueError, match="page-aligned"):
            cache.export_prefix("s", "sys", tokens=3)
        chain = cache.export_prefix("s", "sys", tokens=4)
        assert chain.n_blocks == 2
        assert cache.session("s").private_blocks == 1  # the ragged tail

    def test_export_whole_context_may_end_ragged(self):
        cache = SessionCache(toy_decoder(), block_size=2)
        cache.open_session("s", prompt_len=5)
        chain = cache.export_prefix("s", "sys")  # 3 pages, last half-full
        assert chain.tokens == 5 and chain.n_blocks == 3
        assert cache.pool.in_use == 0

    def test_export_guards(self):
        config = toy_decoder()
        cache = SessionCache(config, block_size=2)
        cache.open_session("s", prompt_len=2)
        cache.export_prefix("s", "sys")
        with pytest.raises(ValueError, match="already shares"):
            cache.export_prefix("s", "again")
        cache.open_session("t", prompt_len=2)
        cache.swap_out("t")
        with pytest.raises(ValueError, match="swapped"):
            cache.export_prefix("t", "sys2")
        with pytest.raises(ValueError):
            cache.open_session("u", prompt_len=2)
            cache.export_prefix("u", "sys3", tokens=9)

    def test_adopt_aliases_without_charging(self):
        config = toy_decoder()
        donor = SessionCache(config, block_size=2)
        donor.open_session("d", prompt_len=4)
        chain = donor.export_prefix("d", "sys")
        cache = SessionCache(config, block_size=2)
        session = cache.adopt_prefix("fork", chain)
        assert cache.pool.in_use == 0  # shared pages are tier custody
        assert session.prompt_len == session.context_len == 4
        assert not session.has_room  # first append must open a new page
        k = np.ones(config.dim)
        cache.append_kv("fork", k, k)
        assert cache.pool.in_use == 1  # fresh private page, not the chain
        keys, values = session.kv_arrays(config.dim)
        np.testing.assert_array_equal(keys[:4], chain.keys)
        np.testing.assert_array_equal(values[:4], chain.values)
        assert not chain.keys.any() and not chain.values.any()  # never written
        assert not chain.keys.flags.writeable

    def test_adopt_rejects_open_session_and_page_mismatch(self):
        config = toy_decoder()
        donor = SessionCache(config, block_size=2)
        donor.open_session("d", prompt_len=2)
        chain = donor.export_prefix("d", "sys")
        cache = SessionCache(config, block_size=2)
        cache.open_session("busy", prompt_len=1)
        with pytest.raises(ValueError, match="already open"):
            cache.adopt_prefix("busy", chain)
        mismatched = SessionCache(config, block_size=4)
        with pytest.raises(ValueError, match="do not fit"):
            mismatched.adopt_prefix("fork", chain)

    def test_close_frees_only_private_tail(self):
        config = toy_decoder()
        donor = SessionCache(config, block_size=2)
        donor.open_session("d", prompt_len=4)
        chain = donor.export_prefix("d", "sys")
        cache = SessionCache(config, block_size=2)
        cache.adopt_prefix("fork", chain)
        k = np.ones(config.dim)
        cache.append_kv("fork", k, k)
        cache.close_session("fork")
        assert cache.pool.in_use == 0
        assert cache.pool.free_blocks == 1  # the private page only
        assert chain.tokens == 4 and not chain.keys.any()  # intact for the next fork

    def test_prefix_sessions_in_stats(self):
        config = toy_decoder()
        donor = SessionCache(config, block_size=2)
        donor.open_session("d", prompt_len=2)
        chain = donor.export_prefix("d", "sys")
        cache = SessionCache(config, block_size=2)
        cache.adopt_prefix("fork", chain)
        assert cache.prefix_sessions == 1
        assert cache.stats()["prefix_sessions"] == 1
        assert donor.prefix_sessions == 1
