"""Stateful fuzzing of :class:`~repro.cluster.store.SharedCacheTier`.

A hypothesis ``RuleBasedStateMachine`` drives prefix custody
(ensure / acquire / release / move / drop across three replicas) and
the fleet memo (put / get under a small byte budget) against a plain
model, checking after every rule that refcounts equal the sum of holder
counts, holder directories list exactly the replicas with live
sessions, the memo byte ledger equals its live entries and stays in
budget, and ``stats()`` agrees with all of it.
"""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.cluster import SharedCacheTier
from repro.serving.cache import MISS
from repro.workloads.llm import DecoderConfig

DECODER = DecoderConfig("tier-fsm", depth=1, dim=4, heads=1, mlp_ratio=1.0)
PREFIXES = ("a", "b")
REPLICAS = (0, 1, 2)
PAIRS = [(p, r) for p in PREFIXES for r in REPLICAS]
KEYS = ("x", "y", "z", 7, (1, "x"))
BUDGET = 96  # bytes: room for a few of the entries below
ENTRY_BYTES = (0, 8, 32, 64, 128)  # 128 never fits the budget


def holder_counts(tier):
    """(prefix id, replica id) -> count, read from the tier's ledger."""
    return {
        (prefix_id, replica_id): count
        for prefix_id, held in tier._holders.items()
        for replica_id, count in held.items()
    }


class TierMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tier = SharedCacheTier(memo_capacity_bytes=BUDGET)
        self.chains: dict[str, int] = {}  # prefix -> tokens
        self.holders: dict[str, dict[int, int]] = {}
        self.memo: OrderedDict = OrderedDict()  # key -> (fill, nbytes)
        self.hits = self.misses = self.evictions = 0

    def refs(self, prefix_id):
        return sum(self.holders.get(prefix_id, {}).values())

    def memo_nbytes(self):
        return sum(nbytes for _, nbytes in self.memo.values())

    def take_holder(self, prefix_id, replica):
        held = self.holders[prefix_id]
        held[replica] -= 1
        if held[replica] == 0:
            del held[replica]

    def pick_holder(self, data):
        """A (prefix, replica) pair: mostly a live holder, so custody
        moves often; otherwise any pair, to exercise the guards."""
        live = [(p, r) for p, held in sorted(self.holders.items()) for r in held]
        if live and data.draw(st.integers(0, 3)):
            return data.draw(st.sampled_from(sorted(live)))
        return data.draw(st.sampled_from(PAIRS))

    # -- prefix custody --------------------------------------------------
    @rule(prefix_id=st.sampled_from(PREFIXES), tokens=st.integers(1, 4))
    def ensure_prefix(self, prefix_id, tokens):
        known = self.chains.get(prefix_id)
        if known is not None and known != tokens:
            with pytest.raises(ValueError, match="already registered"):
                self.tier.ensure_prefix(
                    prefix_id, tokens, config=DECODER, block_size=2
                )
            return
        chain = self.tier.ensure_prefix(
            prefix_id, tokens, config=DECODER, block_size=2
        )
        assert chain.prefix_id == prefix_id and chain.tokens == tokens
        assert self.tier.prefix(prefix_id) is chain
        self.chains[prefix_id] = tokens

    @initialize()
    def register_one(self):
        self.ensure_prefix(PREFIXES[0], 2)

    @rule(data=st.data(), replica=st.sampled_from(REPLICAS))
    def acquire_prefix(self, data, replica):
        known = sorted(self.chains)
        if known and data.draw(st.integers(0, 3)):
            prefix_id = data.draw(st.sampled_from(known))
        else:
            prefix_id = data.draw(st.sampled_from(PREFIXES))
        if prefix_id not in self.chains:
            with pytest.raises(KeyError):
                self.tier.acquire_prefix(prefix_id, replica)
            return
        chain = self.tier.acquire_prefix(prefix_id, replica)
        assert chain is self.tier.prefix(prefix_id)
        held = self.holders.setdefault(prefix_id, {})
        held[replica] = held.get(replica, 0) + 1

    @rule(data=st.data())
    def release_prefix(self, data):
        prefix_id, replica = self.pick_holder(data)
        held = self.holders.get(prefix_id, {})
        if self.refs(prefix_id) == 0:
            with pytest.raises(ValueError, match="not referenced"):
                self.tier.release_prefix(prefix_id, replica)
            return
        if held.get(replica, 0) == 0:
            with pytest.raises(ValueError, match="holds no sessions"):
                self.tier.release_prefix(prefix_id, replica)
            return
        self.take_holder(prefix_id, replica)
        assert self.tier.release_prefix(prefix_id, replica) == self.refs(prefix_id)

    @rule(data=st.data(), dest=st.sampled_from(REPLICAS))
    def move_holder(self, data, dest):
        prefix_id, source = self.pick_holder(data)
        held = self.holders.get(prefix_id, {})
        if source != dest and held.get(source, 0) == 0:
            with pytest.raises(ValueError, match="holds no sessions"):
                self.tier.move_holder(prefix_id, source, dest)
            return
        self.tier.move_holder(prefix_id, source, dest)
        if source != dest:
            self.take_holder(prefix_id, source)
            held[dest] = held.get(dest, 0) + 1

    @rule(prefix_id=st.sampled_from(PREFIXES))
    def drop_prefix(self, prefix_id):
        if self.refs(prefix_id) > 0:
            with pytest.raises(ValueError, match="still referenced"):
                self.tier.drop_prefix(prefix_id)
            return
        assert self.tier.drop_prefix(prefix_id) is (prefix_id in self.chains)
        self.chains.pop(prefix_id, None)

    # -- fleet memo -----------------------------------------------------
    @rule(
        key=st.sampled_from(KEYS),
        nbytes=st.sampled_from(ENTRY_BYTES),
        fill=st.integers(0, 9),
    )
    def memo_put(self, key, nbytes, fill):
        self.tier.memo.put(key, np.full(nbytes // 8, float(fill)))
        if nbytes > BUDGET:
            return  # never admitted
        self.memo.pop(key, None)
        self.memo[key] = (fill, nbytes)
        while self.memo_nbytes() > BUDGET and len(self.memo) > 1:
            self.memo.popitem(last=False)
            self.evictions += 1

    @rule(key=st.sampled_from(KEYS))
    def memo_get(self, key):
        value = self.tier.memo.get(key)
        if key not in self.memo:
            assert value is MISS
            self.misses += 1
            return
        fill, nbytes = self.memo[key]
        self.memo.move_to_end(key)
        self.hits += 1
        assert value.nbytes == nbytes
        assert (value == fill).all()

    # -- invariants -----------------------------------------------------
    @invariant()
    def custody_ledger_agrees(self):
        counts = holder_counts(self.tier)
        assert all(count > 0 for count in counts.values())
        for prefix_id in PREFIXES:
            held = {r: c for (p, r), c in counts.items() if p == prefix_id}
            assert held == self.holders.get(prefix_id, {})
            assert self.tier.refcount(prefix_id) == sum(held.values())
            assert self.tier.replicas_holding(prefix_id) == sorted(held)
            chain = self.tier.prefix(prefix_id)
            assert (chain is not None) is (prefix_id in self.chains)

    @invariant()
    def memo_ledger_agrees(self):
        memo = self.tier.memo
        assert memo.memo_entries == len(self.memo)
        assert memo.memo_bytes == self.memo_nbytes() <= BUDGET

    @invariant()
    def stats_agree(self):
        stats = self.tier.stats()
        assert stats == {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "memo_entries": len(self.memo),
            "memo_bytes": self.memo_nbytes(),
            "prefixes": len(self.chains),
            "shared_bytes": sum(
                self.tier.prefix(p).nbytes for p in self.chains
            ),
            "referenced_prefixes": sum(
                1 for p in PREFIXES if self.refs(p) > 0
            ),
        }
        assert self.tier.prefix_ids == sorted(self.chains)


TierMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=25, deadline=None
)
TestTierMachine = TierMachine.TestCase
