"""Cluster-wide shared cache tier: a fleet memo + refcounted prefix chains.

Per-replica :class:`~repro.serving.cache.MemoCache` memos forfeit
fleet hit rate under any non-sticky routing policy — a prompt computed
on replica 0 is recomputed when the router sends its repeat to replica
1.  :class:`SharedCacheTier` hoists both cache concerns above the
replica set:

* fleet-wide **prompt memoization** — ``tier.memo`` is a
  :class:`~repro.serving.cache.MemoCache` (the same LRU byte budget
  and key semantics as the per-replica memo), so hits survive any
  routing policy;
* reference-counted **common-prefix KV chains**
  (:class:`~repro.serving.cache.PrefixChain`) that decode sessions
  fork from instead of re-materializing the same system prompt per
  replica.  Chains are owned by the tier (never any replica's
  :class:`~repro.serving.cache.BlockPool`), charged once fleet-wide,
  and guarded by per-replica holder counts so routing can prefer
  replicas already holding a session's prefix.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.serving.cache import MemoCache, PrefixChain
from repro.workloads.llm import DecoderConfig, kv_cache_bytes


class SharedCacheTier:
    """Fleet-wide prompt memo + refcounted prefix chains.

    Memoization: ``memo`` is a :class:`~repro.serving.cache.MemoCache`
    bounded by ``memo_capacity_bytes``; like the engine with its own
    memo, callers store and hand out isolated copies.

    Prefix chains: :meth:`ensure_prefix` builds the zero-state KV rows
    of a shared system prompt once; sessions adopt them via
    :meth:`~repro.serving.cache.SessionCache.adopt_prefix`.  The tier
    tracks per-replica holder counts (the longest-prefix placement
    signal of the router's ``cache_aware`` policy); a chain's refcount
    is their sum.  A chain stays cached at refcount zero until
    :meth:`drop_prefix` evicts it.
    """

    def __init__(self, *, memo_capacity_bytes: int | None = None) -> None:
        self.memo = MemoCache(memo_capacity_bytes)
        # One lock guards the two custody maps: prefix id -> chain, and
        # -> {replica id: holder count} (replicas holding none are
        # absent; so is an unreferenced prefix).
        self._lock = threading.Lock()
        self._chains: dict[str, PrefixChain] = {}
        self._holders: dict[str, dict[int, int]] = {}

    def ensure_prefix(
        self,
        prefix_id: str,
        tokens: int,
        *,
        config: DecoderConfig,
        block_size: int = 1,
        kv_bits: int = 8,
    ) -> PrefixChain:
        """The chain for ``prefix_id``, building zero-state rows once.

        Prompt tokens are zero-state K/V (the serving layer's prompt
        model), so a chain can be materialized directly from its token
        count; idempotent for matching ``tokens``, an error otherwise.
        """
        if tokens < 1:
            raise ValueError(f"tokens must be >= 1, got {tokens}")
        with self._lock:
            existing = self._chains.get(prefix_id)
            if existing is not None:
                if existing.tokens != tokens:
                    raise ValueError(
                        f"prefix {prefix_id!r} already registered with "
                        f"{existing.tokens} tokens, not {tokens}"
                    )
                return existing
            chain = self._chains[prefix_id] = PrefixChain(
                prefix_id=prefix_id,
                keys=np.zeros((tokens, config.dim)),
                values=np.zeros((tokens, config.dim)),
                block_size=block_size,
                nbytes=kv_cache_bytes(
                    config, -(-tokens // block_size) * block_size, bits=kv_bits
                ),
            )
            return chain

    def prefix(self, prefix_id: str) -> PrefixChain | None:
        with self._lock:
            return self._chains.get(prefix_id)

    def refcount(self, prefix_id: str) -> int:
        with self._lock:
            return self._refcount(prefix_id)

    def _refcount(self, prefix_id: str) -> int:
        return sum(self._holders.get(prefix_id, {}).values())

    def _add_holder(self, prefix_id: str, replica_id: int) -> None:
        held = self._holders.setdefault(prefix_id, {})
        held[replica_id] = held.get(replica_id, 0) + 1

    def _take_holder(self, prefix_id: str, replica_id: int) -> None:
        held = self._holders.get(prefix_id, {})
        count = held.get(replica_id, 0)
        if count < 1:
            raise ValueError(
                f"replica {replica_id} holds no sessions on prefix "
                f"{prefix_id!r}"
            )
        if count > 1:
            held[replica_id] = count - 1
        elif len(held) > 1:
            del held[replica_id]
        else:
            del self._holders[prefix_id]

    def acquire_prefix(self, prefix_id: str, replica_id: int) -> PrefixChain:
        """One more session on ``replica_id`` forks from the chain; a
        referenced chain cannot be dropped."""
        with self._lock:
            chain = self._chains.get(prefix_id)
            if chain is None:
                raise KeyError(f"no registered prefix {prefix_id!r}")
            self._add_holder(prefix_id, replica_id)
            return chain

    def release_prefix(self, prefix_id: str, replica_id: int) -> int:
        """A forked session closed; returns the remaining refcount."""
        with self._lock:
            if prefix_id not in self._holders:
                raise ValueError(f"prefix {prefix_id!r} is not referenced")
            self._take_holder(prefix_id, replica_id)
            return self._refcount(prefix_id)

    def move_holder(
        self, prefix_id: str, from_replica: int, to_replica: int
    ) -> None:
        """Re-home one forked session's holder count (migration/failover)."""
        if from_replica == to_replica:
            return
        with self._lock:
            self._take_holder(prefix_id, from_replica)
            self._add_holder(prefix_id, to_replica)

    def replicas_holding(self, prefix_id: str) -> list[int]:
        """Replica ids with live sessions forked from the chain, sorted."""
        with self._lock:
            return sorted(self._holders.get(prefix_id, ()))

    def drop_prefix(self, prefix_id: str) -> bool:
        """Explicitly evict an *unreferenced* chain."""
        with self._lock:
            if prefix_id in self._holders:
                raise ValueError(
                    f"prefix {prefix_id!r} still referenced; cannot drop"
                )
            return self._chains.pop(prefix_id, None) is not None

    @property
    def prefix_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._chains)

    @property
    def shared_bytes(self) -> int:
        """Fleet bytes of live prefix chains — each charged **once**,
        however many sessions fork from it."""
        with self._lock:
            return sum(chain.nbytes for chain in self._chains.values())

    # -- observability --------------------------------------------------------
    def stats(self) -> dict:
        memo = self.memo.stats()
        with self._lock:
            prefixes = len(self._chains)
            shared_bytes = sum(chain.nbytes for chain in self._chains.values())
            referenced = len(self._holders)
        return {
            **memo,
            "prefixes": prefixes,
            "shared_bytes": shared_bytes,
            "referenced_prefixes": referenced,
        }
