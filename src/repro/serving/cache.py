"""The serving layer's two caches, one class per concern.

* :class:`MemoCache` — **prompt memoization**: repeated prompts
  (identical ``cache_key``) are served straight from an LRU store of
  previously computed activations, skipping the photonic core
  entirely.  A byte budget bounds the store (every value is charged,
  see :func:`memo_nbytes`); least-recently-used entries are evicted.
* :class:`SessionCache` — **paged KV sessions** of one decoder:
  decode-shaped workloads (:mod:`repro.workloads.llm`) keep
  per-request K/V state between steps.  Sessions store their per-step
  K/V vectors in fixed-size **pages** (:class:`KVBlock` of
  ``block_size`` tokens) drawn from a :class:`BlockPool` with a byte
  budget and a free list, the layout that lets the iteration
  scheduler share photonic GEMV batches across sessions of different
  lengths without re-padding.  Byte accounting is *defined* as
  :func:`repro.workloads.llm.kv_cache_bytes` at the session's
  **page-rounded** context length, so the per-session ledger, the
  pool budget, and the Sec. VI-B analysis can never disagree about
  cache footprints (``block_size=1`` degenerates to exact per-token
  accounting — the pre-paging behaviour).
"""

from __future__ import annotations

import copy
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.workloads.llm import DecoderConfig, kv_cache_bytes

#: Sentinel distinguishing "no entry" from a cached ``None``.
MISS = object()


def isolated(value: Any) -> Any:
    """A copy that shares no mutable state with ``value``, so memo
    entries never alias results (immutable values come back as is)."""
    return value.copy() if isinstance(value, np.ndarray) else copy.deepcopy(value)


def memo_nbytes(value: Any) -> int:
    """Bytes a memo entry is charged: an array's buffer; for anything
    else its ``sys.getsizeof``, plus, for lists, tuples, sets and dicts,
    the charge of every item (other objects are charged shallowly)."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    size = sys.getsizeof(value)
    if isinstance(value, dict):
        return size + sum(memo_nbytes(k) + memo_nbytes(v) for k, v in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        return size + sum(map(memo_nbytes, value))
    return size


def memoized_step_error(session_id: str) -> ValueError:
    """The refusal of a ``cache_key`` on a KV session's decode step: a
    memo hit would skip the step's K/V commit, so the session's context
    would silently fall behind its inputs."""
    return ValueError(
        f"a decode step of session {session_id!r} cannot carry a "
        "cache_key: a memo hit would skip its K/V commit"
    )


class KVBlock:
    """One fixed-capacity page of per-token K/V vectors.

    A block owns two ``[block_size, dim]`` arrays and a fill count;
    token slots are written append-only.  Blocks are reusable: the
    :class:`BlockPool` zeroes them on reallocation, so a recycled page
    never leaks a previous session's state.
    """

    __slots__ = ("keys", "values", "fill", "block_size")

    def __init__(self, block_size: int, dim: int) -> None:
        if block_size < 1 or dim < 1:
            raise ValueError(
                f"block_size and dim must be >= 1, got {block_size}, {dim}"
            )
        self.keys = np.zeros((block_size, dim))
        self.values = np.zeros((block_size, dim))
        self.fill = 0
        self.block_size = block_size

    @property
    def full(self) -> bool:
        return self.fill >= self.block_size

    def append(self, k: np.ndarray, v: np.ndarray) -> None:
        if self.full:
            raise ValueError("append to a full KV block")
        self.keys[self.fill] = k
        self.values[self.fill] = v
        self.fill += 1

    def fill_zeros(self, tokens: int) -> None:
        """Occupy ``tokens`` slots with zero-state (prompt) tokens."""
        if self.fill + tokens > self.block_size:
            raise ValueError(
                f"{tokens} zero tokens do not fit a block at fill {self.fill}"
            )
        self.fill += tokens  # slots are already zeroed

    def reset(self) -> None:
        self.keys[:] = 0.0
        self.values[:] = 0.0
        self.fill = 0


def zero_pages(tokens: int, allocate: Callable[[], KVBlock]) -> list[KVBlock]:
    """The pages of a ``tokens``-long zero-state prompt: zeroed blocks
    from ``allocate``, each filled before the next is drawn."""
    pages: list[KVBlock] = []
    while tokens > 0:
        block = allocate()
        block.fill_zeros(min(tokens, block.block_size))
        tokens -= block.fill
        pages.append(block)
    return pages


class BlockPool:
    """Budgeted allocator of :class:`KVBlock` pages with a free list.

    The pool charges one "in use" unit per resident block; its byte
    view is ``in_use * block_bytes`` where ``block_bytes`` is
    :func:`kv_cache_bytes` at ``block_size`` tokens — identical, per
    page, to the session ledger.  ``allocate`` itself never fails
    (a *soft* budget): the engine's iteration scheduler enforces the
    budget proactively via :meth:`can_fit`, preempting sessions before
    a batch would overrun.

    Swap and migration move custody without touching the free list:
    :meth:`discharge` releases the budget of blocks that leave the
    pool (preempted to host memory, or exported to another replica)
    while the arrays travel with their session; :meth:`charge` is the
    inverse on re-admission/adoption.
    """

    def __init__(
        self,
        config: DecoderConfig,
        *,
        block_size: int = 1,
        capacity_bytes: int | None = None,
        kv_bits: int = 8,
    ) -> None:
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if capacity_bytes is not None and capacity_bytes < 0:
            raise ValueError(
                f"capacity_bytes must be >= 0, got {capacity_bytes}"
            )
        self.config = config
        self.block_size = block_size
        self.kv_bits = kv_bits
        self.block_bytes = kv_cache_bytes(config, block_size, bits=kv_bits)
        self.capacity_bytes = capacity_bytes
        #: Whole blocks the byte budget can hold (None = unbounded).
        self.capacity_blocks = (
            None if capacity_bytes is None else capacity_bytes // self.block_bytes
        )
        self._free: list[KVBlock] = []
        self.in_use = 0
        self.allocations = 0
        self.reuses = 0

    def blocks_for(self, tokens: int) -> int:
        """Pages covering ``tokens`` (the page-rounding rule)."""
        if tokens < 0:
            raise ValueError(f"tokens must be >= 0, got {tokens}")
        return -(-tokens // self.block_size)

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    @property
    def in_use_bytes(self) -> int:
        return self.in_use * self.block_bytes

    def can_fit(self, blocks: int) -> bool:
        """Would charging ``blocks`` more stay within the budget?"""
        if self.capacity_blocks is None:
            return True
        return self.in_use + blocks <= self.capacity_blocks

    def allocate(self) -> KVBlock:
        """One zeroed block, reusing the free list when possible."""
        if self._free:
            block = self._free.pop()
            block.reset()
            self.reuses += 1
        else:
            block = KVBlock(self.block_size, self.config.dim)
            self.allocations += 1
        self.in_use += 1
        return block

    def release(self, blocks: "list[KVBlock]") -> None:
        """Return resident blocks to the free list (session closed)."""
        self.in_use -= len(blocks)
        self._free.extend(blocks)

    def recycle(self, blocks: "list[KVBlock]") -> None:
        """Free-list blocks that were *not* charged (a swapped session
        closing): reuse the arrays without double-crediting the budget."""
        self._free.extend(blocks)

    def discharge(self, blocks: int) -> None:
        """Blocks leave pool custody (swap-out / migration export)."""
        if blocks > self.in_use:
            raise ValueError(
                f"cannot discharge {blocks} blocks with {self.in_use} in use"
            )
        self.in_use -= blocks

    def charge(self, blocks: int) -> None:
        """Blocks enter pool custody (swap-in / migration adoption).

        Never fails: adoption (failover, migration) must not lose KV
        state, so an over-budget charge is allowed and left for the
        scheduler to resolve by preemption.
        """
        self.in_use += blocks

    def stats(self) -> dict:
        return {
            "block_size": self.block_size,
            "block_bytes": self.block_bytes,
            "capacity_bytes": self.capacity_bytes,
            "capacity_blocks": self.capacity_blocks,
            "in_use_blocks": self.in_use,
            "in_use_bytes": self.in_use_bytes,
            "free_blocks": self.free_blocks,
            "allocations": self.allocations,
            "reuses": self.reuses,
        }


@dataclass(frozen=True)
class PrefixChain:
    """An immutable chain of leading KV pages shared across sessions.

    The chain owns its blocks (custody sits with the shared tier, not
    any one replica's :class:`BlockPool`), and every adopter aliases
    the same arrays read-only: ``Session.has_room`` never points an
    append at a shared page, so the first private token after the fork
    lands on a fresh pool page (copy-on-write at the fork boundary).
    ``nbytes`` is :func:`kv_cache_bytes` at the chain's page-rounded
    length — the fleet charges it **once** no matter how many sessions
    fork from it.
    """

    prefix_id: str
    tokens: int
    blocks: tuple[KVBlock, ...]
    block_size: int
    nbytes: int

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


@dataclass
class Session:
    """Per-request decode state (one generation stream), paged.

    K/V vectors live in ``blocks``; the leading ``prompt_len`` slots
    hold materialized zero-state prompt tokens, so the page count
    always equals ``blocks_for(context_len)``.  ``swapped`` marks a
    preempted session whose blocks currently live outside the pool
    budget (the host-memory swap of the iteration scheduler) — the
    arrays, and therefore the bits, are untouched.

    ``shared_blocks`` leading blocks alias a :class:`PrefixChain`
    owned by the shared cache tier: they are read-only here, excluded
    from this cache's pool budget and byte ledger (the tier counts
    them once fleet-wide), and never returned to the pool free list.
    """

    session_id: str
    prompt_len: int = 0
    blocks: list[KVBlock] = field(default_factory=list)
    swapped: bool = False
    shared_blocks: int = 0
    prefix_id: str | None = None
    #: ``(pages covered, keys, values)`` of :meth:`_frozen_kv`.
    _kv_memo: tuple[int, np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def private_blocks(self) -> int:
        """Pages owned by this session (pool custody when resident)."""
        return len(self.blocks) - self.shared_blocks

    @property
    def generated(self) -> int:
        """Tokens appended by decode steps (excludes the prompt)."""
        return sum(block.fill for block in self.blocks) - self.prompt_len

    @property
    def context_len(self) -> int:
        """Tokens of attendable context (prompt + generated)."""
        return self.prompt_len + self.generated

    def _generated(self, attr: str) -> list[np.ndarray]:
        """Per-slot views of one of ``keys``/``values`` past the prompt,
        in step order: one walk over the pages."""
        rows: list[np.ndarray] = []
        skip = self.prompt_len
        for block in self.blocks:
            if skip >= block.fill:
                skip -= block.fill
                continue
            page = getattr(block, attr)
            rows.extend(page[slot] for slot in range(skip, block.fill))
            skip = 0
        return rows

    @property
    def keys(self) -> list[np.ndarray]:
        """Generated-token K vectors, in step order (views into pages)."""
        return self._generated("keys")

    @property
    def values(self) -> list[np.ndarray]:
        """Generated-token V vectors, in step order (views into pages)."""
        return self._generated("values")

    def _frozen_kv(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """Every page but the last, concatenated.

        Only the last page is ever appended to: earlier pages are full
        or shared read-only prefix pages, and swap and migration move
        this object with its pages.  So the concatenation is memoized
        here and extended once per page that stops being the last.  A
        shorter block list (a closed session) rebuilds it.
        """
        frozen = max(len(self.blocks) - 1, 0)
        memo = self._kv_memo
        if memo is None or memo[0] > frozen:
            memo = (0, np.zeros((0, dim)), np.zeros((0, dim)))
        covered, keys, values = memo
        if covered < frozen:
            pages = self.blocks[covered:frozen]
            keys = np.concatenate([keys] + [b.keys[: b.fill] for b in pages])
            values = np.concatenate([values] + [b.values[: b.fill] for b in pages])
            memo = (frozen, keys, values)
        self._kv_memo = memo
        return keys, values

    def kv_arrays(
        self, dim: int, extra: Sequence[tuple[np.ndarray, np.ndarray]] = ()
    ) -> tuple[np.ndarray, np.ndarray]:
        """``([context, dim], [context, dim])`` K/V for attention.

        ``extra`` appends uncommitted ``(k, v)`` vector pairs (a decode
        batch's pending steps) after the committed context, in the same
        single concatenation of at most the frozen-page memo, the last
        page and the pending pairs.  Prompt tokens are zero-state
        pages, so the result is bit-identical to the flat-list layout
        paging replaced, and it is always a fresh array.
        """
        keys, values = self._frozen_kv(dim)
        parts_k, parts_v = [keys], [values]
        if self.blocks:
            last = self.blocks[-1]
            parts_k.append(last.keys[: last.fill])
            parts_v.append(last.values[: last.fill])
        for key, value in extra:
            parts_k.append(key[None])
            parts_v.append(value[None])
        return np.concatenate(parts_k), np.concatenate(parts_v)

    @property
    def has_room(self) -> bool:
        """Does the last *private* page have a free token slot?

        Shared prefix pages are never appended to — a session whose
        block list ends at the shared boundary reports no room, so the
        next ``append_kv`` allocates a fresh private page (the
        copy-on-write fork point).
        """
        blocks = self.blocks
        return len(blocks) > self.shared_blocks and not blocks[-1].full


class MemoCache:
    """Byte-budgeted LRU activation memo keyed by ``cache_key``.

    Args:
        capacity_bytes: LRU budget of the store (``None`` = unbounded).
            Entries larger than the whole budget are not admitted.
    """

    def __init__(self, capacity_bytes: int | None = None) -> None:
        if capacity_bytes is not None and capacity_bytes < 0:
            raise ValueError(f"capacity_bytes must be >= 0, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._memo: OrderedDict[Any, tuple[Any, int]] = OrderedDict()
        self._memo_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # get() runs on submitter threads while put() runs on the
        # worker; the LRU order, byte ledger, and counters share a lock.
        self._lock = threading.Lock()

    def get(self, key: Any) -> Any:
        """Cached value for ``key`` or the :data:`MISS` sentinel."""
        with self._lock:
            entry = self._memo.get(key, MISS)
            if entry is MISS:
                self.misses += 1
                return MISS
            self._memo.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key: Any, value: Any) -> None:
        """Store ``value``, charged :func:`memo_nbytes`; evict LRU
        entries past the byte budget."""
        nbytes = memo_nbytes(value)
        if self.capacity_bytes is not None and nbytes > self.capacity_bytes:
            return  # would evict the whole store and still not fit
        with self._lock:
            if key in self._memo:
                self._memo_bytes -= self._memo.pop(key)[1]
            self._memo[key] = (value, nbytes)
            self._memo_bytes += nbytes
            if self.capacity_bytes is not None:
                while self._memo_bytes > self.capacity_bytes and len(self._memo) > 1:
                    _, (_, evicted_bytes) = self._memo.popitem(last=False)
                    self._memo_bytes -= evicted_bytes
                    self.evictions += 1

    @property
    def memo_entries(self) -> int:
        with self._lock:
            return len(self._memo)

    @property
    def memo_bytes(self) -> int:
        with self._lock:
            return self._memo_bytes

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "memo_entries": self.memo_entries,
            "memo_bytes": self.memo_bytes,
        }


class SessionCache:
    """Paged KV-session ledger of one decoder.

    Args:
        config: decoder architecture the pages and the byte accounting
            are sized for.
        kv_bits: K/V element precision used by the byte accounting
            (the paper's decode analysis defaults to int8).
        block_size: tokens per KV page.  1 (the default) makes paging
            degenerate — byte accounting is exactly the pre-paging
            per-token ledger; larger pages round every session's
            footprint up to whole blocks.
        kv_capacity_bytes: byte budget of the :class:`BlockPool`
            (``None`` = unbounded).  The budget is enforced by the
            engine's iteration scheduler (preemption), not by
            ``append_kv``.
    """

    def __init__(
        self,
        config: DecoderConfig,
        *,
        kv_bits: int = 8,
        block_size: int = 1,
        kv_capacity_bytes: int | None = None,
    ) -> None:
        self.config = config
        self.kv_bits = kv_bits
        self.block_size = block_size
        self.pool = BlockPool(
            config,
            block_size=block_size,
            capacity_bytes=kv_capacity_bytes,
            kv_bits=kv_bits,
        )
        self._sessions: dict[str, Session] = {}
        # Scheduler, cluster and worker threads share the session map
        # and the pool (reentrant: stats() reads the ledger through it).
        self._lock = threading.RLock()

    def open_session(self, session_id: str, prompt_len: int = 0) -> Session:
        if prompt_len < 0:
            raise ValueError(f"prompt_len must be >= 0, got {prompt_len}")
        with self._lock:
            if session_id in self._sessions:
                raise ValueError(f"session {session_id!r} already open")
            # Materialize the (zero-state) prompt into pages so the
            # resident block count always equals the page-rounded
            # ledger — pool budget and session_bytes cannot diverge.
            session = Session(
                session_id=session_id,
                prompt_len=prompt_len,
                blocks=zero_pages(prompt_len, self.pool.allocate),
            )
            self._sessions[session_id] = session
            return session

    def session(self, session_id: str) -> Session:
        with self._lock:
            try:
                return self._sessions[session_id]
            except KeyError:
                raise KeyError(f"no open session {session_id!r}") from None

    def has_session(self, session_id: str) -> bool:
        with self._lock:
            return session_id in self._sessions

    def find_session(self, session_id: str) -> Session | None:
        """The open session ``session_id``, or ``None`` (one lookup)."""
        with self._lock:
            return self._sessions.get(session_id)

    def append_kv(self, session_id: str, k: np.ndarray, v: np.ndarray) -> int:
        """Append one decode step's K/V; returns the new context length.

        Allocates a fresh page from the pool (zeroed free-list reuse)
        when the session's last block is full.
        """
        with self._lock:
            session = self.session(session_id)
            self._append(session, k, v)
            return session.context_len

    def commit_kv(
        self, staged: Mapping[str, Sequence[tuple[np.ndarray, np.ndarray]]]
    ) -> None:
        """Append a decode batch's ``(k, v)`` pairs per session, in order,
        under one lock; absent sessions are opened (empty prompt)."""
        with self._lock:
            for session_id, pairs in staged.items():
                session = self._sessions.get(session_id)
                if session is None:
                    session = self.open_session(session_id)
                for k, v in pairs:
                    self._append(session, k, v)

    def _append(self, session: Session, k: np.ndarray, v: np.ndarray) -> None:
        """The one append body (caller holds the lock)."""
        k = np.asarray(k, dtype=float)
        v = np.asarray(v, dtype=float)
        if not session.has_room:
            session.blocks.append(self.pool.allocate())
        session.blocks[-1].append(k, v)

    def context_len(self, session_id: str) -> int:
        return self.session(session_id).context_len

    def session_blocks(self, session_id: str) -> int:
        """Pages the session's page-rounded context occupies."""
        session = self.session(session_id)
        return -(-session.context_len // self.block_size)

    def session_bytes(self, session_id: str) -> int:
        """Page-rounded KV footprint of one session's **private** pages
        — by definition ``kv_cache_bytes(config, blocks * block_size,
        kv_bits)`` over the pages this session owns, so the ledger, the
        :class:`BlockPool` budget, and the Sec. VI-B analysis agree
        page for page.  Shared prefix pages are excluded: the tier
        charges them once fleet-wide (:meth:`shared_session_bytes`
        reports this session's view of that chain)."""
        session = self.session(session_id)
        private = session.private_blocks
        if private == 0:
            return 0
        return kv_cache_bytes(
            self.config, private * self.block_size, bits=self.kv_bits
        )

    def shared_session_bytes(self, session_id: str) -> int:
        """Bytes of the shared prefix pages this session aliases
        (page-rounded).  Summing this across sessions multiple-counts
        the chain — fleet accounting uses the tier's single charge."""
        session = self.session(session_id)
        if session.shared_blocks == 0:
            return 0
        return kv_cache_bytes(
            self.config,
            session.shared_blocks * self.block_size,
            bits=self.kv_bits,
        )

    def total_kv_bytes(self) -> int:
        with self._lock:
            return sum(self.session_bytes(sid) for sid in self._sessions)

    def resident_kv_bytes(self) -> int:
        """Page-rounded bytes of the sessions charged to the pool
        (excludes swapped-out sessions) — equals ``pool.in_use_bytes``
        whenever every resident page was pool-allocated."""
        with self._lock:
            return sum(
                self.session_bytes(sid)
                for sid, session in self._sessions.items()
                if not session.swapped
            )

    # -- preemption (iteration-scheduler swap) -------------------------------
    def swap_out(self, session_id: str) -> int:
        """Preempt: release the session's pool budget, keep its bits.

        The page arrays stay attached to the session (modelling a swap
        to host memory), so a later :meth:`swap_in` resumes with
        bit-identical state.  Returns the blocks discharged.
        """
        with self._lock:
            session = self.session(session_id)
            if session.swapped:
                return 0
            session.swapped = True
            self.pool.discharge(session.private_blocks)
            return session.private_blocks

    def swap_in(self, session_id: str) -> int:
        """Re-admit a preempted session's pages into the pool budget."""
        with self._lock:
            session = self.session(session_id)
            if not session.swapped:
                return 0
            session.swapped = False
            self.pool.charge(session.private_blocks)
            return session.private_blocks

    def pop_session(self, session_id: str) -> Session:
        """Remove and return a session wholesale (KV-migration export).

        The cluster layer moves a decode session between replicas by
        popping it from the old owner's cache and
        :meth:`adopt_session`-ing it into the new one — the **block
        list travels with the** :class:`Session` object (and its pool
        budget is discharged here), so a migrated session's functional
        state, page layout, and therefore its bits are unchanged.

        Custody follows the one rule every mover shares: resident
        **private** pages are pool-charged; swapped sessions carry no
        charge (the ``swapped`` flag travels with the session so the
        adopting pool is not double-charged); shared prefix pages
        always belong to the tier, never the pool.
        """
        with self._lock:
            session = self.session(session_id)
            del self._sessions[session_id]
            if not session.swapped:
                self.pool.discharge(session.private_blocks)
            return session

    def adopt_session(self, session: Session) -> Session:
        """Insert a session exported by another cache's :meth:`pop_session`.

        Charges this cache's pool for the adopted pages (swapped
        sessions stay uncharged until the scheduler swaps them in).
        Adoption never fails on budget: failover must not lose KV
        state, so an over-budget fleet resolves by later preemption.
        """
        with self._lock:
            if session.session_id in self._sessions:
                raise ValueError(
                    f"session {session.session_id!r} already open here"
                )
            self._sessions[session.session_id] = session
            if not session.swapped:
                self.pool.charge(session.private_blocks)
            return session

    # -- prefix sharing (shared cache tier) ----------------------------------
    def export_prefix(
        self, session_id: str, prefix_id: str, tokens: int | None = None
    ) -> PrefixChain:
        """Freeze a session's leading pages into a shareable chain.

        The first ``tokens`` of context (default: the whole context)
        become a :class:`PrefixChain`: custody of those pages transfers
        out of this cache's :class:`BlockPool` (discharged here, the
        same custody rule :meth:`pop_session` applies to migration) and
        the session keeps aliasing them read-only via
        ``shared_blocks``.  The boundary must be page-aligned or cover
        the whole context, so the chain never splits a page.
        """
        with self._lock:
            session = self.session(session_id)
            if session.shared_blocks:
                raise ValueError(
                    f"session {session_id!r} already shares prefix "
                    f"{session.prefix_id!r}"
                )
            if session.swapped:
                raise ValueError(
                    "cannot export a prefix from a swapped-out session"
                )
            if tokens is None:
                tokens = session.context_len
            if tokens < 1 or tokens > session.context_len:
                raise ValueError(
                    f"prefix of {tokens} tokens outside context "
                    f"{session.context_len}"
                )
            if tokens != session.context_len and tokens % self.block_size:
                raise ValueError(
                    f"prefix boundary {tokens} must be page-aligned "
                    f"(block_size={self.block_size}) or the whole context"
                )
            n_blocks = -(-tokens // self.block_size)
            chain = PrefixChain(
                prefix_id=prefix_id,
                tokens=tokens,
                blocks=tuple(session.blocks[:n_blocks]),
                block_size=self.block_size,
                nbytes=kv_cache_bytes(
                    self.config, n_blocks * self.block_size, bits=self.kv_bits
                ),
            )
            session.shared_blocks = n_blocks
            session.prefix_id = prefix_id
            self.pool.discharge(n_blocks)
            return chain

    def adopt_prefix(self, session_id: str, chain: PrefixChain) -> Session:
        """Open a session whose prompt is a shared :class:`PrefixChain`.

        The new session aliases the chain's pages (its prompt is the
        chain's ``tokens`` materialized slots)
        without charging this cache's pool — the tier already accounts
        for the chain once fleet-wide.  The first decode step allocates
        a fresh private page (see :attr:`Session.has_room`), so
        adopters never write into shared state.
        """
        with self._lock:
            if session_id in self._sessions:
                raise ValueError(f"session {session_id!r} already open")
            if chain.block_size != self.block_size:
                raise ValueError(
                    f"prefix pages of {chain.block_size} tokens do not fit a "
                    f"cache paged at {self.block_size}"
                )
            session = Session(
                session_id=session_id,
                prompt_len=chain.tokens,
                blocks=list(chain.blocks),
                shared_blocks=len(chain.blocks),
                prefix_id=chain.prefix_id,
            )
            self._sessions[session_id] = session
            return session

    def resident_ids(self) -> list[str]:
        """Ids of the open sessions not swapped out (preemption candidates)."""
        with self._lock:
            return [sid for sid, s in self._sessions.items() if not s.swapped]

    def close_session(self, session_id: str) -> int:
        """Drop a session; returns the bytes it was holding.

        Resident **private** pages go back on the pool free list for
        reuse; swapped pages are recycled without a budget credit (they
        were discharged at preemption).  Shared prefix pages are simply
        dropped from this cache — the tier owns them and other sessions
        may still be reading them; releasing the tier's refcount is the
        cluster's job.
        """
        with self._lock:
            freed = self.session_bytes(session_id)
            session = self._sessions.pop(session_id)
            private = session.blocks[session.shared_blocks :]
            if session.swapped:
                self.pool.recycle(private)
            else:
                self.pool.release(private)
            session.blocks = []
            return freed

    @property
    def open_sessions(self) -> int:
        with self._lock:
            return len(self._sessions)

    @property
    def swapped_sessions(self) -> int:
        with self._lock:
            return sum(1 for s in self._sessions.values() if s.swapped)

    @property
    def prefix_sessions(self) -> int:
        """Open sessions aliasing a shared prefix chain."""
        with self._lock:
            return sum(1 for s in self._sessions.values() if s.shared_blocks)

    # -- observability -------------------------------------------------------
    def stats(self) -> dict:
        return {
            "open_sessions": self.open_sessions,
            "swapped_sessions": self.swapped_sessions,
            "prefix_sessions": self.prefix_sessions,
            "block_size": self.block_size,
            "total_kv_bytes": self.total_kv_bytes(),
            "resident_kv_bytes": self.resident_kv_bytes(),
            "pool": self.pool.stats(),
        }
