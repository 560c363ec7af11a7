"""The serving layer's two caches, one class per concern.

* :class:`MemoCache` — **prompt memoization**: repeated prompts
  (identical ``cache_key``) are served straight from an LRU store of
  previously computed activations, skipping the photonic core
  entirely.  A byte budget bounds the store (every value is charged,
  see :func:`memo_nbytes`); least-recently-used entries are evicted.
* :class:`SessionCache` — **paged KV sessions** of one decoder:
  decode-shaped workloads (:mod:`repro.workloads.llm`) keep
  per-request K/V state between steps.  Each session keeps its K/V
  rows in one pair of contiguous buffers (what attention reads); its
  footprint is counted in fixed-size **pages** of ``block_size``
  tokens, charged to a :class:`BlockPool` with a byte budget and a
  free list, the model that lets the iteration scheduler share
  photonic GEMV batches across sessions of different lengths and
  preempt by the page.  Byte accounting is *defined* as
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
from dataclasses import dataclass
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


class BlockPool:
    """Budgeted page ledger with a free list, in integer counts.

    Pages hold no arrays (a session's rows live in its own buffers,
    see :class:`Session`); the pool models the budget.  It charges one
    "in use" unit per resident page; its byte view is
    ``in_use * block_bytes`` where ``block_bytes`` is
    :func:`kv_cache_bytes` at ``block_size`` tokens — identical, per
    page, to the session ledger.  ``allocate`` itself never fails
    (a *soft* budget): the engine's iteration scheduler enforces the
    budget proactively via :meth:`can_fit`, preempting sessions before
    a batch would overrun.

    Swap and migration move custody without touching the free list:
    :meth:`discharge` releases the budget of pages that leave the
    pool (preempted to host memory, or exported to another replica)
    while the rows travel with their session; :meth:`charge` is the
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
        self.free_blocks = 0
        self.in_use = 0
        self.allocations = 0
        self.reuses = 0

    def blocks_for(self, tokens: int) -> int:
        """Pages covering ``tokens`` (the page-rounding rule)."""
        if tokens < 0:
            raise ValueError(f"tokens must be >= 0, got {tokens}")
        return -(-tokens // self.block_size)

    @property
    def in_use_bytes(self) -> int:
        return self.in_use * self.block_bytes

    def can_fit(self, blocks: int) -> bool:
        """Would charging ``blocks`` more stay within the budget?"""
        if self.capacity_blocks is None:
            return True
        return self.in_use + blocks <= self.capacity_blocks

    def allocate(self, blocks: int = 1) -> None:
        """Charge ``blocks`` pages, reusing free-list pages first."""
        reused = min(blocks, self.free_blocks)
        self.free_blocks -= reused
        self.reuses += reused
        self.allocations += blocks - reused
        self.in_use += blocks

    def release(self, blocks: int) -> None:
        """Return resident pages to the free list (session closed)."""
        self.in_use -= blocks
        self.free_blocks += blocks

    def recycle(self, blocks: int) -> None:
        """Free-list pages that were *not* charged (a swapped session
        closing): reuse them without double-crediting the budget."""
        self.free_blocks += blocks

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


@dataclass(frozen=True, eq=False)
class PrefixChain:
    """The leading K/V rows of a prompt, shared across sessions.

    ``keys`` and ``values`` are read-only ``[tokens, dim]`` arrays.
    Custody sits with the shared tier, not any one replica's
    :class:`BlockPool`: every adopter copies the rows into its own
    buffers and counts the chain's pages as shared, and
    ``Session.has_room`` never points an append at the chain's last
    page, so the first private token after the fork opens a fresh
    pool page (copy-on-write at the fork boundary).  ``nbytes`` is
    :func:`kv_cache_bytes` at the chain's page-rounded length — the
    fleet charges it **once** no matter how many sessions fork from
    it.
    """

    prefix_id: str
    keys: np.ndarray
    values: np.ndarray
    block_size: int
    nbytes: int

    def __post_init__(self) -> None:
        self.keys.setflags(write=False)
        self.values.setflags(write=False)

    @property
    def tokens(self) -> int:
        return len(self.keys)

    @property
    def n_blocks(self) -> int:
        return -(-self.tokens // self.block_size)


class Session:
    """Per-request decode state (one generation stream), paged.

    The K/V rows live in two contiguous ``[capacity, dim]`` buffers,
    ``context_len`` of them valid: the leading ``prompt_len`` hold
    zero-state prompt tokens (an adopted chain's rows for a fork),
    then one row per decode step.  The capacity past them takes a
    decode batch's pending rows for one read; it grows by doubling.

    Pages are counts, not storage.  The leading ``shared_tokens`` rows
    come from a :class:`PrefixChain` owned by the shared cache tier:
    their ``shared_blocks`` pages are excluded from this cache's pool
    budget and byte ledger (the tier counts them once fleet-wide), and
    no append ever lands on their last page.  The rest are
    ``private_blocks`` pool pages of ``block_size`` tokens.
    ``swapped`` marks a preempted session whose pages currently sit
    outside the pool budget (the host-memory swap of the iteration
    scheduler) — the rows, and therefore the bits, are untouched.
    """

    __slots__ = (
        "session_id",
        "prompt_len",
        "block_size",
        "context_len",
        "shared_tokens",
        "prefix_id",
        "swapped",
        "_keys",
        "_values",
    )

    def __init__(
        self,
        session_id: str,
        dim: int,
        block_size: int,
        prompt_len: int = 0,
        prefix: PrefixChain | None = None,
    ) -> None:
        if prefix is not None:
            prompt_len = prefix.tokens
        self.session_id = session_id
        self.prompt_len = prompt_len
        self.block_size = block_size
        #: Rows of attendable context (prompt + generated).
        self.context_len = prompt_len
        self.shared_tokens = 0
        self.prefix_id: str | None = None
        self.swapped = False
        # The prompt rows, and one spare row for a pending pair.
        self._keys = np.zeros((prompt_len + 1, dim))
        self._values = np.zeros((prompt_len + 1, dim))
        if prefix is not None:
            self._keys[:prompt_len] = prefix.keys
            self._values[:prompt_len] = prefix.values
            self.shared_tokens = prompt_len
            self.prefix_id = prefix.prefix_id

    @property
    def generated(self) -> int:
        """Tokens appended by decode steps (excludes the prompt)."""
        return self.context_len - self.prompt_len

    @property
    def shared_blocks(self) -> int:
        """Leading pages of the shared prefix chain (tier custody)."""
        return -(-self.shared_tokens // self.block_size)

    @property
    def private_blocks(self) -> int:
        """Pages owned by this session (pool custody when resident)."""
        return -(-(self.context_len - self.shared_tokens) // self.block_size)

    @property
    def has_room(self) -> bool:
        """Does the last *private* page have a free token slot?

        Shared prefix pages are never appended to — a session whose
        context ends at the shared boundary reports no room, so the
        next append opens a fresh private page (the copy-on-write fork
        point).
        """
        return (self.context_len - self.shared_tokens) % self.block_size != 0

    def _reserve(self, rows: int) -> None:
        """Room for ``rows`` rows, keeping the valid ones (doubling)."""
        if rows <= len(self._keys):
            return
        capacity = max(rows, 2 * len(self._keys))
        valid = self.context_len
        for name in ("_keys", "_values"):
            old = getattr(self, name)
            new = np.empty((capacity, old.shape[1]))
            new[:valid] = old[:valid]
            setattr(self, name, new)

    def append(
        self, key: np.ndarray, value: np.ndarray, allocate: Callable[[], None]
    ) -> None:
        """Write one step's K/V row, calling ``allocate`` first when the
        row opens a private page.  The one append body (the cache holds
        its lock); the row writes cast array-likes to float."""
        if not self.has_room:
            allocate()
        rows = self.context_len
        self._reserve(rows + 2)  # the row, and one pending row
        self._keys[rows] = key
        self._values[rows] = value
        self.context_len = rows + 1

    def kv_view(
        self, extra: Sequence[tuple[np.ndarray, np.ndarray]] = ()
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`kv_arrays` without the copy, for one attention read.

        The result views the session's buffers, with the ``extra``
        pairs written into their spare rows.  It is valid until the
        session's next read or append.
        """
        rows = self.context_len
        if extra:
            self._reserve(rows + len(extra))
            keys, values = self._keys, self._values
            for key, value in extra:
                keys[rows] = key
                values[rows] = value
                rows += 1
        return self._keys[:rows], self._values[:rows]

    def kv_arrays(
        self, dim: int, extra: Sequence[tuple[np.ndarray, np.ndarray]] = ()
    ) -> tuple[np.ndarray, np.ndarray]:
        """``([context, dim], [context, dim])`` K/V for attention.

        ``extra`` appends uncommitted ``(k, v)`` vector pairs (a decode
        batch's pending steps) after the committed context.  Prompt
        tokens are zero-state rows, so the result is bit-identical to
        the flat-list layout paging replaced, and it is always a fresh
        array (a copy of :meth:`kv_view`).  ``dim`` must be the width
        the session was opened with.
        """
        if dim != self._keys.shape[1]:
            raise ValueError(
                f"session {self.session_id!r} holds {self._keys.shape[1]}-wide "
                f"K/V rows, not {dim}"
            )
        keys, values = self.kv_view(extra)
        return keys.copy(), values.copy()


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
            # Charge the (zero-state) prompt's pages so the resident
            # page count always equals the page-rounded ledger — pool
            # budget and session_bytes cannot diverge.
            session = Session(
                session_id, self.config.dim, self.block_size, prompt_len
            )
            self.pool.allocate(self.pool.blocks_for(prompt_len))
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

        Charges a fresh pool page (free-list reuse first) when the
        session's last private page is full.
        """
        with self._lock:
            session = self.session(session_id)
            session.append(k, v, self.pool.allocate)
            return session.context_len

    def commit_kv(
        self, staged: Mapping[str, Sequence[tuple[np.ndarray, np.ndarray]]]
    ) -> None:
        """Append a decode batch's ``(k, v)`` pairs per session, in order,
        under one lock; absent sessions are opened (empty prompt)."""
        allocate = self.pool.allocate
        with self._lock:
            for session_id, pairs in staged.items():
                session = self._sessions.get(session_id)
                if session is None:
                    session = self.open_session(session_id)
                for k, v in pairs:
                    session.append(k, v, allocate)

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
        """Bytes of the shared prefix pages this session counts
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

        The rows stay with the session (modelling a swap to host
        memory), so a later :meth:`swap_in` resumes with bit-identical
        state.  Returns the blocks discharged.
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
        :meth:`adopt_session`-ing it into the new one — the **rows
        travel with the** :class:`Session` object (and its pool budget
        is discharged here), so a migrated session's functional state,
        page count, and therefore its bits are unchanged.

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
        A session paged at another ``block_size`` is refused: its page
        counts would not match this pool's.
        """
        with self._lock:
            if session.session_id in self._sessions:
                raise ValueError(
                    f"session {session.session_id!r} already open here"
                )
            if session.block_size != self.block_size:
                raise ValueError(
                    f"session pages of {session.block_size} tokens do not "
                    f"fit a cache paged at {self.block_size}"
                )
            self._sessions[session.session_id] = session
            if not session.swapped:
                self.pool.charge(session.private_blocks)
            return session

    # -- prefix sharing (shared cache tier) ----------------------------------
    def export_prefix(
        self, session_id: str, prefix_id: str, tokens: int | None = None
    ) -> PrefixChain:
        """Freeze a session's leading rows into a shareable chain.

        The first ``tokens`` of context (default: the whole context)
        become a :class:`PrefixChain` holding a read-only copy of those
        rows: custody of their pages transfers out of this cache's
        :class:`BlockPool` (discharged here, the same custody rule
        :meth:`pop_session` applies to migration) and the session
        counts them as ``shared_blocks`` from now on.  The boundary
        must be page-aligned or cover the whole context, so the chain
        never splits a page.
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
            keys, values = session.kv_view()
            chain = PrefixChain(
                prefix_id=prefix_id,
                keys=keys[:tokens].copy(),
                values=values[:tokens].copy(),
                block_size=self.block_size,
                nbytes=kv_cache_bytes(
                    self.config,
                    self.pool.blocks_for(tokens) * self.block_size,
                    bits=self.kv_bits,
                ),
            )
            session.shared_tokens = tokens
            session.prefix_id = prefix_id
            self.pool.discharge(chain.n_blocks)
            return chain

    def adopt_prefix(self, session_id: str, chain: PrefixChain) -> Session:
        """Open a session whose prompt is a shared :class:`PrefixChain`.

        The new session's prompt is a copy of the chain's rows, counted
        as the chain's shared pages without charging this cache's pool
        — the tier already accounts for the chain once fleet-wide.  The
        first decode step charges a fresh private page (see
        :attr:`Session.has_room`).
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
                session_id, self.config.dim, self.block_size, prefix=chain
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
        dropped from this cache — the tier owns them; releasing the
        tier's refcount is the cluster's job.
        """
        with self._lock:
            freed = self.session_bytes(session_id)
            session = self._sessions.pop(session_id)
            if session.swapped:
                self.pool.recycle(session.private_blocks)
            else:
                self.pool.release(session.private_blocks)
            session.context_len = session.shared_tokens = 0  # emptied
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
        """Open sessions forked from a shared prefix chain."""
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
