"""``Session.kv_arrays`` memoizes the concatenation of every page but the
last.  Against the per-page concatenation it replaced, kept here verbatim
as the oracle, the result is bit-identical across appends that cross page
boundaries, swap, migration, prefix forks, page reuse after close, and
pending pairs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import SessionCache
from repro.serving.loadgen import bit_equal
from repro.workloads import DecoderConfig

DIM = 16

OPS = ("append", "swap", "migrate", "fork", "close_reuse")


def toy_decoder() -> DecoderConfig:
    return DecoderConfig("toy", depth=2, dim=DIM, heads=2, mlp_ratio=2.0)


def per_page_kv(session, dim, extra=()):
    """The reference: the per-page concatenation, as it was before the memo."""
    parts_k: list[np.ndarray] = []
    parts_v: list[np.ndarray] = []
    for block in session.blocks:
        if block.fill:
            parts_k.append(block.keys[: block.fill])
            parts_v.append(block.values[: block.fill])
    for key, value in extra:
        parts_k.append(key[None])
        parts_v.append(value[None])
    if not parts_k:
        return np.zeros((0, dim)), np.zeros((0, dim))
    return np.concatenate(parts_k), np.concatenate(parts_v)


def assert_matches(session, rng, pending):
    extra = [(rng.normal(size=DIM), rng.normal(size=DIM)) for _ in range(pending)]
    want = per_page_kv(session, DIM, extra)
    for _ in range(2):  # building or extending the memo, then a memo hit
        assert bit_equal(session.kv_arrays(DIM, extra), want)
    return want


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_memo_matches_the_per_page_concatenation(data):
    block_size = data.draw(st.integers(1, 4), label="block_size")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    caches = [SessionCache(toy_decoder(), block_size=block_size) for _ in range(2)]
    where = {"s0": 0}  # tracked session id -> index of the cache holding it
    caches[0].open_session("s0", prompt_len=data.draw(st.integers(0, 6)))
    opened = 1

    def append(sid, steps):
        for _ in range(steps):
            caches[where[sid]].append_kv(sid, rng.normal(size=DIM), rng.normal(size=DIM))

    ops = data.draw(st.lists(st.sampled_from(OPS), min_size=1, max_size=20), label="ops")
    for op in ops:
        sid = data.draw(st.sampled_from(sorted(where)), label="session")
        cache = caches[where[sid]]
        session = cache.session(sid)
        if op == "append":
            append(sid, data.draw(st.integers(1, 2 * block_size + 1)))
        elif op == "swap":
            cache.swap_out(sid)
            assert_matches(session, rng, data.draw(st.integers(0, 3)))
            cache.swap_in(sid)
        elif op == "migrate":
            where[sid] = 1 - where[sid]
            caches[where[sid]].adopt_session(cache.pop_session(sid))
        elif op == "fork":
            # A prefix chain needs an unshared and resident donor, and a
            # page-aligned (or whole-context) cut.
            if session.shared_blocks or session.swapped:
                continue
            context = session.context_len
            if context < 1:
                continue
            cuts = [*range(block_size, context, block_size), context]
            tokens = data.draw(st.sampled_from(cuts), label="cut")
            chain = cache.export_prefix(sid, f"p{opened}", tokens=tokens)
            fork = f"s{opened}"
            opened += 1
            cache.adopt_prefix(fork, chain)
            where[fork] = where[sid]
            append(fork, data.draw(st.integers(0, 2 * block_size + 1)))
            assert_matches(cache.session(fork), rng, data.draw(st.integers(0, 3)))
        elif op == "close_reuse":
            handed_out = session.kv_arrays(DIM)
            kept = tuple(array.copy() for array in handed_out)
            cache.close_session(sid)
            del where[sid]
            assert_matches(session, rng, 0)  # a closed session's memo shrinks
            # The freed pages go, reset, to the next session opened here.
            fresh = f"s{opened}"
            opened += 1
            cache.open_session(fresh, prompt_len=data.draw(st.integers(0, 6)))
            where[fresh] = caches.index(cache)
            append(fresh, data.draw(st.integers(0, 2 * block_size + 1)))
            # A result handed out earlier aliases neither a page nor the memo.
            assert bit_equal(handed_out, kept)
        for tracked in sorted(where):
            pending = data.draw(st.integers(0, 3), label="pending")
            assert_matches(caches[where[tracked]].session(tracked), rng, pending)

