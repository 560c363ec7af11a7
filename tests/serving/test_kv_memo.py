"""``Session.kv_arrays`` against a shadow model: for each session, the rows
it should hold (zeros for its prompt, the donor's rows for a fork, then
its appends).  Random interleavings of appends that cross page
boundaries, swap, migration, prefix forks (exported by a donor session
or built by the shared tier), closes with page reuse, and pending pairs
keep every session's K/V bit-equal to its shadow, each pool charged
exactly its resident sessions' private pages, and every prefix chain's
rows unchanged."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import SharedCacheTier
from repro.serving import SessionCache
from repro.serving.loadgen import bit_equal
from repro.workloads import DecoderConfig

DIM = 16

OPS = ("append", "swap", "migrate", "fork", "tier_fork", "export_whole", "close_reuse")


def toy_decoder() -> DecoderConfig:
    return DecoderConfig("toy", depth=2, dim=DIM, heads=2, mlp_ratio=2.0)


def chain_rows(chain):
    """The chain's ``(keys, values)`` rows."""
    return chain.keys, chain.values


def shadow_kv(rows, extra=()):
    """The model's K/V: the session's rows, then the pending pairs."""
    pairs = [*rows, *extra]
    keys = np.array([key for key, _ in pairs]).reshape(-1, DIM)
    values = np.array([value for _, value in pairs]).reshape(-1, DIM)
    return keys, values


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_kv_matches_a_shadow_model(data):
    block_size = data.draw(st.integers(1, 4), label="block_size")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    caches = [SessionCache(toy_decoder(), block_size=block_size) for _ in range(2)]
    tier = SharedCacheTier()
    where: dict[str, int] = {}  # tracked session id -> index of its cache
    shadow: dict[str, list] = {}  # tracked session id -> its (k, v) rows
    chains: list = []  # (chain, its rows when built)
    opened = 0
    zero = (np.zeros(DIM), np.zeros(DIM))

    def new_id(prefix="s"):
        nonlocal opened
        opened += 1
        return f"{prefix}{opened}"

    def open_session(index, prompt_len):
        sid = new_id()
        caches[index].open_session(sid, prompt_len=prompt_len)
        where[sid], shadow[sid] = index, [zero] * prompt_len
        return sid

    def adopt(index, chain, rows):
        sid = new_id()
        caches[index].adopt_prefix(sid, chain)
        where[sid], shadow[sid] = index, list(rows)
        append(sid, data.draw(st.integers(0, 2 * block_size + 1)))

    def export(sid, tokens):
        chain = caches[where[sid]].export_prefix(sid, new_id("p"), tokens=tokens)
        chains.append((chain, tuple(rows.copy() for rows in chain_rows(chain))))
        return chain

    def append(sid, steps):
        for _ in range(steps):
            pair = (rng.normal(size=DIM), rng.normal(size=DIM))
            caches[where[sid]].append_kv(sid, *pair)
            shadow[sid].append(pair)

    def check():
        for sid in sorted(where):
            extra = [
                (rng.normal(size=DIM), rng.normal(size=DIM))
                for _ in range(data.draw(st.integers(0, 3), label="pending"))
            ]
            session = caches[where[sid]].session(sid)
            for _ in range(2):  # a first read, then a read of the same rows
                assert bit_equal(session.kv_arrays(DIM, extra), shadow_kv(shadow[sid], extra))
        for index, cache in enumerate(caches):
            resident = [
                cache.session(sid)
                for sid, at in where.items()
                if at == index and not cache.session(sid).swapped
            ]
            assert cache.pool.in_use == sum(s.private_blocks for s in resident)
        for chain, built in chains:
            assert bit_equal(chain_rows(chain), built)
            assert not any(rows.flags.writeable for rows in chain_rows(chain))

    open_session(0, data.draw(st.integers(0, 6)))
    ops = data.draw(st.lists(st.sampled_from(OPS), min_size=1, max_size=20), label="ops")
    for op in ops:
        sid = data.draw(st.sampled_from(sorted(where)), label="session")
        cache = caches[where[sid]]
        session = cache.session(sid)
        exportable = not (session.shared_blocks or session.swapped) and session.context_len
        if op == "append":
            append(sid, data.draw(st.integers(1, 2 * block_size + 1)))
        elif op == "swap":
            cache.swap_out(sid)
            check()
            cache.swap_in(sid)
        elif op == "migrate":
            where[sid] = 1 - where[sid]
            caches[where[sid]].adopt_session(cache.pop_session(sid))
        elif op == "fork" and exportable:
            # A page-aligned (or whole-context) cut of an unshared,
            # resident donor; the fork opens beside its donor.
            context = session.context_len
            cuts = [*range(block_size, context, block_size), context]
            tokens = data.draw(st.sampled_from(cuts), label="cut")
            adopt(where[sid], export(sid, tokens), shadow[sid][:tokens])
        elif op == "export_whole" and exportable and session.context_len % block_size:
            # The whole context, ending part-way through a page; the
            # fork opens in the other cache.
            adopt(1 - where[sid], export(sid, None), shadow[sid])
        elif op == "tier_fork":
            tokens = data.draw(st.integers(1, 6), label="prefix_tokens")
            chain = tier.ensure_prefix(
                f"tier{tokens}", tokens, config=toy_decoder(), block_size=block_size
            )
            if all(chain is not seen for seen, _ in chains):
                chains.append((chain, tuple(rows.copy() for rows in chain_rows(chain))))
            adopt(data.draw(st.integers(0, 1), label="cache"), chain, [zero] * tokens)
        elif op == "close_reuse":
            handed_out = session.kv_arrays(DIM)
            kept = tuple(array.copy() for array in handed_out)
            cache.close_session(sid)
            del where[sid], shadow[sid]
            assert bit_equal(session.kv_arrays(DIM), shadow_kv([]))  # closed: empty
            # The freed pages go to the next session opened here.
            fresh = open_session(caches.index(cache), data.draw(st.integers(0, 6)))
            append(fresh, data.draw(st.integers(0, 2 * block_size + 1)))
            # A result handed out earlier aliases no live K/V state.
            assert bit_equal(handed_out, kept)
        check()
