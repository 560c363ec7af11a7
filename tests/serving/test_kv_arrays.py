"""``Session.kv_arrays(dim, extra)`` is one concatenation, bit-equal to
the committed K/V followed by a second concatenation of the pending
pairs, for every session layout the cache produces."""

import numpy as np
import pytest

from repro.serving import SessionCache
from repro.workloads import DecoderConfig

DIM = 16


def toy_decoder() -> DecoderConfig:
    return DecoderConfig("toy", depth=2, dim=DIM, heads=2, mlp_ratio=2.0)


def two_step(session, dim, extra):
    """The committed arrays first, then the pending pairs appended."""
    keys, values = session.kv_arrays(dim)
    keys = np.concatenate([keys] + [k[None] for k, _ in extra])
    values = np.concatenate([values] + [v[None] for _, v in extra])
    return keys, values


def _step(rng):
    return rng.normal(size=DIM), rng.normal(size=DIM)


def _append(cache, sid, rng, n):
    for _ in range(n):
        cache.append_kv(sid, *_step(rng))


def _materialized_prompt(rng):
    cache = SessionCache(toy_decoder(), block_size=2)
    cache.open_session("s", prompt_len=3)
    _append(cache, "s", rng, 3)
    return cache.session("s")


def _shared_prefix(rng):
    cache = SessionCache(toy_decoder(), block_size=2)
    cache.open_session("donor", prompt_len=4)
    _append(cache, "donor", rng, 1)
    chain = cache.export_prefix("donor", "sys", tokens=4)
    cache.adopt_prefix("s", chain)
    _append(cache, "s", rng, 3)
    return cache.session("s")


def _adopted(rng):
    source = SessionCache(toy_decoder(), block_size=4)
    source.open_session("s", prompt_len=2)
    _append(source, "s", rng, 5)
    target = SessionCache(toy_decoder(), block_size=4)
    target.adopt_session(source.pop_session("s"))
    _append(target, "s", rng, 1)
    return target.session("s")


def _swapped_in(rng):
    cache = SessionCache(toy_decoder(), block_size=2)
    cache.open_session("s", prompt_len=1)
    _append(cache, "s", rng, 3)
    cache.swap_out("s")
    cache.swap_in("s")
    _append(cache, "s", rng, 1)
    return cache.session("s")


def _empty(rng):
    cache = SessionCache(toy_decoder())
    cache.open_session("s")
    return cache.session("s")


LAYOUTS = [
    _materialized_prompt,
    _shared_prefix,
    _adopted,
    _swapped_in,
    _empty,
]


@pytest.mark.parametrize("layout", LAYOUTS, ids=lambda f: f.__name__.strip("_"))
@pytest.mark.parametrize("pending", [0, 1, 3])
def test_one_concatenation_matches_two_steps(layout, pending):
    rng = np.random.default_rng(0)
    session = layout(rng)
    extra = [_step(rng) for _ in range(pending)]
    keys, values = session.kv_arrays(DIM, extra)
    want_k, want_v = two_step(session, DIM, extra)
    assert keys.shape == (session.context_len + pending, DIM)
    np.testing.assert_array_equal(keys.view(np.uint64), want_k.view(np.uint64))
    np.testing.assert_array_equal(values.view(np.uint64), want_v.view(np.uint64))


def test_result_is_a_copy_of_the_pages():
    rng = np.random.default_rng(1)
    session = _materialized_prompt(rng)
    keys, _ = session.kv_arrays(DIM, [_step(rng)])
    keys[:] = 1.0
    assert not np.shares_memory(keys, session.kv_view()[0])
    assert not (session.kv_arrays(DIM)[0] == 1.0).all()


def test_a_width_other_than_the_sessions_is_refused():
    session = _empty(np.random.default_rng(2))
    with pytest.raises(ValueError, match="16-wide"):
        session.kv_arrays(DIM // 2)
