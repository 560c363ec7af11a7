"""Per-token work budget of the decode path, counted rather than timed.

After one warm-up round has bound every labelled metric instrument, a
decode round on a two-replica continuous ``cache_aware`` cluster makes
no registry lookups at all, and looks each planned session up in its
``SessionCache`` once while composing the iteration and once more when
the servable reads its K/V; the commit makes none.  Each token is one
handle and one request object, each ledger records it once, and its
submit takes the cluster lock once.
"""

import functools

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ServingCluster
from repro.cluster import cluster as cluster_module
from repro.neural.photonic import PhotonicExecutor
from repro.obs.registry import MetricsRegistry
from repro.serving import EngineConfig, IterationScheduler, SessionCache, SimulatedClock
from repro.serving import request as request_module
from repro.serving.metrics import RequestLedger
from repro.serving.request import RequestHandle
from repro.workloads.llm import DecoderConfig, decode_servable

DECODER = DecoderConfig("budget", depth=1, dim=16, heads=2, mlp_ratio=2.0)
SESSIONS = 6
STEPS = 5
LOOKUPS = ("find_session", "session", "has_session")


def build() -> ServingCluster:
    engine = EngineConfig(
        max_batch_size=4,
        max_wait_us=0.0,
        queue_depth=4 * SESSIONS,
        scheduler="continuous",
        block_size=2,
        seed=0,
    )
    return ServingCluster(
        lambda replica_id: decode_servable(
            DECODER, executor=PhotonicExecutor.digital_reference(), engine=engine
        ),
        config=ClusterConfig(replicas=2, policy="cache_aware", engine=engine),
        clock=SimulatedClock(),
    )


def decode_round(cluster: ServingCluster, tag: str, rng) -> int:
    """Closed loop: each session submits its next token once the last
    resolved.  Returns the tokens decoded; sessions stay open."""

    def submit(sid):
        return cluster.submit(rng.normal(size=DECODER.dim), session_id=sid)

    live = {f"{tag}-{i}": submit(f"{tag}-{i}") for i in range(SESSIONS)}
    decoded = {sid: 0 for sid in live}
    while live:
        cluster.step()
        for sid, handle in list(live.items()):
            if not handle.done():
                continue
            handle.result(timeout=0)
            decoded[sid] += 1
            if decoded[sid] < STEPS:
                live[sid] = submit(sid)
            else:
                del live[sid]
    return sum(decoded.values())


def release(cluster: ServingCluster, tag: str) -> None:
    for i in range(SESSIONS):
        cluster.release_session(f"{tag}-{i}")


@pytest.fixture
def counted(monkeypatch):
    """Patch the counted entry points; yields the running counts."""
    counts = {"instrument": 0, "lookups": 0, "compose_lookups": 0, "planned": 0}

    def counting(key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        MetricsRegistry, "_instrument", counting("instrument", MetricsRegistry._instrument)
    )
    for name in LOOKUPS:
        monkeypatch.setattr(SessionCache, name, counting("lookups", getattr(SessionCache, name)))
    compose = IterationScheduler.compose

    def counted_compose(self):
        before = counts["lookups"]
        iteration = compose(self)
        counts["compose_lookups"] += counts["lookups"] - before
        counts["planned"] += sum(r.session_id is not None for r in iteration.batch)
        return iteration

    monkeypatch.setattr(IterationScheduler, "compose", counted_compose)
    return counts


def test_steady_decode_binds_instruments_once_and_looks_sessions_up_once(counted):
    rng = np.random.default_rng(0)
    cluster = build()
    decode_round(cluster, "warm", rng)
    release(cluster, "warm")
    for key in counted:
        counted[key] = 0

    tokens = decode_round(cluster, "steady", rng)

    assert tokens == SESSIONS * STEPS
    assert counted["planned"] == tokens
    assert counted["instrument"] == 0
    assert counted["compose_lookups"] == counted["planned"]
    # The only other lookup is the attention read in the servable.
    assert counted["lookups"] == 2 * counted["planned"]
    release(cluster, "steady")
    cluster.close()


class CountingLock:
    """A lock proxy that counts the ``with`` blocks entered while
    ``counts["in_submit"]`` is set."""

    def __init__(self, lock, counts):
        self.lock = lock
        self.counts = counts

    def __enter__(self):
        if self.counts["in_submit"]:
            self.counts["submit_locks"] += 1
        return self.lock.__enter__()

    def __exit__(self, *exc_info):
        return self.lock.__exit__(*exc_info)


@pytest.fixture
def objects(monkeypatch):
    """Count, per kind, the objects built from the classes of the cluster
    and request modules (a handle is a ``RequestHandle``; anything else
    built there per token is a request object), the rows the ledgers
    record, and the cluster-lock blocks entered inside ``submit``."""
    counts = {
        "handles": 0, "requests": 0, "records": 0, "submit_locks": 0, "in_submit": False,
    }

    def counting_init(cls, init):
        kind = "handles" if issubclass(cls, RequestHandle) else "requests"

        @functools.wraps(init)
        def wrapper(self, *args, **kwargs):
            if type(self) is cls:  # a subclass's super().__init__ counts once
                counts[kind] += 1
            init(self, *args, **kwargs)

        return wrapper

    for module in (cluster_module, request_module):
        for cls in vars(module).values():
            if (
                isinstance(cls, type)
                and cls.__module__ == module.__name__
                and not issubclass(cls, BaseException)
            ):
                monkeypatch.setattr(cls, "__init__", counting_init(cls, cls.__init__))
    record = RequestLedger.record

    def counting_record(self, row):
        counts["records"] += 1
        record(self, row)

    monkeypatch.setattr(RequestLedger, "record", counting_record)
    submit = ServingCluster.submit

    def counting_submit(self, *args, **kwargs):
        if not isinstance(self._lock, CountingLock):
            self._lock = CountingLock(self._lock, counts)
        counts["in_submit"] = True
        try:
            return submit(self, *args, **kwargs)
        finally:
            counts["in_submit"] = False

    monkeypatch.setattr(ServingCluster, "submit", counting_submit)
    return counts


def test_steady_decode_makes_one_handle_and_one_request_per_token(objects):
    rng = np.random.default_rng(0)
    cluster = build()
    decode_round(cluster, "warm", rng)
    release(cluster, "warm")
    for key in ("handles", "requests", "records", "submit_locks"):
        objects[key] = 0

    tokens = decode_round(cluster, "steady", rng)

    assert tokens == SESSIONS * STEPS
    # The cluster's handle rides through the engine that serves it and
    # doubles as the cluster's record of the request.
    assert objects["handles"] == tokens
    assert objects["requests"] == tokens
    # One row in the serving engine's ledger, one in the fleet's.
    assert objects["records"] == 2 * tokens
    assert objects["submit_locks"] == tokens
    release(cluster, "steady")
    cluster.close()
