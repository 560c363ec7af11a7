"""Load generators for the serving engine (benchmark + CLI harness).

Two canonical arrival patterns:

* **Open-loop Poisson** — requests arrive on a schedule drawn from an
  exponential inter-arrival distribution, independent of completions
  (the regime that exposes queueing and batching behaviour; seeded so a
  benchmark's arrival process is reproducible).
* **Closed-loop** — ``concurrency`` synthetic users each submit, wait
  for the result, and immediately submit again for ``rounds`` turns
  (the regime that measures sustainable service rate under think-time
  zero).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.serving.clock import SimulatedClock
from repro.serving.config import EngineConfig
from repro.serving.engine import ServingEngine
from repro.serving.metrics import summarize


def poisson_gaps(
    n: int, mean_gap_s: float, rng: np.random.Generator
) -> np.ndarray:
    """``n`` exponential inter-arrival gaps with the given mean (seconds)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if mean_gap_s < 0:
        raise ValueError(f"mean_gap_s must be >= 0, got {mean_gap_s}")
    if mean_gap_s == 0:
        return np.zeros(n)
    return rng.exponential(mean_gap_s, size=n)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of a multi-tenant arrival mix.

    Attributes:
        name: tenant label (appears on every arrival it generates).
        rate_rps: mean Poisson arrival rate of this tenant's stream.
        weights: request-kind mix, ``kind -> relative weight`` (each
            arrival draws a kind; weights are normalized internally).
        sessions: when > 0, arrivals carry a session id drawn uniformly
            from ``{name}/s0 .. {name}/s{sessions-1}`` — the
            decode-shaped traffic whose placement the cluster's
            session-affinity routing cares about.
    """

    name: str
    rate_rps: float
    weights: Mapping[str, float] = field(
        default_factory=lambda: {"default": 1.0}
    )
    sessions: int = 0

    def __post_init__(self) -> None:
        if self.rate_rps <= 0:
            raise ValueError(f"rate_rps must be > 0, got {self.rate_rps}")
        if self.sessions < 0:
            raise ValueError(f"sessions must be >= 0, got {self.sessions}")
        if not self.weights:
            raise ValueError("weights must name at least one request kind")
        if any(w < 0 for w in self.weights.values()) or not any(
            w > 0 for w in self.weights.values()
        ):
            raise ValueError(f"weights must be >= 0 with a positive sum: {self.weights}")


@dataclass(frozen=True)
class Arrival:
    """One request of a generated arrival schedule."""

    time: float  #: absolute arrival instant (seconds from schedule start)
    tenant: str
    kind: str
    session: str | None  #: session id for decode-shaped tenants, else None
    index: int  #: global arrival order (0-based, after merging tenants)


def multi_tenant_arrivals(
    tenants: Sequence[TenantSpec],
    *,
    horizon_s: float,
    rng: np.random.Generator,
) -> list[Arrival]:
    """Merge per-tenant Poisson streams into one seeded arrival schedule.

    Each tenant draws an independent exponential-gap stream at its own
    rate until ``horizon_s``, tagging every arrival with a request kind
    (weighted draw) and, for session-shaped tenants, a session id.  The
    merged schedule is sorted by time (ties broken by tenant order) and
    is a pure function of the specs and the generator state — both
    ``benchmarks/bench_serving.py`` and the fleet affinity gate
    (``tests/cluster/test_cluster.py::TestBitExactRouting::
    test_affinity_beats_round_robin_on_hit_rate``) replay identical
    mixes from equal seeds.
    """
    if horizon_s <= 0:
        raise ValueError(f"horizon_s must be > 0, got {horizon_s}")
    if not tenants:
        raise ValueError("need at least one TenantSpec")
    # One child generator per tenant, derived in spec order, so a
    # tenant's stream does not depend on how many arrivals the others
    # drew before it.
    seeds = rng.integers(0, 2**63, size=len(tenants))
    merged: list[tuple[float, int, Arrival]] = []
    for t_index, (spec, seed) in enumerate(zip(tenants, seeds)):
        tenant_rng = np.random.default_rng(int(seed))
        kinds = list(spec.weights)
        probabilities = np.asarray(
            [spec.weights[kind] for kind in kinds], dtype=float
        )
        probabilities /= probabilities.sum()
        now = 0.0
        while True:
            now += float(tenant_rng.exponential(1.0 / spec.rate_rps))
            if now > horizon_s:
                break
            kind = kinds[int(tenant_rng.choice(len(kinds), p=probabilities))]
            session = (
                f"{spec.name}/s{int(tenant_rng.integers(spec.sessions))}"
                if spec.sessions
                else None
            )
            merged.append(
                (now, t_index, Arrival(now, spec.name, kind, session, 0))
            )
    merged.sort(key=lambda item: (item[0], item[1]))
    return [
        Arrival(a.time, a.tenant, a.kind, a.session, i)
        for i, (_, _, a) in enumerate(merged)
    ]


def arrival_gaps(arrivals: Sequence[Arrival]) -> list[float]:
    """Inter-arrival gaps of a schedule (for :func:`run_open_loop`)."""
    gaps = []
    previous = 0.0
    for arrival in arrivals:
        gaps.append(arrival.time - previous)
        previous = arrival.time
    return gaps


def _handle_stats(handles: Sequence) -> dict:
    latency = summarize([h.latency for h in handles])
    wait = summarize([h.queue_wait for h in handles])
    occupancy = [h.batch_size for h in handles if h.batch_size]
    return {
        "latency_p50_ms": latency["p50"] * 1e3,
        "latency_p95_ms": latency["p95"] * 1e3,
        "latency_p99_ms": latency["p99"] * 1e3,
        "queue_wait_p50_ms": wait["p50"] * 1e3,
        "mean_batch_size": float(np.mean(occupancy)) if occupancy else 0.0,
    }


def run_open_loop(
    engine: ServingEngine,
    payloads: Sequence[Any],
    gaps: Sequence[float],
    *,
    submit_kwargs: Callable[[int], dict] | None = None,
) -> dict:
    """Open-loop run: submit on the arrival schedule, wait for all.

    ``gaps[i]`` is the pause before submitting ``payloads[i]``.  Returns
    throughput over the full makespan (first submit to last completion)
    plus latency percentiles from the request handles.
    """
    if len(payloads) != len(gaps):
        raise ValueError(
            f"{len(payloads)} payloads vs {len(gaps)} arrival gaps"
        )
    handles = []
    start = time.perf_counter()
    for i, (payload, gap) in enumerate(zip(payloads, gaps)):
        if gap > 0:
            time.sleep(gap)
        kwargs = submit_kwargs(i) if submit_kwargs is not None else {}
        handles.append(engine.submit(payload, **kwargs))
    for handle in handles:
        handle.result(timeout=60.0)
    elapsed = time.perf_counter() - start
    return {
        "pattern": "open-loop-poisson",
        "requests": len(handles),
        "elapsed_s": elapsed,
        "throughput_rps": len(handles) / elapsed if elapsed > 0 else 0.0,
        **_handle_stats(handles),
    }


@dataclass(frozen=True)
class DecodeSessionSpec:
    """One decode session of a mixed-length trace.

    ``arrival_s`` is when the session's first step arrives; ``steps``
    is how many tokens it generates.  The per-step token vectors come
    from :func:`decode_payload` — a pure function of ``(seed,
    session_index, step)`` — so replays of the same trace are
    bit-identical across schedulers, engines, and cluster layouts.
    """

    session_id: str
    arrival_s: float
    steps: int

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ValueError(f"arrival_s must be >= 0, got {self.arrival_s}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")


def mixed_decode_trace(
    sessions: int,
    *,
    seed: int = 0,
    min_steps: int = 2,
    max_steps: int = 10,
    horizon_s: float = 0.01,
) -> list[DecodeSessionSpec]:
    """Seeded mixed-length decode trace (the continuous-batching gate).

    Sessions arrive uniformly over ``horizon_s`` with uniformly drawn
    generation lengths in ``[min_steps, max_steps]`` — the ragged mix
    where request-level batching strands lanes behind stragglers and
    pays window waits, while iteration-level scheduling recomposes
    every step.
    """
    if sessions < 1:
        raise ValueError(f"sessions must be >= 1, got {sessions}")
    if not 1 <= min_steps <= max_steps:
        raise ValueError(f"need 1 <= min_steps <= max_steps, got {min_steps}, {max_steps}")
    rng = np.random.default_rng(seed)
    arrivals = np.sort(rng.uniform(0.0, horizon_s, size=sessions))
    steps = rng.integers(min_steps, max_steps + 1, size=sessions)
    return [
        DecodeSessionSpec(f"s{i}", float(arrivals[i]), int(steps[i]))
        for i in range(sessions)
    ]


def decode_payload(seed: int, session_index: int, step: int, dim: int) -> np.ndarray:
    """The token vector of one decode step — pure in its arguments."""
    rng = np.random.default_rng([seed, session_index, step])
    return rng.normal(0.0, 1.0, dim)


def run_decode_trace(
    target,
    specs: Sequence[DecodeSessionSpec],
    *,
    payload_fn: Callable[[int, int], Any],
    idle_tick_s: float = 0.0,
    release: bool = True,
    max_idle_ticks: int = 1_000_000,
    submit_kwargs: Callable[[int], dict] | None = None,
) -> dict:
    """Replay a decode trace closed-loop under a simulated clock.

    ``target`` is a :class:`~repro.serving.engine.ServingEngine` or a
    :class:`~repro.cluster.cluster.ServingCluster` in manual mode: it
    needs ``submit(payload, session_id=...)``, ``step(force=...)``,
    ``release_session`` and a ``clock`` with ``advance``.  Each session
    is closed-loop — step ``k+1`` is submitted only once step ``k``
    resolved, the real decode dependency — and the loop is event-driven:
    when a step executes nothing, virtual time advances to the next
    session arrival or by ``idle_tick_s`` (the request-mode batching
    window; continuous mode never needs it).  ``payload_fn(session_index,
    step)`` produces each step's payload.  Sessions are released (KV
    freed) on completion when ``release`` is set.
    ``submit_kwargs(session_index)`` adds extra keyword arguments to
    every ``submit`` of that session's steps — e.g. the cluster's
    ``prefix_id=`` for sessions forked from a shared prompt prefix.

    Returns per-session outputs (``outputs[session_id]`` is the list of
    step results, for bit-equality gates), the virtual makespan, and
    steps-per-virtual-second throughput.
    """
    clock = target.clock
    if getattr(clock, "real", True):
        raise ValueError("run_decode_trace needs a simulated clock")
    order = sorted(range(len(specs)), key=lambda i: (specs[i].arrival_s, i))
    pending = list(order)  # spec indices not yet arrived
    inflight: dict[int, Any] = {}  # spec index -> unresolved handle
    next_step = {i: 0 for i in range(len(specs))}
    outputs: dict[str, list[np.ndarray]] = {spec.session_id: [] for spec in specs}
    start = clock.now()
    done = 0
    idle_ticks = 0

    def extra(index: int) -> dict:
        return submit_kwargs(index) if submit_kwargs is not None else {}

    def submit_due() -> None:
        now = clock.now() - start
        while pending and specs[pending[0]].arrival_s <= now + 1e-12:
            index = pending.pop(0)
            inflight[index] = target.submit(
                payload_fn(index, next_step[index]),
                session_id=specs[index].session_id,
                **extra(index),
            )

    submit_due()
    while done < len(specs):
        executed = target.step(force=False)
        progressed = executed > 0
        for index, handle in list(inflight.items()):
            if not handle.done():
                continue
            del inflight[index]
            spec = specs[index]
            outputs[spec.session_id].append(handle.result())
            next_step[index] += 1
            progressed = True
            if next_step[index] >= spec.steps:
                done += 1
                if release:
                    target.release_session(spec.session_id)
            else:
                inflight[index] = target.submit(
                    payload_fn(index, next_step[index]),
                    session_id=spec.session_id,
                    **extra(index),
                )
        if progressed:
            idle_ticks = 0
            submit_due()
            continue
        # Nothing ran and nothing resolved: advance virtual time to the
        # next event — a future arrival, or the batching-window expiry
        # of the oldest undispatched step (its handle carries the exact
        # submit stamp, so request mode pays its window and not a tick
        # more).
        now_abs = clock.now()
        next_arrival = (
            start + specs[pending[0]].arrival_s if pending else np.inf
        )
        window = (
            min(h.arrival for h in inflight.values()) + idle_tick_s
            if idle_tick_s > 0 and inflight
            else np.inf
        )
        tick_to = min(next_arrival, window)
        if not np.isfinite(tick_to) or tick_to <= now_abs:
            # No timed event left: force the residual partial batch out.
            if target.step(force=True) == 0:
                raise RuntimeError(
                    "decode trace stalled: no progress and no pending event"
                )
            continue
        clock.advance(tick_to - now_abs)
        idle_ticks += 1
        if idle_ticks > max_idle_ticks:
            raise RuntimeError("decode trace stalled: idle-tick limit reached")
        submit_due()
    makespan = clock.now() - start
    total_steps = sum(spec.steps for spec in specs)
    return {
        "sessions": len(specs),
        "steps": total_steps,
        "makespan_s": makespan,
        "throughput_sps": total_steps / makespan if makespan > 0 else 0.0,
        "outputs": outputs,
    }


def _batch1_engine(servable, queue_depth: int = 1) -> ServingEngine:
    return ServingEngine(
        servable,
        config=EngineConfig(max_batch_size=1, max_wait_us=0.0, queue_depth=queue_depth),
        clock=SimulatedClock(),
    )


def sequential_decode(
    make_servable: Callable[[], Any],
    specs: Sequence[DecodeSessionSpec],
    payload_fn: Callable[[int, int], Any],
    *,
    prompt_len: int = 0,
) -> dict[str, list]:
    """The bit oracle of :func:`run_decode_trace`: each session alone.

    Every spec decodes one token at a time on a fresh ``make_servable()``
    behind its own batch-1 engine.  ``prompt_len`` pre-opens each
    session at that length, as a prefix fork does (prompt tokens carry
    softmax mass).  Returns ``{session_id: [step outputs]}``.
    """
    outputs: dict[str, list] = {}
    for i, spec in enumerate(specs):
        servable = make_servable()
        with _batch1_engine(servable) as engine:
            if prompt_len:
                servable.cache.open_session(spec.session_id, prompt_len=prompt_len)
            outs = outputs[spec.session_id] = []
            for t in range(spec.steps):
                handle = engine.submit(payload_fn(i, t), session_id=spec.session_id)
                engine.step()
                outs.append(handle.result(timeout=0))
    return outputs


def sequential_outputs(servable, payloads: Sequence[Any], session_ids=None) -> list:
    """Batch-1 drain oracle: all ``payloads`` in order on one engine,
    payload ``i`` in session ``session_ids[i]`` when given; closes its executor."""
    sessions = session_ids if session_ids is not None else [None] * len(payloads)
    with _batch1_engine(servable, max(1, len(payloads))) as engine:
        handles = [engine.submit(p, session_id=s) for p, s in zip(payloads, sessions)]
        engine.run_until_idle()
        return [handle.result(timeout=0) for handle in handles]


def bit_equal(got, want) -> bool:
    """Bit-for-bit agreement: mappings need equal keys, sequences equal
    lengths, arrays equal shape, dtype and ``tobytes()`` (so ``-0.0``
    differs from ``0.0``, as in perfbench's digests)."""
    if isinstance(want, Mapping):
        return isinstance(got, Mapping) and got.keys() == want.keys() and all(
            bit_equal(got[key], want[key]) for key in want
        )
    if isinstance(want, (list, tuple)):
        return isinstance(got, (list, tuple)) and len(got) == len(want) and all(
            bit_equal(g, w) for g, w in zip(got, want)
        )
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())


def run_closed_loop(
    engine: ServingEngine,
    payloads: Sequence[Any],
    *,
    rounds: int = 4,
    submit_kwargs: Callable[[int], dict] | None = None,
) -> dict:
    """Closed-loop run: ``len(payloads)`` users in submit-wait-repeat.

    Each user ``i`` submits ``payloads[i]`` ``rounds`` times, waiting
    for each result before the next submission.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    handles_per_user: list[list] = [[] for _ in payloads]
    errors: list[BaseException] = []

    def user(i: int, payload: Any) -> None:
        try:
            for _ in range(rounds):
                kwargs = submit_kwargs(i) if submit_kwargs is not None else {}
                handle = engine.submit(payload, **kwargs)
                handle.result(timeout=60.0)
                handles_per_user[i].append(handle)
        except BaseException as error:  # noqa: BLE001 - surfaced to caller
            errors.append(error)

    threads = [
        threading.Thread(target=user, args=(i, payload), daemon=True)
        for i, payload in enumerate(payloads)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    handles = [handle for user_handles in handles_per_user for handle in user_handles]
    return {
        "pattern": "closed-loop",
        "concurrency": len(payloads),
        "requests": len(handles),
        "elapsed_s": elapsed,
        "throughput_rps": len(handles) / elapsed if elapsed > 0 else 0.0,
        **_handle_stats(handles),
    }
