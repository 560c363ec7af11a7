"""Tests for load generation: Poisson gaps and multi-tenant mixes."""

import numpy as np
import pytest

from repro.serving import (
    Arrival,
    DecodeServable,
    TenantSpec,
    arrival_gaps,
    decode_payload,
    mixed_decode_trace,
    multi_tenant_arrivals,
    poisson_gaps,
)
from repro.serving.loadgen import (
    _handle_stats,
    bit_equal,
    sequential_decode,
    sequential_outputs,
)
from repro.workloads import DecoderConfig

TENANTS = (
    TenantSpec("vision-app", rate_rps=2000.0, weights={"vision": 1.0}),
    TenantSpec(
        "chat-app",
        rate_rps=1000.0,
        weights={"decode": 3.0, "prompt": 1.0},
        sessions=4,
    ),
)


def mix(seed=0, horizon_s=20e-3):
    return multi_tenant_arrivals(
        TENANTS, horizon_s=horizon_s, rng=np.random.default_rng(seed)
    )


class TestPoissonGaps:
    def test_zero_mean_gap_is_all_zero(self):
        assert np.all(poisson_gaps(4, 0.0, np.random.default_rng(0)) == 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_gaps(-1, 1.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            poisson_gaps(1, -1.0, np.random.default_rng(0))


class TestTenantSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="rate_rps"):
            TenantSpec("t", rate_rps=0.0)
        with pytest.raises(ValueError, match="sessions"):
            TenantSpec("t", rate_rps=1.0, sessions=-1)
        with pytest.raises(ValueError, match="request kind"):
            TenantSpec("t", rate_rps=1.0, weights={})
        with pytest.raises(ValueError, match="positive sum"):
            TenantSpec("t", rate_rps=1.0, weights={"a": 0.0})
        with pytest.raises(ValueError, match="positive sum"):
            TenantSpec("t", rate_rps=1.0, weights={"a": -1.0, "b": 2.0})


class TestMultiTenantArrivals:
    def test_schedule_is_sorted_and_indexed(self):
        arrivals = mix()
        assert arrivals  # ~60 expected over the horizon
        times = [a.time for a in arrivals]
        assert times == sorted(times)
        assert [a.index for a in arrivals] == list(range(len(arrivals)))
        assert all(0 < a.time <= 20e-3 for a in arrivals)

    def test_equal_seeds_replay_identically(self):
        assert mix(seed=7) == mix(seed=7)
        assert mix(seed=7) != mix(seed=8)

    def test_tenant_streams_are_independent_of_each_other(self):
        """Dropping one tenant leaves the other's stream untouched."""
        both = [a for a in mix(seed=3) if a.tenant == "vision-app"]
        alone = multi_tenant_arrivals(
            TENANTS[:1], horizon_s=20e-3, rng=np.random.default_rng(3)
        )
        assert [(a.time, a.kind) for a in both] == [
            (a.time, a.kind) for a in alone
        ]

    def test_kinds_and_sessions_follow_the_spec(self):
        arrivals = mix(seed=1, horizon_s=50e-3)
        vision = [a for a in arrivals if a.tenant == "vision-app"]
        chat = [a for a in arrivals if a.tenant == "chat-app"]
        assert all(a.kind == "vision" and a.session is None for a in vision)
        assert all(a.kind in ("decode", "prompt") for a in chat)
        sessions = {a.session for a in chat}
        assert sessions <= {f"chat-app/s{i}" for i in range(4)}
        assert len(sessions) > 1  # the mix actually spreads over sessions
        # The 3:1 weighting shows up in the drawn kinds.
        decodes = sum(a.kind == "decode" for a in chat)
        assert decodes > len(chat) / 2

    def test_rates_set_stream_volumes(self):
        arrivals = mix(seed=5, horizon_s=100e-3)
        by_tenant = {
            name: sum(a.tenant == name for a in arrivals)
            for name in ("vision-app", "chat-app")
        }
        # 2000 rps vs 1000 rps over 100 ms: ~200 vs ~100 arrivals.
        assert by_tenant["vision-app"] > 1.4 * by_tenant["chat-app"]

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="horizon_s"):
            multi_tenant_arrivals(TENANTS, horizon_s=0.0, rng=rng)
        with pytest.raises(ValueError, match="TenantSpec"):
            multi_tenant_arrivals([], horizon_s=1.0, rng=rng)


class TestArrivalGaps:
    def test_gaps_reconstruct_times(self):
        arrivals = [
            Arrival(0.5, "t", "k", None, 0),
            Arrival(0.75, "t", "k", None, 1),
            Arrival(2.0, "t", "k", None, 2),
        ]
        gaps = arrival_gaps(arrivals)
        assert gaps == [0.5, 0.25, 1.25]
        assert sum(gaps) == pytest.approx(2.0)

    def test_empty_schedule(self):
        assert arrival_gaps([]) == []


DECODER = DecoderConfig("oracle", depth=2, dim=16, heads=2, mlp_ratio=2.0)


def make_decoder():
    return DecodeServable(DECODER, seed=0, block_size=2)


def token(i, t):
    return decode_payload(5, i, t, DECODER.dim)


class TestHandleStats:
    def test_empty_run_reports_a_zero_row(self):
        assert _handle_stats([]) == {
            "latency_p50_ms": 0.0,
            "latency_p95_ms": 0.0,
            "latency_p99_ms": 0.0,
            "queue_wait_p50_ms": 0.0,
            "mean_batch_size": 0.0,
        }

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 100])
    def test_percentiles_equal_numpy_bit_for_bit(self, n):
        class Handle:
            def __init__(self, latency, queue_wait, batch_size):
                self.latency = latency
                self.queue_wait = queue_wait
                self.batch_size = batch_size

        rng = np.random.default_rng(n)
        handles = [
            Handle(*rng.exponential(1e-3, 2), int(rng.integers(0, 4)))
            for _ in range(n)
        ]
        latencies = [h.latency for h in handles]
        stats = _handle_stats(handles)
        for q in (50, 95, 99):
            assert stats[f"latency_p{q}_ms"] == float(
                np.percentile(latencies, q) * 1e3
            )
        assert stats["queue_wait_p50_ms"] == float(
            np.percentile([h.queue_wait for h in handles], 50) * 1e3
        )


class TestBitOracle:
    def test_bit_equal_accepts_identical_nested_results(self):
        want = {"s0": [np.arange(3.0), np.ones((2, 2))], "s1": []}
        got = {"s1": [], "s0": [np.arange(3.0), np.ones((2, 2))]}
        assert bit_equal(got, want)

    @pytest.mark.parametrize(
        "got, want",
        [
            ([np.zeros(2)], [np.zeros(2), np.zeros(2)]),
            (np.zeros((2, 2)), np.zeros(4)),
            (np.zeros(2, dtype=np.float32), np.zeros(2)),
            (np.array([-0.0]), np.array([0.0])),
            ({"a": [np.zeros(1)]}, {"b": [np.zeros(1)]}),
        ],
        ids=["length", "shape", "dtype", "negative-zero", "keys"],
    )
    def test_bit_equal_rejects(self, got, want):
        assert not bit_equal(got, want)
        assert not bit_equal(want, got)

    def test_prompt_len_is_load_bearing(self):
        # Pre-opened prompt tokens carry softmax mass, so an oracle that
        # ignored prompt_len would disagree with every prefix fork.
        specs = mixed_decode_trace(2, seed=0, min_steps=2, max_steps=3)
        plain = sequential_decode(make_decoder, specs, token)
        prompted = sequential_decode(make_decoder, specs, token, prompt_len=4)
        assert bit_equal(sequential_decode(make_decoder, specs, token, prompt_len=4), prompted)
        assert [len(prompted[s.session_id]) for s in specs] == [s.steps for s in specs]
        assert not bit_equal(prompted, plain)

    def test_drain_oracle_agrees_with_per_session_oracle(self):
        specs = mixed_decode_trace(3, seed=1, min_steps=2, max_steps=4)
        steps = [
            (i, spec.session_id, t)
            for t in range(4)
            for i, spec in enumerate(specs)
            if t < spec.steps
        ]
        drained = sequential_outputs(
            make_decoder(), [token(i, t) for i, _, t in steps], [sid for _, sid, _ in steps]
        )
        per_session = {spec.session_id: [] for spec in specs}
        for (_, sid, _), output in zip(steps, drained):
            per_session[sid].append(output)
        assert bit_equal(per_session, sequential_decode(make_decoder, specs, token))
