"""Tests for the flight recorder: ring semantics, bundles, triggers."""

import json

import numpy as np
import pytest

from repro.cluster import FAILED, ClusterConfig, ServingCluster
from repro.obs import FlightRecorder, MetricsRegistry, Tracer
from repro.serving import (
    DecodeServable,
    EngineConfig,
    IterationCost,
    ServingEngine,
    ServingError,
    SimulatedClock,
    decode_payload,
)
from repro.workloads import DecoderConfig, kv_cache_bytes


def toy_decoder() -> DecoderConfig:
    return DecoderConfig("toy", depth=2, dim=16, heads=2, mlp_ratio=2.0)


class EchoServable:
    """Doubles payloads; optionally fails, for the serving-error path."""

    name = "echo"

    def __init__(self, fail=False):
        self.fail = fail

    def prepare(self, payload):
        return payload

    def execute(self, requests):
        if self.fail:
            raise RuntimeError("photonic core fell over")
        return [2 * request.payload for request in requests]


class TestRing:
    def test_capacity_bounds_both_rings(self):
        clock = SimulatedClock()
        recorder = FlightRecorder(capacity=3, clock=clock)
        tracer = Tracer(clock=clock, collector=recorder)
        for index in range(5):
            with tracer.span(f"op-{index}"):
                clock.advance(1e-3)
            recorder.note(f"note-{index}")
        assert [s["name"] for s in recorder.recent_spans()] == [
            "op-2",
            "op-3",
            "op-4",
        ]
        assert [e["name"] for e in recorder.recent_events()] == [
            "note-2",
            "note-3",
            "note-4",
        ]

    def test_capacity_below_one_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_spans_recorded_only_when_finished(self):
        clock = SimulatedClock()
        recorder = FlightRecorder(clock=clock)
        tracer = Tracer(clock=clock, collector=recorder)
        span = tracer.start_span("open")
        assert recorder.recent_spans() == []
        tracer.end(span)
        assert [s["name"] for s in recorder.recent_spans()] == ["open"]

    def test_clear_keeps_frozen_bundles(self):
        clock = SimulatedClock()
        recorder = FlightRecorder(clock=clock)
        recorder.note("before")
        bundle = recorder.trigger("incident")
        recorder.clear()
        assert recorder.recent_events() == []
        assert recorder.bundles == [bundle]
        assert [e["name"] for e in bundle["events"]] == ["before"]


class TestTrigger:
    def test_bundle_contents_and_sequence(self):
        clock = SimulatedClock()
        recorder = FlightRecorder(clock=clock)
        registry = MetricsRegistry()
        registry.counter("incidents_total").inc()
        clock.advance(2.5)
        recorder.note("lead-up", detail=7)
        first = recorder.trigger(
            "replica_failed",
            registry=registry,
            snapshot={"fleet": 3},
            replica_id=1,
        )
        second = recorder.trigger("replica_failed")
        assert first["reason"] == "replica_failed"
        assert first["time"] == 2.5
        assert first["sequence"] == 0 and second["sequence"] == 1
        assert first["context"] == {"replica_id": 1}
        assert first["events"][0]["attrs"] == {"detail": 7}
        assert first["snapshot"] == {"fleet": 3}
        assert first["registry"] is not None
        assert second["registry"] is None

    def test_dump_dir_writes_sequenced_json(self, tmp_path):
        recorder = FlightRecorder(clock=SimulatedClock(), dump_dir=tmp_path)
        recorder.note("context")
        recorder.trigger("doomed_session", session_id="s9")
        recorder.trigger("serving_error")
        names = [path.name for path in recorder.dumped]
        assert names == ["postmortem-000.json", "postmortem-001.json"]
        loaded = json.loads(recorder.dumped[0].read_text())
        assert loaded["reason"] == "doomed_session"
        assert loaded["context"] == {"session_id": "s9"}

    def test_attach_tees_behind_an_existing_collector(self):
        clock = SimulatedClock()
        recorder = FlightRecorder(clock=clock)
        tracer = Tracer(clock=clock)
        recorder.attach(tracer)
        with tracer.span("shared"):
            clock.advance(1e-3)
        # Both the original collector and the recorder saw the span.
        assert [s.name for s in tracer.collector.spans()] == ["shared"]
        assert [s["name"] for s in recorder.recent_spans()] == ["shared"]


class TestServingTriggers:
    def test_doomed_session_freezes_a_bundle(self):
        config = toy_decoder()
        clock = SimulatedClock()
        recorder = FlightRecorder(clock=clock)
        servable = DecodeServable(
            config,
            seed=1,
            block_size=2,
            kv_capacity_bytes=kv_cache_bytes(config, 2) * 1,
        )
        engine = ServingEngine(
            servable,
            config=EngineConfig(
                max_batch_size=2,
                scheduler="continuous",
                iteration_cost=IterationCost(),
            ),
            clock=clock,
            recorder=recorder,
        )
        with engine:
            # An over-budget swapped-out session can never be re-admitted
            # on a one-block pool: composing an iteration dooms it.
            servable.cache.open_session("huge", prompt_len=3)
            servable.cache.swap_out("huge")
            handle = engine.submit(
                decode_payload(3, 0, 0, config.dim), session_id="huge"
            )
            engine.run_until_idle()
            with pytest.raises(ServingError):
                handle.result(timeout=0)
        assert [b["reason"] for b in recorder.bundles] == ["doomed_session"]
        bundle = recorder.bundles[0]
        assert bundle["context"]["session_id"] == "huge"
        assert bundle["registry"] is not None
        assert [e["name"] for e in bundle["events"]] == ["doomed_session"]

    def test_serving_error_freezes_a_bundle(self):
        clock = SimulatedClock()
        recorder = FlightRecorder(clock=clock)
        engine = ServingEngine(
            EchoServable(fail=True),
            clock=clock,
            recorder=recorder,
        )
        with engine:
            handle = engine.submit(21)
            engine.step()
            with pytest.raises(RuntimeError):
                handle.result(timeout=0)
        assert [b["reason"] for b in recorder.bundles] == ["serving_error"]
        assert recorder.bundles[0]["context"]["error"] == "RuntimeError"

    def test_unrecorded_engine_stays_silent(self):
        engine = ServingEngine(EchoServable(fail=True), clock=SimulatedClock())
        with engine:
            handle = engine.submit(21)
            engine.step()
            with pytest.raises(RuntimeError):
                handle.result(timeout=0)  # no recorder, no crash


class TestClusterTrigger:
    def test_fail_replica_freezes_fleet_postmortem(self, tmp_path):
        clock = SimulatedClock()
        recorder = FlightRecorder(clock=clock, dump_dir=tmp_path)
        tracer = Tracer(clock=clock)
        recorder.attach(tracer)
        cluster = ServingCluster(
            lambda rid: EchoServable(),
            config=ClusterConfig(
                replicas=2,
                policy="round_robin",
                engine=EngineConfig(max_wait_us=0.0),
            ),
            clock=clock,
            tracer=tracer,
            recorder=recorder,
        )
        with cluster:
            handles = [cluster.submit(x) for x in range(4)]
            cluster.fail_replica(0)
            cluster.run_until_idle()
            results = [handle.result(timeout=0) for handle in handles]
        assert results == [0, 2, 4, 6]  # survivor served everything
        assert cluster.replicas[0].state == FAILED
        reasons = [b["reason"] for b in recorder.bundles]
        assert reasons == ["replica_failed"]
        bundle = recorder.bundles[0]
        assert bundle["context"]["replica_id"] == 0
        assert bundle["snapshot"] is not None  # fleet snapshot embedded
        assert bundle["registry"] is not None
        assert bundle["spans"], "traced lead-up spans ride in the bundle"
        assert recorder.dumped and recorder.dumped[0].exists()
