"""Tests for trace export (JSONL + Chrome trace-event) and the demo."""

import json

import pytest

from repro.core.hotpath import STAGES
from repro.obs import (
    Tracer,
    to_chrome_trace,
    to_jsonl,
    write_jsonl,
    write_trace,
)
from repro.obs.demo import run_trace_workload, run_workload
from repro.obs.export import _atomic_write_text
from repro.serving.clock import SimulatedClock


def sample_collector():
    clock = SimulatedClock()
    tracer = Tracer(clock=clock)
    with tracer.span("root", kind="demo") as root:
        root.add_event("started", step=1)
        clock.advance(1e-3)
        with tracer.span("child"):
            clock.advance(2e-3)
    return tracer.collector


class TestJsonl:
    def test_one_sorted_line_per_span(self):
        lines = to_jsonl(sample_collector()).splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["name"] == "root"
        assert first["events"][0]["name"] == "started"
        # Canonical form: sorted keys, compact separators.
        assert lines[0] == json.dumps(
            first, sort_keys=True, separators=(",", ":")
        )

    def test_empty_collector_dumps_empty_string(self):
        assert to_jsonl(Tracer().collector) == ""

    def test_write_jsonl_round_trips(self, tmp_path):
        path = write_jsonl(sample_collector(), tmp_path / "trace.jsonl")
        lines = path.read_text().splitlines()
        assert [json.loads(line)["name"] for line in lines] == [
            "root", "child",
        ]


class TestChromeTrace:
    def test_complete_events_in_microseconds(self):
        payload = to_chrome_trace(sample_collector())
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        by_name = {event["name"]: event for event in complete}
        assert by_name["root"]["dur"] == 3e3  # 3 ms in us
        assert by_name["child"]["ts"] == 1e3
        assert by_name["child"]["args"]["parent_id"] == 0

    def test_span_events_become_instants_on_root_track(self):
        payload = to_chrome_trace(sample_collector())
        instants = [e for e in payload["traceEvents"] if e["ph"] == "i"]
        assert [event["name"] for event in instants] == ["root.started"]
        assert instants[0]["args"] == {"step": 1}
        # Both spans share the root's track.
        tids = {event["tid"] for event in payload["traceEvents"]}
        assert tids == {0}

    def test_write_trace_dispatches_by_extension(self, tmp_path):
        collector = sample_collector()
        jsonl = write_trace(collector, tmp_path / "trace.jsonl")
        chrome = write_trace(collector, tmp_path / "trace.json")
        assert jsonl.read_text().startswith("{")
        assert "traceEvents" in json.loads(chrome.read_text())
        assert json.loads(jsonl.read_text().splitlines()[0])["name"] == "root"

    def test_unknown_extension_gets_chrome_form(self, tmp_path):
        path = write_trace(sample_collector(), tmp_path / "trace.out")
        assert "traceEvents" in json.loads(path.read_text())

    def test_unfinished_span_is_flagged_incomplete(self):
        clock = SimulatedClock()
        tracer = Tracer(clock=clock)
        tracer.start_span("crashed")  # never ended
        with tracer.span("fine"):
            clock.advance(1e-3)
        payload = to_chrome_trace(tracer.collector)
        by_name = {
            e["name"]: e for e in payload["traceEvents"] if e["ph"] == "X"
        }
        assert by_name["crashed"]["args"]["incomplete"] is True
        assert by_name["crashed"]["dur"] == 0.0
        assert "incomplete" not in by_name["fine"]["args"]

    def test_orphan_parent_anchors_own_track(self):
        """A span whose parent was never collected gets its own track."""
        clock = SimulatedClock()
        foreign = Tracer(clock=clock)
        parent = foreign.start_span("uncollected")
        tracer = Tracer(clock=clock)
        with tracer.span("orphan", parent=parent):
            clock.advance(1e-3)
            with tracer.span("grandchild"):
                clock.advance(1e-3)
        payload = to_chrome_trace(tracer.collector)
        orphan_id = tracer.collector.find("orphan")[0].span_id
        events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        # The orphan anchors the track; its descendant joins it.
        assert {event["tid"] for event in events} == {orphan_id}


class TestAtomicWrite:
    def test_replaces_existing_file_without_tmp_residue(self, tmp_path):
        target = tmp_path / "dump.jsonl"
        target.write_text("old contents\n")
        _atomic_write_text(target, "new contents\n")
        assert target.read_text() == "new contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["dump.jsonl"]

    def test_accepts_str_paths(self, tmp_path):
        target = tmp_path / "dump.jsonl"
        _atomic_write_text(str(target), "text\n")
        assert target.read_text() == "text\n"

    def test_failure_leaves_target_untouched_and_cleans_tmp(self, tmp_path):
        target = tmp_path / "dump.jsonl"
        target.write_text("original\n")
        with pytest.raises(TypeError):
            _atomic_write_text(target, object())  # write() rejects it
        assert target.read_text() == "original\n"
        assert [p.name for p in tmp_path.iterdir()] == ["dump.jsonl"]


class TestDemoWorkload:
    def test_jsonl_is_byte_identical_across_reruns(self):
        first = to_jsonl(run_trace_workload(seed=3, requests=8))
        second = to_jsonl(run_trace_workload(seed=3, requests=8))
        assert first == second
        assert first != to_jsonl(run_trace_workload(seed=3, requests=9))

    def test_span_chain_reaches_the_stages(self):
        collector = run_trace_workload(seed=0, requests=8)
        by_id = {span.span_id: span for span in collector.spans()}
        names = {span.name for span in collector.spans()}
        assert {
            "request", "engine.iteration", "engine.batch", "shard.matmul",
            "shard.core", "stage.sample", "stage.encode",
            "stage.compute", "stage.detect",
        } <= names
        compute = collector.find("stage.compute")[0]
        chain = []
        span = compute
        while span.parent_id is not None:
            span = by_id[span.parent_id]
            chain.append(span.name)
        assert chain == [
            "shard.core", "shard.matmul", "engine.batch", "engine.iteration",
        ]
        # Every span of each kind, not just the first, has its parent.
        parents = {
            "engine.batch": "engine.iteration",
            "shard.matmul": "engine.batch",
            "shard.core": "shard.matmul",
            **{f"stage.{name}": "shard.core" for name in STAGES},
        }
        for name, parent in parents.items():
            spans = collector.find(name)
            assert {by_id[span.parent_id].name for span in spans} == {parent}

    def test_request_spans_carry_lifecycle_events(self):
        collector = run_trace_workload(seed=0, requests=8)
        requests = collector.find("request")
        assert len(requests) == 8
        for span in requests:
            assert span.parent_id is None
            events = [event.name for event in span.events]
            assert events[0] == "submit"
            assert "dispatch" in events
            assert "complete" in events

    def test_untraced_workload_collects_nothing(self):
        collector, results, snapshot = run_workload(seed=0, requests=4)
        assert collector is None
        assert len(results) == 4
        assert snapshot["completed"] == 4
