"""Tests for streaming span export and deterministic head sampling."""

import io
import json

import pytest

from repro.obs import (
    FanoutSink,
    SpanCollector,
    StreamingSpanWriter,
    TraceSampler,
    Tracer,
    is_incident,
    sampled_lines,
    span_lines,
)
from repro.serving.clock import SimulatedClock
from repro.workloads.scenarios import demo_workload


def nested_tracer(traces=3, children=2):
    """A tracer with several root spans, each with a few children."""
    clock = SimulatedClock()
    tracer = Tracer(clock=clock)
    for t in range(traces):
        with tracer.span(f"job-{t}"):
            for c in range(children):
                clock.advance(1e-3)
                with tracer.span(f"step-{c}"):
                    clock.advance(1e-3)
    return tracer


class TestTraceSampler:
    def test_rate_one_keeps_everything(self):
        tracer = nested_tracer()
        sampler = TraceSampler(1)
        for span in tracer.collector.spans():
            assert sampler.keep_trace(span)

    def test_rate_below_one_rejected(self):
        with pytest.raises(ValueError):
            TraceSampler(0)

    def test_decision_is_stable_across_instances(self):
        tracer = nested_tracer(traces=8)
        roots = [s for s in tracer.collector.spans() if s.parent_id is None]
        first = [TraceSampler(3).keep_trace(r) for r in roots]
        second = [TraceSampler(3).keep_trace(r) for r in roots]
        assert first == second
        # A rate-3 sampler over 8 distinct roots should split them.
        assert any(first) and not all(first)


class TestIsIncident:
    def test_error_attr_marks_incident(self):
        tracer = nested_tracer(traces=1, children=1)
        span = tracer.collector.spans()[0]
        assert not is_incident(span)
        span.attrs["error"] = "RuntimeError"
        assert is_incident(span)

    def test_incident_event_names(self):
        tracer = Tracer(clock=SimulatedClock())
        with tracer.span("work") as span:
            span.add_event("failover", target=1)
        assert is_incident(tracer.collector.spans()[0])


class TestStreamingSpanWriter:
    def test_streams_exactly_the_batch_lines(self):
        sink = io.StringIO()
        writer = StreamingSpanWriter(sink)
        demo_workload(requests=8, sink=writer)
        writer.close()
        collector = demo_workload(requests=8, traced=True)[0]
        assert sorted(sink.getvalue().splitlines()) == sorted(
            span_lines(collector)
        )

    def test_residency_is_open_spans_not_total(self):
        """A writer that retained every span would hold the open
        fraction flat at 1; a bounded one lets it fall with length."""

        def stream(requests):
            writer = StreamingSpanWriter(io.StringIO())
            demo_workload(requests=requests, sink=writer)
            assert writer.open_spans == 0  # workload ended every span
            writer.close()
            return writer

        single, double = stream(24), stream(48)
        assert 0 < 4 * single.peak_open < single.spans_seen < double.spans_seen
        assert (
            double.peak_open * single.spans_seen
            < single.peak_open * double.spans_seen
        )

    def test_output_is_end_order(self):
        sink = io.StringIO()
        writer = StreamingSpanWriter(sink)
        clock = SimulatedClock()
        tracer = Tracer(clock=clock, collector=writer)
        with tracer.span("outer"):
            clock.advance(1e-3)
            with tracer.span("inner"):
                clock.advance(1e-3)
        writer.close()
        names = [
            json.loads(line)["name"]
            for line in sink.getvalue().splitlines()
        ]
        assert names == ["inner", "outer"]  # children end first

    def test_path_sink_is_opened_and_closed(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        with StreamingSpanWriter(path) as writer:
            clock = SimulatedClock()
            tracer = Tracer(clock=clock, collector=writer)
            with tracer.span("solo"):
                clock.advance(1e-3)
        assert writer._handle.closed
        assert json.loads(path.read_text())["name"] == "solo"

    def test_close_flushes_still_open_spans(self):
        sink = io.StringIO()
        writer = StreamingSpanWriter(sink)
        clock = SimulatedClock()
        tracer = Tracer(clock=clock, collector=writer)
        tracer.start_span("never-ended")
        clock.advance(5e-3)
        writer.close()
        writer.close()  # idempotent
        row = json.loads(sink.getvalue())
        assert row["name"] == "never-ended"
        assert row["end"] == row["start"]  # un-ended serializes as start
        assert writer.open_spans == 0

    def test_sampling_drops_whole_traces(self):
        def stream(rate):
            sink = io.StringIO()
            with StreamingSpanWriter(sink, sampler=TraceSampler(rate)) as w:
                demo_workload(requests=12, sink=w)
            return sink.getvalue()

        full = stream(1)
        sampled = stream(3)
        assert 0 < len(sampled.splitlines()) < len(full.splitlines())
        assert set(sampled.splitlines()) < set(full.splitlines())
        # Sampled roots keep their entire trace: every emitted span's
        # parent (when emitted at all) is also in the output.
        kept = {
            json.loads(line)["span_id"] for line in sampled.splitlines()
        }
        for line in sampled.splitlines():
            parent = json.loads(line)["parent_id"]
            if parent is not None:
                assert parent in kept

    def test_sampled_stream_is_deterministic(self):
        def stream():
            sink = io.StringIO()
            with StreamingSpanWriter(sink, sampler=TraceSampler(2)) as w:
                demo_workload(requests=8, sink=w)
            return sink.getvalue()

        assert stream() == stream()

    def test_incident_spans_survive_sampling(self):
        sink = io.StringIO()
        writer = StreamingSpanWriter(
            sink, sampler=TraceSampler(10**9)  # drops effectively all
        )
        clock = SimulatedClock()
        tracer = Tracer(clock=clock, collector=writer)
        for index in range(4):
            with tracer.span(f"request-{index}") as span:
                if index == 2:
                    span.add_event("failed", error="RuntimeError")
                clock.advance(1e-3)
        writer.close()
        names = [
            json.loads(line)["name"]
            for line in sink.getvalue().splitlines()
        ]
        assert names == ["request-2"]
        assert writer.spans_dropped == 3

    def test_orphan_span_anchors_its_own_trace(self):
        sink = io.StringIO()
        writer = StreamingSpanWriter(sink, sampler=TraceSampler(1))
        clock = SimulatedClock()
        foreign = Tracer(clock=clock)  # its spans never reach the writer
        parent = foreign.start_span("foreign-parent")
        tracer = Tracer(clock=clock, collector=writer)
        span = tracer.start_span("orphan", parent=parent)
        tracer.end(span)
        writer.close()
        row = json.loads(sink.getvalue())
        assert row["name"] == "orphan"
        assert row["parent_id"] == parent.span_id  # link preserved
        assert writer._root_of == {}  # orphan trace fully pruned

    def test_trace_state_is_pruned_when_trace_finishes(self):
        sink = io.StringIO()
        writer = StreamingSpanWriter(sink, sampler=TraceSampler(1))
        clock = SimulatedClock()
        tracer = Tracer(clock=clock, collector=writer)
        for _ in range(5):
            with tracer.span("job"):
                with tracer.span("step"):
                    clock.advance(1e-3)
            assert writer._root_of == {}
            assert writer._members == {}
            assert writer._keep == {}
        writer.close()


class TestSampledLines:
    def test_matches_streamed_sampling(self):
        collector = demo_workload(requests=12, traced=True)[0]
        sink = io.StringIO()
        with StreamingSpanWriter(sink, sampler=TraceSampler(3)) as writer:
            demo_workload(requests=12, sink=writer)
        assert sorted(sampled_lines(collector, TraceSampler(3))) == sorted(
            sink.getvalue().splitlines()
        )

    def test_strict_subset_in_id_order(self):
        collector = demo_workload(requests=12, traced=True)[0]
        sampled = sampled_lines(collector, TraceSampler(3))
        full = span_lines(collector)
        assert set(sampled) < set(full)
        # id order == the order they appear in the full dump.
        assert [line for line in full if line in set(sampled)] == sampled


class TestFanoutSink:
    def test_tees_into_every_sink(self):
        collector = SpanCollector()
        sink = io.StringIO()
        writer = StreamingSpanWriter(sink)
        fanout = FanoutSink(collector, writer)
        clock = SimulatedClock()
        tracer = Tracer(clock=clock, collector=fanout)
        with tracer.span("both"):
            clock.advance(1e-3)
        writer.close()
        assert len(fanout) == 1
        assert fanout.spans()[0].name == "both"
        assert json.loads(sink.getvalue())["name"] == "both"

    def test_requires_sinks(self):
        with pytest.raises(ValueError):
            FanoutSink()

    def test_reads_need_a_collector(self):
        fanout = FanoutSink(StreamingSpanWriter(io.StringIO()))
        assert len(fanout) == 0
        with pytest.raises(TypeError):
            fanout.spans()
