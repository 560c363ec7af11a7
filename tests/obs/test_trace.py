"""Tests for the structured tracer: spans, events, ambient context."""

import threading

import pytest

from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanCollector,
    Tracer,
    current_span,
    current_tracer,
)
from repro.serving.clock import SimulatedClock


class TestSpans:
    def test_nested_spans_record_parent_links(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert [span.name for span in tracer.collector.spans()] == [
            "outer", "inner",
        ]

    def test_span_ids_are_sequential(self):
        tracer = Tracer()
        for name in ("a", "b", "c"):
            with tracer.span(name):
                pass
        assert [span.span_id for span in tracer.collector.spans()] == [0, 1, 2]

    def test_attributes_and_events(self):
        tracer = Tracer(clock=SimulatedClock())
        with tracer.span("work", size=4) as span:
            span.add_event("milestone", progress=0.5)
            span.set_attr("done", True)
        assert span.attrs == {"size": 4, "done": True}
        assert [event.name for event in span.events] == ["milestone"]
        assert span.events[0].attrs == {"progress": 0.5}

    def test_simulated_clock_stamps_virtual_time(self):
        clock = SimulatedClock()
        tracer = Tracer(clock=clock)
        span = tracer.start_span("tick")
        clock.advance(1.5)
        tracer.end(span)
        assert span.start == 0.0
        assert span.end == 1.5

    def test_end_is_idempotent(self):
        clock = SimulatedClock()
        tracer = Tracer(clock=clock)
        span = tracer.start_span("once")
        clock.advance(1.0)
        tracer.end(span)
        clock.advance(1.0)
        tracer.end(span)
        assert span.end == 1.0

    def test_as_dict_shape(self):
        tracer = Tracer(clock=SimulatedClock())
        with tracer.span("shaped", k=1) as span:
            span.add_event("e")
        payload = span.as_dict()
        assert set(payload) == {
            "span_id", "parent_id", "name", "start", "end", "attrs", "events",
        }
        assert payload["events"][0]["name"] == "e"


class TestAmbientContext:
    def test_default_tracer_is_null(self):
        assert current_tracer() is NULL_TRACER
        assert current_span() is None

    def test_activate_sets_and_restores(self):
        tracer = Tracer()
        with tracer.activate():
            assert current_tracer() is tracer
            with tracer.span("ambient") as span:
                assert current_span() is span
        assert current_tracer() is NULL_TRACER

    def test_explicit_parent_crosses_threads(self):
        """Pool threads have no ambient context: the caller captures
        the parent and re-activates it explicitly on the worker."""
        tracer = Tracer()
        parent = tracer.start_span("caller")
        seen = {}

        def worker():
            with tracer.activate(parent):
                with tracer.span("worker") as span:
                    seen["parent_id"] = span.parent_id

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        tracer.end(parent)
        assert seen["parent_id"] == parent.span_id

    def test_null_tracer_spans_are_free(self):
        with NULL_TRACER.span("ignored") as span:
            span.add_event("nothing")
            span.set_attr("k", 1)
        assert isinstance(NULL_TRACER, NullTracer)

    def test_null_tracer_full_interface(self):
        assert NULL_TRACER.now() == 0.0
        span = NULL_TRACER.start_span("ignored", parent=None, k=1)
        assert span.as_dict() == {}
        assert span.span_id == -1
        NULL_TRACER.end(span)
        NULL_TRACER.event("nothing", k=2)
        with NULL_TRACER.activate():
            assert current_tracer() is NULL_TRACER

    def test_wall_clock_fallback_is_monotonic(self):
        tracer = Tracer()
        with tracer.span("timed") as span:
            pass
        assert span.end >= span.start

    def test_event_helper_targets_ambient_span(self):
        tracer = Tracer()
        tracer.event("dropped")  # no ambient span: silently ignored
        with tracer.span("holder") as span:
            tracer.event("kept", n=1)
        assert [event.name for event in span.events] == ["kept"]


class TestCollector:
    def test_roots_children_and_find(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child"):
                pass
        collector = tracer.collector
        assert [span.name for span in collector.roots()] == ["root"]
        assert [
            span.name for span in collector.children_of(root.span_id)
        ] == ["child"]
        assert collector.find("child")[0].parent_id == root.span_id
        assert len(collector) == 2

    def test_clear(self):
        tracer = Tracer()
        with tracer.span("gone"):
            pass
        tracer.collector.clear()
        assert len(tracer.collector) == 0

    def test_shared_collector(self):
        collector = SpanCollector()
        a = Tracer(collector=collector)
        b = Tracer(collector=collector)
        with a.span("from-a"):
            pass
        with b.span("from-b"):
            pass
        assert {span.name for span in collector.spans()} == {
            "from-a", "from-b",
        }


class TestValidation:
    def test_span_requires_name(self):
        with pytest.raises((TypeError, ValueError)):
            Span()  # type: ignore[call-arg]
