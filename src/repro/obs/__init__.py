"""repro.obs: deterministic tracing + the unified telemetry registry.

The observability subsystem of the serving stack:

* :mod:`repro.obs.trace` — clock-injected :class:`Tracer` emitting
  nested :class:`Span` trees (request lifecycle, iterations, shards,
  hot-path stages) into a :class:`SpanCollector`; the
  :data:`NULL_TRACER` default records nothing and leaves every output
  unchanged.
* :mod:`repro.obs.registry` — :class:`MetricsRegistry`
  (counters/gauges/histograms with labels) with JSON snapshot and
  Prometheus text exposition; the substrate under
  :class:`~repro.serving.metrics.Metrics` and
  :class:`~repro.cluster.metrics.ClusterMetrics`.
* :mod:`repro.obs.export` — JSONL and Chrome trace-event (Perfetto)
  writers; byte-stable under a simulated clock, atomic on disk.
* :mod:`repro.obs.stream` — :class:`StreamingSpanWriter` (bounded-memory
  JSONL export at span end) with deterministic head-based
  :class:`TraceSampler` policies that always keep incident spans.
* :mod:`repro.obs.recorder` — :class:`FlightRecorder`: a fixed-size
  ring of recent spans/events that freezes postmortem bundles when a
  replica fails, a session dooms, or a :class:`ServingError` fires.
* :mod:`repro.obs.timeseries` — :class:`TimeSeriesRecorder` (cadenced
  registry snapshots, windowed rates/percentiles) under an
  :class:`SLOMonitor` evaluating multi-window burn rates into a
  deterministic alert ledger.
* :mod:`repro.obs.live` — the ``repro top`` fleet table renderer and
  one-shot Prometheus HTTP exposition behind ``repro metrics``
  (``http.server`` loads when the first exposition is built).
* :mod:`repro.obs.demo` — the small noisy traced workload behind
  ``repro trace`` and the obs tests (imported lazily to keep this
  package import-light).
"""

from repro.obs.export import (
    span_line,
    span_lines,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_trace,
)
from repro.obs.live import FleetTop, MetricsExposition, render_fleet_table
from repro.obs.recorder import FlightRecorder
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.stream import (
    FanoutSink,
    StreamingSpanWriter,
    TraceSampler,
    is_incident,
    sampled_lines,
)
from repro.obs.timeseries import (
    Alert,
    BurnWindow,
    SLObjective,
    SLOMonitor,
    TimeSeriesRecorder,
    error_rate_objective,
    latency_objective,
)
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    SpanCollector,
    SpanEvent,
    Tracer,
    current_span,
    current_tracer,
)

__all__ = [
    "Alert",
    "BurnWindow",
    "Counter",
    "FanoutSink",
    "FleetTop",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsExposition",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "SLObjective",
    "SLOMonitor",
    "Span",
    "SpanCollector",
    "SpanEvent",
    "StreamingSpanWriter",
    "TimeSeriesRecorder",
    "TraceSampler",
    "Tracer",
    "current_span",
    "current_tracer",
    "error_rate_objective",
    "is_incident",
    "latency_objective",
    "render_fleet_table",
    "sampled_lines",
    "span_line",
    "span_lines",
    "to_chrome_trace",
    "to_jsonl",
    "write_chrome_trace",
    "write_jsonl",
    "write_trace",
]
