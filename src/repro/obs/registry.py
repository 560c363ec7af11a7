"""Unified telemetry registry: counters, gauges, histograms with labels.

:class:`MetricsRegistry` is the shared substrate the per-engine
:class:`~repro.serving.metrics.Metrics` and fleet-level
:class:`~repro.cluster.metrics.ClusterMetrics` recorders sit on: one
get-or-create instrument table keyed by ``(name, labels)``, one JSON
snapshot, and one Prometheus text exposition — so every layer's
telemetry shares naming, label semantics, and export formats.

Three instrument kinds:

* :class:`Counter` — monotone accumulator (``inc``).  Exact occupancy
  histograms are modelled as counter series labelled by bucket value
  (``size="4"``), which keeps them lossless across merges.
* :class:`Gauge` — last-written value (``set``).
* :class:`Histogram` — cumulative-bucket distribution (``observe``)
  with Prometheus ``le`` semantics (``+Inf`` implicit, ``sum`` and
  ``count`` tracked exactly).

Merging (:meth:`MetricsRegistry.merge_from`) sums counters and
histograms and takes the latest-written gauge — the semantics
fleet-level aggregation needs (per-replica recorders merge into one).

Everything is lock-protected and allocation-light; snapshots sort by
name then label so exports are byte-stable for a given state.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Callable, Iterable

#: Default histogram bucket upper bounds (seconds-flavoured, matching
#: the serving layer's latency scales under both real and virtual time).
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1,
    2.5e-1, 5e-1, 1.0, 2.5, 5.0, 10.0,
)


def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    """Canonical hashable form of a label set (values stringified)."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return ""
    body = ",".join(f'{name}="{_escape(value)}"' for name, value in key)
    return "{" + body + "}"


def _escape(value: str) -> str:
    """Prometheus label-value escaping (backslash, quote, newline)."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Integers print bare (``3`` not ``3.0``) for stable, tidy output."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return str(int(value))
    if isinstance(value, int) or (
        isinstance(value, float) and value.is_integer()
    ):
        return str(int(value))
    return repr(float(value))


class Counter:
    """Monotone accumulator."""

    kind = "counter"

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        self.value += amount

    def snapshot_value(self) -> float:
        return self.value

    def merge(self, other: "Counter") -> None:
        self.value += other.value


class Gauge:
    """Last-written value."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot_value(self) -> float:
        return self.value

    def merge(self, other: "Gauge") -> None:
        self.value = other.value


class Histogram:
    """Cumulative-bucket distribution with exact sum and count."""

    kind = "histogram"

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self.counts = [0] * len(bounds)  # per-bucket (non-cumulative)
        self.inf = 0  # observations above the largest bound
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.bounds, value)
        if index < len(self.bounds):
            self.counts[index] += 1
        else:
            self.inf += 1
        self.total += 1
        self.sum += value

    def cumulative(self) -> list[tuple[float, int]]:
        """Prometheus-style ``(le, cumulative_count)`` pairs."""
        out = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            out.append((bound, running))
        return out

    def snapshot_value(self) -> dict:
        return {
            "count": self.total,
            "sum": self.sum,
            "buckets": {
                _format_value(bound): count
                for bound, count in self.cumulative()
            },
        }

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError(
                "cannot merge histograms with different bucket bounds"
            )
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.inf += other.inf
        self.total += other.total
        self.sum += other.sum


class MetricsRegistry:
    """Get-or-create instrument table with JSON + Prometheus export."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: name -> label key -> instrument
        self._families: dict[str, dict[tuple, Any]] = {}
        #: name -> (kind, help)
        self._meta: dict[str, tuple[str, str]] = {}
        self._collectors: list[Callable[[], None]] = []

    def add_collector(self, collect: Callable[[], None]) -> None:
        """Call ``collect()`` before every read and every instrument
        lookup, so an instrument is current when it is handed out.

        The hook of an owner whose instruments are derived from state it
        keeps anyway (a request ledger folds its exact records into its
        counters and histograms): the owner updates them on read instead
        of on every write.  An instrument kept from an earlier lookup
        shows the values of that lookup until the next one.
        """
        self._collectors.append(collect)

    def _collect(self) -> None:
        for collect in self._collectors:
            collect()

    # -- instrument access ----------------------------------------------------
    def _instrument(
        self, name: str, kind: str, help: str, factory, labels: dict[str, Any]
    ):
        key = _label_key(labels)
        self._collect()
        with self._lock:
            meta = self._meta.get(name)
            if meta is None:
                self._meta[name] = (kind, help)
            elif meta[0] != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {meta[0]}, "
                    f"not {kind}"
                )
            family = self._families.setdefault(name, {})
            instrument = family.get(key)
            if instrument is None:
                instrument = factory()
                family[key] = instrument
            return instrument

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        return self._instrument(name, "counter", help, Counter, labels)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self._instrument(name, "gauge", help, Gauge, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        return self._instrument(
            name, "histogram", help, lambda: Histogram(buckets), labels
        )

    # -- read side ------------------------------------------------------------
    def series(self, name: str) -> list[tuple[dict[str, str], Any]]:
        """Every ``(labels, instrument)`` of one family, label-sorted."""
        self._collect()
        with self._lock:
            family = self._families.get(name, {})
            return [
                (dict(key), instrument)
                for key, instrument in sorted(family.items())
            ]

    def counter_series(self, name: str, label: str) -> dict[str, float]:
        """``{label value: count}`` of a single-label counter family.

        The read path of exact labelled histograms (occupancy counters).
        """
        return {
            labels[label]: instrument.value
            for labels, instrument in self.series(name)
            if label in labels
        }

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._meta)

    def snapshot(self) -> dict:
        """JSON-able dump: name -> list of {labels, kind, value} rows."""
        self._collect()
        with self._lock:
            families = {
                name: sorted(family.items())
                for name, family in self._families.items()
            }
            meta = dict(self._meta)
        return {
            name: [
                {
                    "labels": dict(key),
                    "kind": meta[name][0],
                    "value": instrument.snapshot_value(),
                }
                for key, instrument in families[name]
            ]
            for name in sorted(families)
        }

    def to_prometheus(self) -> str:
        """Prometheus text exposition (format 0.0.4)."""
        self._collect()
        with self._lock:
            families = {
                name: sorted(family.items())
                for name, family in self._families.items()
            }
            meta = dict(self._meta)
        lines: list[str] = []
        for name in sorted(families):
            kind, help = meta[name]
            if help:
                lines.append(f"# HELP {name} {help}")
            lines.append(f"# TYPE {name} {kind}")
            for key, instrument in families[name]:
                if kind == "histogram":
                    running = 0
                    for bound, cumulative in instrument.cumulative():
                        running = cumulative
                        bucket_key = key + (("le", _format_value(bound)),)
                        lines.append(
                            f"{name}_bucket{_format_labels(bucket_key)} "
                            f"{cumulative}"
                        )
                    inf_key = key + (("le", "+Inf"),)
                    lines.append(
                        f"{name}_bucket{_format_labels(inf_key)} "
                        f"{running + instrument.inf}"
                    )
                    lines.append(
                        f"{name}_sum{_format_labels(key)} "
                        f"{_format_value(instrument.sum)}"
                    )
                    lines.append(
                        f"{name}_count{_format_labels(key)} {instrument.total}"
                    )
                else:
                    lines.append(
                        f"{name}{_format_labels(key)} "
                        f"{_format_value(instrument.snapshot_value())}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    # -- merging --------------------------------------------------------------
    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry.

        Counters and histograms sum; gauges take the other's value
        (last write wins).  Families new to this registry are created.
        """
        other._collect()
        with other._lock:
            other_families = {
                name: list(family.items())
                for name, family in other._families.items()
            }
            other_meta = dict(other._meta)
        for name, rows in other_families.items():
            kind, help = other_meta[name]
            for key, instrument in rows:
                labels = dict(key)
                if kind == "counter":
                    self.counter(name, help, **labels).merge(instrument)
                elif kind == "gauge":
                    self.gauge(name, help, **labels).merge(instrument)
                else:
                    self.histogram(
                        name, help, buckets=instrument.bounds, **labels
                    ).merge(instrument)
