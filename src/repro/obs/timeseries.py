"""Windowed metric time series and multi-window SLO burn-rate alerts.

:class:`TimeSeriesRecorder` samples a
:class:`~repro.obs.registry.MetricsRegistry` snapshot on a cadence and
answers *windowed* questions — counter deltas, rates, and histogram
distributions over the trailing W seconds — by differencing cumulative
snapshots, the standard Prometheus evaluation model.  Everything is
driven by explicit timestamps, so under a
:class:`~repro.serving.clock.SimulatedClock` the sample series and
every derived number are exact functions of the workload.

:class:`SLOMonitor` evaluates service-level objectives on top.  An
objective states a *good-event* target (``target=0.95`` = 95% of
requests good); the monitor measures the bad-event fraction over a
window and converts it to a **burn rate** — how many times faster than
sustainable the error budget ``1 - target`` is being consumed:

    burn = bad_fraction(window) / (1 - target)

Alerting uses the SRE multi-window rule: a (long, short) window pair
fires only when *both* burn rates exceed the threshold — the long
window proves the budget spend is real, the short window proves it is
still happening (fast reset).  Transitions land in a deterministic
alert ledger (``tests/obs/test_timeseries.py`` pins its exact
reproducibility on an overloaded fleet), and :meth:`SLOMonitor.firing` feeds the
:class:`~repro.cluster.autoscaler.Autoscaler`'s optional SLO input.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

__all__ = [
    "Alert",
    "BurnWindow",
    "DEFAULT_BURN_WINDOWS",
    "SLObjective",
    "SLOMonitor",
    "TimeSeriesRecorder",
    "error_rate_objective",
    "latency_objective",
]


class TimeSeriesRecorder:
    """Cadenced registry snapshots with windowed-delta reads.

    Args:
        registry: the :class:`MetricsRegistry` to sample.
        interval_s: minimum spacing between samples (:meth:`maybe_sample`
            is a no-op until it elapses).
        max_samples: ring bound on retained samples — memory stays
            O(max_samples) on unbounded runs; windows longer than the
            retained horizon clip to the oldest sample.
    """

    def __init__(
        self,
        registry,
        *,
        interval_s: float = 1.0,
        max_samples: int = 512,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        if max_samples < 2:
            raise ValueError(f"max_samples must be >= 2, got {max_samples}")
        self.registry = registry
        self.interval_s = interval_s
        self._samples: deque[tuple[float, dict]] = deque(maxlen=max_samples)
        self._last_sample_at = -float("inf")

    # -- write side -----------------------------------------------------------
    def sample(self, now: float) -> None:
        """Record one snapshot at ``now`` unconditionally."""
        self._last_sample_at = now
        self._samples.append((now, self.registry.snapshot()))

    def maybe_sample(self, now: float) -> bool:
        """Sample if the cadence interval has elapsed; did it?"""
        if now - self._last_sample_at < self.interval_s:
            return False
        self.sample(now)
        return True

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def latest_time(self) -> float | None:
        return self._samples[-1][0] if self._samples else None

    # -- window selection -----------------------------------------------------
    def _window_pair(self, window_s: float) -> tuple[dict, dict] | None:
        """(baseline, latest) snapshots spanning the trailing window.

        The baseline is the newest sample at or before
        ``latest - window_s`` (clipping to the oldest retained sample),
        so the delta covers *at least* the requested window once enough
        history exists.
        """
        if len(self._samples) < 2:
            return None
        latest_t, latest = self._samples[-1]
        cutoff = latest_t - window_s
        baseline = self._samples[0][1]
        for t, snap in self._samples:
            if t <= cutoff:
                baseline = snap
            else:
                break
        return baseline, latest

    @staticmethod
    def _value(snapshot: dict, name: str, labels: dict | None) -> Any:
        wanted = {str(k): str(v) for k, v in (labels or {}).items()}
        for row in snapshot.get(name, []):
            if row["labels"] == wanted:
                return row["value"]
        return None

    # -- reads ----------------------------------------------------------------
    def counter_delta(
        self, name: str, window_s: float, labels: dict | None = None
    ) -> float:
        """Counter increase over the trailing window (0.0 pre-history)."""
        pair = self._window_pair(window_s)
        if pair is None:
            return 0.0
        baseline, latest = pair
        end = self._value(latest, name, labels) or 0.0
        start = self._value(baseline, name, labels) or 0.0
        return float(end) - float(start)

    def rate(
        self, name: str, window_s: float, labels: dict | None = None
    ) -> float:
        """Counter increase per second over the trailing window."""
        pair = self._window_pair(window_s)
        if pair is None:
            return 0.0
        delta = self.counter_delta(name, window_s, labels)
        # Actual elapsed time of the differenced pair, not the nominal
        # window — clipped windows report their true rate.
        latest_t = self._samples[-1][0]
        baseline_t = self._samples[0][0]
        cutoff = latest_t - window_s
        for t, _ in self._samples:
            if t <= cutoff:
                baseline_t = t
            else:
                break
        elapsed = latest_t - baseline_t
        return delta / elapsed if elapsed > 0 else 0.0

    def histogram_delta(
        self, name: str, window_s: float, labels: dict | None = None
    ) -> dict:
        """``{"count", "sum", "buckets"}`` deltas over the window.

        ``buckets`` maps each finite bound (as float) to its cumulative
        observation-count delta; ``count`` includes the implicit
        ``+Inf`` bucket.
        """
        empty = {"count": 0.0, "sum": 0.0, "buckets": {}}
        pair = self._window_pair(window_s)
        if pair is None:
            return empty
        baseline, latest = pair
        end = self._value(latest, name, labels)
        if end is None:
            return empty
        start = self._value(baseline, name, labels) or {
            "count": 0, "sum": 0.0, "buckets": {},
        }
        start_buckets = start.get("buckets", {})
        return {
            "count": float(end["count"]) - float(start.get("count", 0)),
            "sum": float(end["sum"]) - float(start.get("sum", 0.0)),
            "buckets": {
                float(bound): count - float(start_buckets.get(bound, 0))
                for bound, count in end["buckets"].items()
            },
        }

    def fraction_above(
        self,
        name: str,
        threshold: float,
        window_s: float,
        labels: dict | None = None,
    ) -> float:
        """Fraction of window observations above ``threshold``.

        Resolved at bucket granularity: the smallest bound at or above
        the threshold splits good from bad (thresholds between bounds
        round the split up, the conservative direction for an SLO).
        With no bound at or above the threshold only the ``+Inf``
        residue counts as bad.
        """
        delta = self.histogram_delta(name, window_s, labels)
        total = delta["count"]
        if total <= 0:
            return 0.0
        bounds = sorted(delta["buckets"])
        at_or_below = 0.0
        for bound in bounds:
            if bound >= threshold:
                at_or_below = delta["buckets"][bound]
                break
        else:
            at_or_below = delta["buckets"][bounds[-1]] if bounds else 0.0
        return max(total - at_or_below, 0.0) / total

    def percentile(
        self,
        name: str,
        q: float,
        window_s: float,
        labels: dict | None = None,
    ) -> float | None:
        """Bucket-resolved q-quantile of window observations.

        Returns the smallest bucket bound covering the quantile
        (Prometheus ``histogram_quantile``'s upper-bound flavour
        without interpolation), ``inf`` when it falls in the ``+Inf``
        bucket, and ``None`` with no observations.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"q must be in (0, 1], got {q}")
        delta = self.histogram_delta(name, window_s, labels)
        total = delta["count"]
        if total <= 0:
            return None
        needed = q * total
        for bound in sorted(delta["buckets"]):
            if delta["buckets"][bound] >= needed:
                return bound
        return float("inf")


#: SLO kinds: latency-style (histogram + threshold) or an error ratio.
KIND_LATENCY = "latency"
KIND_ERROR_RATE = "error_rate"


@dataclass(frozen=True)
class SLObjective:
    """One service-level objective.

    ``target`` is the good-event fraction promised (0.95 = "95% of
    requests are good"); the error budget is ``1 - target``.  Latency
    kinds read a histogram (``metric``) against ``threshold_s``;
    error-rate kinds ratio a bad counter over total counters.
    """

    name: str
    kind: str
    target: float
    metric: str = ""
    threshold_s: float = 0.0
    bad_metric: str = ""
    total_metrics: tuple[str, ...] = ()
    labels: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in (KIND_LATENCY, KIND_ERROR_RATE):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target must be in (0, 1), got {self.target}")
        if self.kind == KIND_LATENCY and not self.metric:
            raise ValueError(f"latency objective {self.name!r} needs a metric")
        if self.kind == KIND_ERROR_RATE and not (
            self.bad_metric and self.total_metrics
        ):
            raise ValueError(
                f"error-rate objective {self.name!r} needs bad_metric "
                "and total_metrics"
            )

    @property
    def budget(self) -> float:
        return 1.0 - self.target


def latency_objective(
    name: str,
    metric: str,
    threshold_s: float,
    *,
    target: float = 0.95,
    labels: dict | None = None,
) -> SLObjective:
    """Objective: ``target`` of observations finish within ``threshold_s``."""
    return SLObjective(
        name=name,
        kind=KIND_LATENCY,
        target=target,
        metric=metric,
        threshold_s=threshold_s,
        labels=tuple(sorted((labels or {}).items())),
    )


def error_rate_objective(
    name: str,
    bad_metric: str,
    total_metrics: tuple[str, ...],
    *,
    target: float = 0.999,
) -> SLObjective:
    """Objective: at most ``1 - target`` of requests fail."""
    return SLObjective(
        name=name,
        kind=KIND_ERROR_RATE,
        target=target,
        bad_metric=bad_metric,
        total_metrics=tuple(total_metrics),
    )


@dataclass(frozen=True)
class BurnWindow:
    """One (long, short) burn-rate window pair with its threshold."""

    label: str
    long_s: float
    short_s: float
    max_burn: float

    def __post_init__(self) -> None:
        if not 0 < self.short_s <= self.long_s:
            raise ValueError(
                f"need 0 < short_s <= long_s, got short={self.short_s}, "
                f"long={self.long_s}"
            )
        if self.max_burn <= 0:
            raise ValueError(f"max_burn must be > 0, got {self.max_burn}")


#: The classic SRE pairs: page on fast burn, ticket on slow burn.
DEFAULT_BURN_WINDOWS = (
    BurnWindow("fast", long_s=3600.0, short_s=300.0, max_burn=14.4),
    BurnWindow("slow", long_s=6 * 3600.0, short_s=1800.0, max_burn=6.0),
)


@dataclass(frozen=True)
class Alert:
    """One ledger entry: an objective/window pair changed state."""

    time: float
    objective: str
    window: str
    state: str  # "firing" | "resolved"
    burn_long: float
    burn_short: float

    def as_dict(self) -> dict:
        return {
            "time": self.time,
            "objective": self.objective,
            "window": self.window,
            "state": self.state,
            "burn_long": self.burn_long,
            "burn_short": self.burn_short,
        }


@dataclass
class _PairState:
    firing: bool = False


class SLOMonitor:
    """Evaluates objectives over a recorder; keeps the alert ledger.

    Drive it with :meth:`tick` (the cluster's ``maintain()`` does, when
    wired via ``slo_monitor=``): each tick cadence-samples the recorder
    and, on its own evaluation cadence, recomputes every
    (objective, window) burn pair, appending firing/resolved
    transitions to :attr:`ledger`.
    """

    def __init__(
        self,
        objectives,
        recorder: TimeSeriesRecorder,
        *,
        windows: tuple[BurnWindow, ...] = DEFAULT_BURN_WINDOWS,
        eval_interval_s: float | None = None,
    ) -> None:
        objectives = tuple(objectives)
        if not objectives:
            raise ValueError("SLOMonitor needs at least one objective")
        if not windows:
            raise ValueError("SLOMonitor needs at least one burn window")
        names = [objective.name for objective in objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate objective names: {names}")
        self.objectives = objectives
        self.recorder = recorder
        self.windows = tuple(windows)
        self.eval_interval_s = (
            eval_interval_s if eval_interval_s is not None
            else recorder.interval_s
        )
        self._last_eval_at = -float("inf")
        self._state: dict[tuple[str, str], _PairState] = {
            (objective.name, window.label): _PairState()
            for objective in objectives
            for window in self.windows
        }
        #: Every firing/resolved transition, in evaluation order.
        self.ledger: list[Alert] = []

    # -- measurement ----------------------------------------------------------
    def bad_fraction(self, objective: SLObjective, window_s: float) -> float:
        """The objective's bad-event fraction over the trailing window."""
        if objective.kind == KIND_LATENCY:
            return self.recorder.fraction_above(
                objective.metric,
                objective.threshold_s,
                window_s,
                labels=dict(objective.labels),
            )
        bad = self.recorder.counter_delta(objective.bad_metric, window_s)
        total = sum(
            self.recorder.counter_delta(name, window_s)
            for name in objective.total_metrics
        )
        return bad / total if total > 0 else 0.0

    def burn_rate(self, objective: SLObjective, window_s: float) -> float:
        """Error-budget consumption speed over the window (1.0 = on pace)."""
        return self.bad_fraction(objective, window_s) / objective.budget

    # -- evaluation -----------------------------------------------------------
    def tick(self, now: float) -> list[Alert]:
        """Sample + evaluate on cadence; returns newly ledgered alerts."""
        self.recorder.maybe_sample(now)
        if now - self._last_eval_at < self.eval_interval_s:
            return []
        self._last_eval_at = now
        new: list[Alert] = []
        for objective in self.objectives:
            for window in self.windows:
                burn_long = self.burn_rate(objective, window.long_s)
                burn_short = self.burn_rate(objective, window.short_s)
                firing = (
                    burn_long > window.max_burn
                    and burn_short > window.max_burn
                )
                state = self._state[(objective.name, window.label)]
                if firing != state.firing:
                    state.firing = firing
                    alert = Alert(
                        time=now,
                        objective=objective.name,
                        window=window.label,
                        state="firing" if firing else "resolved",
                        burn_long=burn_long,
                        burn_short=burn_short,
                    )
                    self.ledger.append(alert)
                    new.append(alert)
        return new

    # -- read side ------------------------------------------------------------
    def firing(self) -> list[str]:
        """Objective names with any window currently firing (sorted)."""
        return sorted(
            {
                name
                for (name, _), state in self._state.items()
                if state.firing
            }
        )

    def ledger_dicts(self) -> list[dict]:
        """The alert ledger as JSON-able dicts (the determinism gate)."""
        return [alert.as_dict() for alert in self.ledger]

    def status(self) -> list[dict]:
        """Per-objective live status rows (the ``repro top`` feed)."""
        rows = []
        for objective in self.objectives:
            windows = {
                window.label: {
                    "burn_long": self.burn_rate(objective, window.long_s),
                    "burn_short": self.burn_rate(objective, window.short_s),
                    "max_burn": window.max_burn,
                    "firing": self._state[
                        (objective.name, window.label)
                    ].firing,
                }
                for window in self.windows
            }
            rows.append(
                {
                    "objective": objective.name,
                    "firing": any(w["firing"] for w in windows.values()),
                    "windows": windows,
                }
            )
        return rows
