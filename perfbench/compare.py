"""Compare two benchmark results metric by metric.

::

    python3 perfbench/compare.py OLD.json NEW.json

Either file may be one run (``run.py --out``) or a whole suite
(``run.py --all``); runs are matched by workload and trace mode.  Each
metric with raw samples on both sides gets a verdict:

* ``regressed`` / ``improved``: the medians differ in the metric's
  worse / better direction by more than its threshold, and a two-sided
  Mann-Whitney U test on the raw samples gives p < 0.01;
* ``noise``: anything else.

The threshold is the metric's ``bound`` in ``BENCHMARK.json`` when it
has one, else :data:`DEFAULT_THRESHOLD`, and never less than the old
run's own spread (interquartile range over median).  Metrics without a
declared direction report ``changed`` instead of a direction.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

from scipy.stats import mannwhitneyu

DEFAULT_THRESHOLD = 0.10
ALPHA = 0.01
TIME_UNITS = ("s", "ms", "us")


def _spread(samples: list[float]) -> float:
    if len(samples) < 4:
        return 0.0
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / abs(median) if median else 0.0


def _direction(name: str, unit: str, spec: dict) -> str | None:
    for metric in spec.get("end_to_end", []) + spec.get("per_layer", []):
        if metric["name"] == name:
            return metric["better"]
    return "lower" if unit in TIME_UNITS else None


def _bound(name: str, spec: dict) -> float:
    for metric in spec.get("end_to_end", []):
        if metric["name"] == name:
            return metric["bound"]
    return DEFAULT_THRESHOLD


def compare_runs(old: dict, new: dict, spec: dict) -> dict[str, dict]:
    """Per-metric verdicts for two runs of the same workload and mode."""
    rows = {}
    for name, before in old["metrics"].items():
        after = new["metrics"].get(name)
        a, b = before.get("samples"), (after or {}).get("samples")
        if not a or not b or len(a) < 3 or len(b) < 3:
            continue
        base, now = statistics.median(a), statistics.median(b)
        change = (now - base) / abs(base) if base else (0.0 if now == base else float("inf"))
        threshold = max(_bound(name, spec), _spread(a))
        p_value = 1.0 if a == b else float(mannwhitneyu(a, b).pvalue)
        verdict = "noise"
        if p_value < ALPHA and abs(change) > threshold:
            better = _direction(name, before["unit"], spec)
            if better is None:
                verdict = "changed"
            else:
                worse = change > 0 if better == "lower" else change < 0
                verdict = "regressed" if worse else "improved"
        rows[name] = {
            "old": base,
            "new": now,
            "change": change,
            "threshold": threshold,
            "p_value": p_value,
            "unit": before["unit"],
            "verdict": verdict,
        }
    return rows


def _runs(result: dict) -> dict[tuple[str, int], dict]:
    runs = result["runs"] if "runs" in result else [result]
    return {(run["workload"], run["trace"]): run for run in runs}


def compare(old: dict, new: dict, spec: dict) -> dict[tuple[str, int], dict]:
    """Verdicts for every run present in both results."""
    before, after = _runs(old), _runs(new)
    return {
        key: compare_runs(before[key], after[key], spec)
        for key in before
        if key in after
    }


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        old = json.load(handle)
    with open(argv[1]) as handle:
        new = json.load(handle)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    regressed = False
    for (workload, trace), rows in compare(old, new, spec).items():
        print(f"# {workload} trace={trace}")
        for name, row in rows.items():
            print(
                f"{name:45s} {row['old']:12.6g} -> {row['new']:12.6g} {row['unit']:6s}"
                f" {100 * row['change']:+7.1f}%  p={row['p_value']:.3g}  {row['verdict']}"
            )
            regressed |= row["verdict"] == "regressed"
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
