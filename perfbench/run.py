"""Run the repository benchmark.

One workload, one run (what a comparison driver calls)::

    python3 perfbench/run.py --workload vit-noisy --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
alternates untraced and traced rounds on two systems built alike and
reports the per-layer metrics.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and the metrics ``BENCHMARK.json`` lists for that mode; ``--out`` also
writes the full result (raw samples, checks, digests, environment).

Every workload, untraced and traced, into one result file::

    python3 perfbench/run.py --all --seed 1 --seconds 10 --out perfbench/out/result.json

Run from the repository root: the program is imported from ``src/``.
The exit status is 1 when an output check fails and 2 when the program
is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Share of a run's rounds, and of its set-ups, that the timing metrics
#: are taken from: the fastest ones, at least :data:`QUIET_MIN`.
#: On a shared host the program's speed changes by up to a factor of two
#: for seconds to minutes at a time as other tenants load the machine.
#: The fastest rounds are the ones that ran while it was quiet, and they
#: vary least between runs.
QUIET_SHARE = 0.05
QUIET_MIN = 5

#: Rounds after which ``peak_rss_mb`` is read.
RSS_ROUNDS = 5

#: Validity bounds of a traced run: traced over untraced wall time, and
#: the share of the wall time that no wrapped layer accounts for.
MAX_TRACE_OVERHEAD = 2.0
MAX_DRIVER_SHARE = 0.25

UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
    "modeled_latency_us": "us",
    "modeled_energy_uj": "uJ",
    "tokens_per_s": "1/s",
    "images_per_s": "1/s",
    "samples_per_s": "1/s",
    "step_p50_ms": "ms",
    "step_tail_ms": "ms",
    "ttft_p50_ms": "ms",
    "ttft_tail_ms": "ms",
    "tpot_p50_ms": "ms",
    "tpot_tail_ms": "ms",
}


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path, or exit with 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program at {SRC}/repro", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, ROOT]


# -- statistics ---------------------------------------------------------------
def tail(values: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return {"value": ordered[-1], "percentile": 100.0, "count": n}
    return {
        "value": ordered[n - 11],
        "percentile": round(100.0 * (n - 10) / n, 2),
        "count": n,
    }


def quiet(times: list[float]) -> list[int]:
    """Indices, in run order, of the fastest :data:`QUIET_SHARE` of ``times``."""
    keep = min(len(times), max(QUIET_MIN, math.ceil(QUIET_SHARE * len(times))))
    return sorted(sorted(range(len(times)), key=times.__getitem__)[:keep])


def _latency(prefix: str, seconds: list[float]) -> dict:
    """Median and tail in ms; the raw samples are stored once, with the
    median, to 0.1 us to bound the size of the result file."""
    samples = [1e3 * value for value in seconds]
    return {
        f"{prefix}_p50_ms": {
            "value": statistics.median(samples),
            "samples": [round(value, 4) for value in samples],
        },
        f"{prefix}_tail_ms": dict(tail(samples), samples_in=f"{prefix}_p50_ms"),
    }


def _digest(outputs) -> str:
    digest = hashlib.sha256()
    for output in outputs:
        digest.update(output.tobytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
    }


def _git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree.

    git runs only when the checkout has its own ``.git``, so a plain
    copy of the tree is never looked up in a repository above it.
    """
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


# -- runs ---------------------------------------------------------------------
def _timed_round(workload, system, gemms=None):
    """One round and its wall time; ``gemms`` records the executor's GEMM shapes."""
    start = time.perf_counter()
    with gemms() if gemms is not None else nullcontext() as shapes:
        result = workload.run_round(system)
    wall = time.perf_counter() - start
    if gemms is not None:
        result.counters["gemms"] = shapes
    return result, wall


def _timed_setup(workload):
    """A new system and the time its set-up took."""
    start = time.perf_counter()
    system = workload.build()
    return system, time.perf_counter() - start


def _rounds(workload, system, seconds: float, gemms):
    """Run rounds until ``seconds`` pass (at least one); ``gemms`` in the first.

    After each round one more system is set up, timed and closed, so
    set-ups are sampled across the whole run as rounds are.  Also
    returns the peak resident set (MB) after the first
    :data:`RSS_ROUNDS` rounds: a fixed amount of work, so a faster
    program does not read as one that uses more memory.
    """
    results, walls, setups = [], [], []
    peak_rss_mb = 0.0
    deadline = time.perf_counter() + seconds
    while not results or time.perf_counter() < deadline:
        result, wall = _timed_round(workload, system, None if results else gemms)
        results.append(result)
        walls.append(wall)
        spare, setup = _timed_setup(workload)
        workload.close(spare)
        setups.append(setup)
        if len(results) <= RSS_ROUNDS:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return results, walls, setups, peak_rss_mb


def run_untraced(workload, seconds: float) -> dict:
    """End-to-end metrics: set-up, timed rounds, then the oracle check.

    Every timing metric is taken from the quiet rounds and set-ups (see
    :data:`QUIET_SHARE`); the rates of all rounds and the times of all
    set-ups are kept beside them as ``all_samples``.
    """
    from perfbench.modeled import modeled_costs, recording_gemms

    system, setup = _timed_setup(workload)
    try:
        results, walls, setups, peak_rss_mb = _rounds(
            workload, system, seconds, recording_gemms
        )
    finally:
        workload.close(system)
    setups.insert(0, setup)
    oracle = workload.check(results[0].outputs)

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    first = results[0]
    modeled = modeled_costs(first.counters["gemms"], first.items)
    calm = quiet(walls)
    calm_setups = [setups[i] for i in quiet(setups)]

    def rate(count) -> dict:
        rates = [count(r) / wall for r, wall in zip(results, walls)]
        samples = [rates[i] for i in calm]
        return {"value": statistics.median(samples), "samples": samples, "all_samples": rates}

    metrics = {
        "setup_s": {
            "value": statistics.median(calm_setups),
            "samples": calm_setups,
            "all_samples": setups,
        },
        "peak_rss_mb": {"value": peak_rss_mb},
        "error_rate": {"value": failed / attempted},
        "modeled_latency_us": {"value": modeled["modeled_latency_us"]},
        "modeled_energy_uj": {"value": modeled["modeled_energy_uj"]},
        "tokens_per_s": rate(lambda r: r.tokens),
        workload.item + "s_per_s": rate(lambda r: r.items),
    }
    calm_results = [results[i] for i in calm]
    metrics.update(_latency("step", [s for r in calm_results for s in r.steps_s]))
    if first.ttft_s:
        metrics.update(_latency("ttft", [s for r in calm_results for s in r.ttft_s]))
        metrics.update(_latency("tpot", [s for r in calm_results for s in r.tpot_s]))
    for name, metric in metrics.items():
        metric["unit"] = UNITS[name]
    return {
        "rounds": len(results),
        "quiet_rounds": calm,
        "wall_s": sum(walls),
        "attempted": attempted,
        "failed": failed,
        "checks": {"oracle": oracle},
        "digest": _digest(first.outputs),
        "metrics": metrics,
    }


def run_traced(workload, seconds: float) -> dict:
    """Per-layer metrics from untraced and traced rounds, alternating.

    Two systems are built alike.  Each untraced round on the first is
    followed by the same round traced on the second, so both halves of
    a pair see the same load and ``trace.overhead`` (the median ratio
    of the pairs' wall times) compares like with like.
    """
    from perfbench.modeled import modeled_costs, recording_gemms
    from perfbench.spans import Recorder, rollup, targets, traced

    before = [vars(owner).get(name) for owner, name, _, _ in targets()]
    recorder = Recorder()
    plain, plain_walls, results, walls = [], [], [], []
    systems = []
    try:
        for _ in range(2):
            systems.append(workload.build())
        plain_system, traced_system = systems
        deadline = time.perf_counter() + seconds
        while not results or time.perf_counter() < deadline:
            result, wall = _timed_round(
                workload, plain_system, None if plain else recording_gemms
            )
            plain.append(result)
            plain_walls.append(wall)
            with traced(recorder), recorder.round():
                result, wall = _timed_round(workload, traced_system)
            results.append(result)
            walls.append(wall)
    finally:
        for system in systems:
            workload.close(system)
    after = [vars(owner).get(name) for owner, name, _, _ in targets()]
    rounds = rollup(recorder)
    modeled = modeled_costs(plain[0].counters["gemms"], plain[0].items)

    # Layer times come from the quiet traced rounds, as end-to-end times
    # come from the quiet untraced ones; the checks below cover every round.
    calm = quiet(walls)
    metrics = layer_metrics([rounds[i] for i in calm], [results[i] for i in calm])
    metrics["arch.tile_utilization"] = {"value": modeled["tile_utilization"], "unit": "ratio"}
    overhead = [wall / base for wall, base in zip(walls, plain_walls)]
    metrics["trace.overhead"] = {
        "value": statistics.median(overhead),
        "unit": "ratio",
        "samples": overhead,
    }
    residual = max(
        abs(
            sum(layer["caller_s"] for layer in r["layers"].values())
            + r["driver_s"]
            - r["wall_s"]
        )
        for r in rounds
    )
    driver_share = sum(r["driver_s"] for r in rounds) / sum(r["wall_s"] for r in rounds)
    return {
        "rounds": len(results),
        "quiet_rounds": calm,
        "wall_s": sum(walls),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "checks": {
            "traced_equals_untraced": all(
                _digest(a.outputs) == _digest(b.outputs) for a, b in zip(plain, results)
            ),
            "wrappers_restored": all(x is y for x, y in zip(before, after)),
            "self_times_sum_to_wall": residual <= 1e-9 * max(sum(walls), 1.0),
            "trace_overhead_bounded": metrics["trace.overhead"]["value"]
            <= MAX_TRACE_OVERHEAD,
            "driver_share_bounded": driver_share <= MAX_DRIVER_SHARE,
        },
        "digest": _digest(results[0].outputs),
        "sum_residual_s": residual,
        "driver_share": driver_share,
        "layers": [
            {key: value for key, value in r.items() if key != "counters"} for r in rounds
        ],
        "metrics": metrics,
    }


def layer_metrics(rounds: list[dict], results: list) -> dict:
    """Per-item layer self times and per-layer counters of a traced run."""
    from perfbench.spans import BOOKKEEPING, LAYERS

    items = [r.items for r in results]
    total_items = sum(items)

    def per_item_ms(values: list[float]) -> dict:
        return {
            "value": 1e3 * sum(values) / total_items,
            "unit": "ms",
            "samples": [1e3 * v / n for v, n in zip(values, items)],
        }

    def counter(key: str) -> list[float]:
        return [r["counters"].get(key, 0.0) for r in rounds]

    def ratio(num: str, den: str, empty: float = 0.0) -> dict:
        a, b = counter(num), counter(den)
        return {
            "value": sum(a) / sum(b) if sum(b) else empty,
            "unit": "ratio",
            "samples": [x / y if y else empty for x, y in zip(a, b)],
        }

    metrics = {}
    for layer in LAYERS + (BOOKKEEPING,):
        own = [
            r["layers"].get(layer, {}).get("caller_s", 0.0)
            + r["layers"].get(layer, {}).get("worker_s", 0.0)
            for r in rounds
        ]
        metrics[f"{layer}.self_ms"] = per_item_ms(own)
    metrics["driver.self_ms"] = per_item_ms([r["driver_s"] for r in rounds])
    for key, name in (("normals", "core.dptc.normals"), ("macs", "core.dptc.macs")):
        values = counter(key)
        metrics[name] = {
            "value": sum(values) / total_items,
            "unit": "count",
            "samples": [v / n for v, n in zip(values, items)],
        }
    metrics["core.sharding.imbalance"] = ratio("shard_max_s", "shard_mean_s", empty=1.0)
    metrics["neural.quantization.weight_repeat_share"] = ratio("repeat", "elements")
    kv = [u for r in rounds for u in r["counters"]["kv_util"]]
    metrics["serving.cache.kv_util"] = {
        "value": statistics.fmean(kv) if kv else 0.0,
        "unit": "ratio",
    }
    lanes = "compose_lanes" if sum(counter("compose_calls")) else "batch_lanes"
    calls = "compose_calls" if sum(counter("compose_calls")) else "batches"
    metrics["serving.scheduler.occupancy"] = dict(ratio(lanes, calls), unit="count")
    metrics["serving.scheduler.empty_share"] = ratio("compose_empty", "compose_calls")
    waits = [w for r in rounds for w in r["counters"]["waits"]]
    metrics["serving.engine.queue_wait_p50_ms"] = {
        "value": 1e3 * statistics.median(waits) if waits else 0.0,
        "unit": "ms",
    }
    per_round = {
        "serving.scheduler.preemptions": counter("preempted"),
        "cluster.prefix_adoptions": [r.counters.get("prefix_adoptions", 0) for r in results],
        "cluster.migrations": [r.counters.get("migrations", 0) for r in results],
    }
    for name, values in per_round.items():
        metrics[name] = {
            "value": statistics.fmean(values),
            "unit": "count",
            "samples": values,
        }
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; the full result."""
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    body = run_traced(workload, seconds) if trace else run_untraced(workload, seconds)
    body["correct"] = all(body["checks"].values())
    for metric in body["metrics"].values():
        if "samples" not in metric and "samples_in" not in metric:
            metric["samples"] = [metric["value"]]
    return {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(),
        **body,
    }


# -- output -------------------------------------------------------------------
def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def driver_line(result: dict, spec: dict) -> dict:
    """The last output line: the metrics ``BENCHMARK.json`` lists for the mode."""
    names = [m["name"] for m in spec["per_layer" if result["trace"] else "end_to_end"]]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {
                "value": result["metrics"][name]["value"],
                "unit": result["metrics"][name]["unit"],
            }
            for name in names
        },
    }


def describe(result: dict) -> list[str]:
    """Human-readable lines: every metric of the run with its unit."""
    lines = [
        f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
        f"rounds={result['rounds']} wall={result['wall_s']:.2f}s "
        f"checks={result['checks']} digest={result['digest']}"
    ]
    for name, metric in result["metrics"].items():
        extra = ""
        if "percentile" in metric:
            extra = f"  (p{metric['percentile']} of {metric['count']})"
        lines.append(f"{name:45s} {metric['value']:14.6g} {metric['unit']}{extra}")
    return lines


def run_all(seed: int, seconds: float, out: str) -> int:
    """Every workload untraced and traced, each in its own process."""
    from perfbench.workloads import WORKLOADS

    runs = []
    with tempfile.TemporaryDirectory(dir=os.path.dirname(out)) as scratch:
        for name in WORKLOADS:
            for trace in (0, 1):
                path = os.path.join(scratch, f"{name}-{trace}.json")
                subprocess.run(
                    [
                        sys.executable,
                        os.path.abspath(__file__),
                        "--workload", name,
                        "--seed", str(seed),
                        "--seconds", str(seconds),
                        "--trace", str(trace),
                        "--out", path,
                    ],
                    stdout=subprocess.DEVNULL,
                    check=False,
                )
                with open(path) as handle:
                    runs.append(json.load(handle))
    result = {"env": environment(), "seed": seed, "seconds": seconds, "runs": runs}
    with open(out, "w") as handle:
        json.dump(result, handle, separators=(",", ":"))
    for entry in runs:
        print("\n".join(describe(entry)))
    print(f"wrote {out}")
    return 0 if all(entry["correct"] for entry in runs) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full result here")
    args = parser.parse_args(argv)
    _import_program()
    spec = benchmark_spec()
    if args.all:
        out = args.out or os.path.join(ROOT, "perfbench", "out", "result.json")
        os.makedirs(os.path.dirname(out), exist_ok=True)
        return run_all(args.seed, args.seconds, out)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle, separators=(",", ":"))
    print("\n".join(describe(result)))
    print(json.dumps(driver_line(result, spec)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
