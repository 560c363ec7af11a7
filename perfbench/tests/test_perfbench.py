"""Tests of the benchmark itself: wrappers, self-time accounting, compare.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import contextlib
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import compare, run, spans
from perfbench.workloads import DecodeCluster, TrainNoisy, VitNoisy

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _attributes():
    return [
        (owner, name, vars(owner).get(name, "absent"))
        for owner, name, _, _ in spans.targets()
    ]


@pytest.mark.parametrize(
    "workload",
    [VitNoisy(3, images=16), DecodeCluster(3, sessions=6), TrainNoisy(3, samples=32)],
    ids=lambda w: w.name,
)
def test_wrappers_restore_originals_and_keep_outputs_bit_identical(workload):
    before = _attributes()
    plain = workload.build()
    expected = workload.run_round(plain).outputs
    workload.close(plain)

    recorder = spans.Recorder()
    system = workload.build()
    with spans.traced(recorder):
        assert any(vars(owner).get(name) is not value for owner, name, value in before)
        with recorder.round():
            got = workload.run_round(system).outputs
    workload.close(system)

    assert all(vars(owner).get(name, "absent") is value for owner, name, value in before)
    assert len(got) == len(expected)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))
    assert recorder.spans


def test_self_times_plus_driver_equal_wall_time():
    workload = TrainNoisy(4, samples=32, epochs=1)
    recorder = spans.Recorder()
    model = workload.build()
    with spans.traced(recorder):
        for _ in range(2):
            with recorder.round():
                workload.run_round(model)
    workload.close(model)

    rounds = spans.rollup(recorder)
    assert len(rounds) == 2
    for out in rounds:
        caller = sum(layer["caller_s"] for layer in out["layers"].values())
        assert out["driver_s"] >= 0.0
        assert caller + out["driver_s"] == pytest.approx(out["wall_s"], rel=1e-9)
        # The sharded cores run on pool threads: busy time, not wall time.
        assert out["layers"]["core.dptc.sample"]["worker_s"] > 0.0
        assert out["layers"]["core.sharding"]["caller_s"] > 0.0
        assert out["counters"]["shard_max_s"] >= out["counters"]["shard_mean_s"] > 0.0


def test_tail_is_the_eleventh_largest_sample():
    values = [float(v) for v in range(1, 201)]
    tail = run.tail(values)
    assert tail["value"] == 190.0
    assert tail["count"] == 200
    assert tail["percentile"] == 95.0


def _run(workload, trace, delay=None):
    measure = run.run_traced if trace else run.run_untraced
    with spans.delayed(*delay) if delay else contextlib.nullcontext():
        result = measure(workload, 1.0)
    return dict(result, workload=workload.name, trace=trace)


def _merged(pieces):
    """One run whose samples are those of ``pieces``, in order."""
    merged = dict(pieces[0], metrics={})
    for name, metric in pieces[0]["metrics"].items():
        samples = [s for piece in pieces for s in piece["metrics"][name].get("samples", [])]
        merged["metrics"][name] = dict(metric, samples=samples)
    return merged


def test_compare_flags_an_injected_delay_and_calls_clean_reruns_noise():
    spec = _spec()
    # Large enough that tokens_per_s drops by well over its 0.24 bound.
    delay = ("neural.quantization", 200e-6)
    sides = {"clean": None, "rerun": None, "slow": delay}

    # Short runs of each side in turn, merged per side: the host's load
    # changes over seconds to minutes, and interleaving in a rotating
    # order, after a warm-up, puts every side under the same load.
    # Short rounds give the rank test enough samples to reach p < 0.01.
    for trace in (0, 1):
        _run(DecodeCluster(5, sessions=8), trace)
    pieces = {(side, trace): [] for side in sides for trace in (0, 1)}
    order = list(sides.items())
    for cycle in range(4):
        for side, injected in order[cycle % 3 :] + order[: cycle % 3]:
            for trace in (0, 1):
                pieces[side, trace].append(_run(DecodeCluster(5, sessions=8), trace, injected))
    clean, rerun, slow = (
        {"runs": [_merged(pieces[side, trace]) for trace in (0, 1)]} for side in sides
    )

    flagged = compare.compare(clean, slow, spec)
    assert flagged[("decode-cluster", 1)]["neural.quantization.self_ms"]["verdict"] == "regressed"
    assert flagged[("decode-cluster", 0)]["tokens_per_s"]["verdict"] == "regressed"
    assert flagged[("decode-cluster", 0)]["step_p50_ms"]["verdict"] == "regressed"

    same = compare.compare(clean, rerun, spec)
    watched = [m["name"] for m in spec["end_to_end"]] + ["neural.quantization.self_ms"]
    for rows in same.values():
        for name in watched:
            if name in rows:
                assert rows[name]["verdict"] == "noise", (name, rows[name])


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "vit-noisy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
