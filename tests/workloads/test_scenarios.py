"""The scenario catalogue: settings overlay, builders and the decode oracle."""

import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import repro
from repro.serving import DecodeSessionSpec
from repro.serving.loadgen import bit_equal, sequential_decode
from repro.workloads.llm import decode_servable
from repro.workloads.scenarios import (
    DECODER,
    FLEET,
    SCENARIOS,
    HotpathConfig,
    configure,
    decode_arrivals,
    decode_token,
    drive_fleet,
    fleet,
)


class TestCatalogue:
    def test_names(self):
        assert list(SCENARIOS) == [
            "serve-vit", "serve-bert", "fleet-vit", "fleet-decode",
            "fleet-autoscale", "hotpath", "demo",
        ]

    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_default_round_trips_through_its_dict(self, name):
        default, _ = SCENARIOS[name]
        assert type(default).from_dict(default.to_dict()) == default
        assert configure(default, {}) == default

    def test_importing_the_workload_models_loads_no_scenario(self):
        script = (
            "import sys, repro.workloads.llm; "
            "print([m for m in ('repro.workloads.scenarios', 'repro.serving', "
            "'repro.cluster') if m in sys.modules])"
        )
        src = str(Path(repro.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": path},
        ).stdout
        assert out.strip() == "[]"


class TestConfigure:
    def test_mappings_merge_field_by_field(self):
        config = configure(FLEET, {"replicas": 5, "engine": {"max_batch_size": 2}})
        assert config == FLEET.replace(
            replicas=5, engine=FLEET.engine.replace(max_batch_size=2)
        )

    def test_a_non_mapping_replaces_the_default(self):
        assert configure(FLEET, {"service_model": None}).service_model is None
        config = configure(
            FLEET, {"service_model": None, "engine": {"iteration_cost": {"base_s": 0.0}}}
        )
        assert config.engine.iteration_cost.base_s == 0.0

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"bogus": 1}, "unknown ClusterConfig fields ['bogus']"),
            ({"engine": {"bogus": 1}}, "unknown EngineConfig fields ['bogus']"),
            ({"service_model": {"bogus": 1}}, "unknown IterationCost fields ['bogus']"),
            ([1], "ClusterConfig must be a JSON object, got list"),
        ],
    )
    def test_unknown_fields_name_the_class(self, overrides, message):
        with pytest.raises(ValueError, match=message.replace("[", r"\[")):
            configure(FLEET, overrides)

    def test_hotpath_config_checks_types_then_ranges(self):
        with pytest.raises(ValueError, match="repeats must be an int, got str"):
            HotpathConfig(repeats="3")
        with pytest.raises(ValueError, match="must be >= 1"):
            HotpathConfig(n=0)


class TestFleetDecode:
    def test_outputs_are_bit_equal_to_sequential_decode(self):
        """fleet-decode's builder and driver, checked session by session
        against each session decoded alone on a batch-1 engine."""
        requests, rate = 24, 8_000.0
        config = FLEET
        with fleet(config, "decode") as cluster:
            report = drive_fleet(cluster, "decode", requests=requests, rate=rate)
        arrivals = decode_arrivals(config.engine.seed, requests, rate)
        assert report["completed"] == len(arrivals) == len(report["handles"]) > 0
        steps, served = defaultdict(list), defaultdict(list)
        for arrival, handle in zip(arrivals, report["handles"]):
            steps[arrival.session].append(arrival)
            served[arrival.session].append(handle.result(timeout=0))
        sessions = sorted(steps)
        specs = [DecodeSessionSpec(s, 0.0, len(steps[s])) for s in sessions]
        oracle = sequential_decode(
            lambda: decode_servable(DECODER, engine=config.engine),
            specs,
            lambda i, t: decode_token(steps[sessions[i]][t]),
        )
        assert len(sessions) > 1 and max(map(len, steps.values())) > 1
        assert bit_equal(dict(served), oracle)
