"""The unified serving configuration API: EngineConfig / ClusterConfig
validation and JSON round-trips, config-object construction of engines,
clusters and servables, and config-only construction."""

import inspect

import numpy as np
import pytest

from repro.cluster import ClusterConfig, Replica, ServingCluster
from repro.serving import (
    EngineConfig,
    IterationCost,
    ServingEngine,
    SimulatedClock,
)
from repro.workloads.llm import DecoderConfig, decode_servable
from repro.workloads.transformer import TransformerConfig, servable_model

DECODER = DecoderConfig("config-test", depth=2, dim=16, heads=2, mlp_ratio=2.0)


class EchoServable:
    name = "echo"

    def prepare(self, payload):
        return payload

    def execute(self, requests):
        return [2 * request.payload for request in requests]


class TestEngineConfigValidation:
    @pytest.mark.parametrize(
        "changes",
        [
            {"max_batch_size": 0},
            {"max_wait_us": -1.0},
            {"max_wait_us": float("nan")},
            {"max_wait_us": float("inf")},
            {"queue_depth": 0},
            {"scheduler": "psychic"},
            {"num_cores": 0},
            {"shard_axis": "diagonal"},
            {"iteration_cost": "fast"},
            {"iteration_cost": {"base_s": 1e-3}},
            {"block_size": 0},
            {"kv_capacity_bytes": -1},
            {"kv_bits": 0},
        ],
    )
    def test_rejects_bad_fields(self, changes):
        with pytest.raises(ValueError):
            EngineConfig(**changes)

    def test_replace_revalidates(self):
        config = EngineConfig()
        assert config.replace(max_batch_size=4).max_batch_size == 4
        with pytest.raises(ValueError):
            config.replace(max_batch_size=0)

    def test_frozen(self):
        with pytest.raises(Exception):
            EngineConfig().max_batch_size = 2


class TestEngineConfigRoundTrip:
    def test_dict_round_trip_with_iteration_cost(self):
        config = EngineConfig(
            scheduler="continuous",
            iteration_cost=IterationCost(base_s=1e-4, per_request_s=2e-5),
            block_size=4,
            kv_capacity_bytes=4096,
            seed=3,
        )
        data = config.to_dict()
        assert data["iteration_cost"] == {"base_s": 1e-4, "per_request_s": 2e-5}
        assert EngineConfig.from_dict(data) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown EngineConfig fields"):
            EngineConfig.from_dict({"max_batch": 4})

    def test_partial_dict_uses_defaults(self):
        config = EngineConfig.from_dict({"max_batch_size": 2})
        assert config.max_batch_size == 2
        assert config.queue_depth == EngineConfig().queue_depth

    @pytest.mark.parametrize(
        "cost",
        [{"base_s": 1e-3, "bogus": 1}, {"base_s": "x"}, {"per_request_s": True}, 5],
        ids=["unknown-key", "string", "bool", "not-a-map"],
    )
    def test_from_dict_rejects_bad_iteration_cost(self, cost):
        with pytest.raises(ValueError):
            EngineConfig.from_dict({"iteration_cost": cost})


class TestClusterConfigValidation:
    def test_rejects_bad_fields(self):
        for changes in (
            {"replicas": 0},
            {"policy": "psychic"},
            {"max_retries": -1},
            {"memo_bytes": -1},
        ):
            with pytest.raises(ValueError):
                ClusterConfig(**changes)

    def test_service_model_excludes_iteration_cost(self):
        with pytest.raises(ValueError):
            ClusterConfig(
                service_model=IterationCost(),
                engine=EngineConfig(
                    scheduler="continuous",
                    iteration_cost=IterationCost(
                        base_s=1e-4, per_request_s=1e-5
                    ),
                ),
            )

    def test_dict_round_trip(self):
        config = ClusterConfig(
            replicas=3,
            policy="cache_aware",
            engine=EngineConfig(max_batch_size=4, scheduler="continuous"),
            shared_cache=True,
            memo_bytes=1 << 16,
        )
        assert ClusterConfig.from_dict(config.to_dict()) == config

    def test_from_dict_nested_service_model(self):
        data = ClusterConfig(service_model=IterationCost(base_s=5e-5)).to_dict()
        config = ClusterConfig.from_dict(data)
        assert config.service_model == IterationCost(base_s=5e-5)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            ClusterConfig.from_dict({"replica_count": 3})

    @pytest.mark.parametrize(
        "data",
        [
            {"service_model": {"bogus": 1}},
            {"service_model": {"base_s": "x"}},
            {"service_model": "fast"},
            {"engine": {"iteration_cost": {"base_s": "x"}}},
            {"engine": {"bogus": 2}},
            {"engine": 5},
            [1, 2],
        ],
        ids=[
            "unknown-cost-key", "string-cost", "string-model",
            "nested-string-cost", "unknown-engine-key", "engine-not-a-map",
            "not-a-map",
        ],
    )
    def test_from_dict_rejects_bad_nested_maps(self, data):
        with pytest.raises(ValueError):
            ClusterConfig.from_dict(data)


class TestConfigConstruction:
    def test_engine_accepts_config_object(self):
        config = EngineConfig(max_batch_size=2, max_wait_us=0.0, queue_depth=7)
        engine = ServingEngine(
            EchoServable(), config=config, clock=SimulatedClock()
        )
        assert engine.config is config
        with engine:
            handle = engine.submit(np.ones(3))
            engine.step()
            np.testing.assert_array_equal(handle.result(timeout=0), 2 * np.ones(3))

    def test_cluster_accepts_config_object(self):
        config = ClusterConfig(
            replicas=2,
            engine=EngineConfig(max_wait_us=0.0),
            close_executors=False,
        )
        with ServingCluster(
            lambda rid: EchoServable(), config=config, clock=SimulatedClock()
        ) as cluster:
            assert cluster.config is config
            assert cluster.fleet_size == 2
            handle = cluster.submit(np.ones(2))
            cluster.run_until_idle()
            np.testing.assert_array_equal(handle.result(timeout=0), 2 * np.ones(2))

    def test_servables_inherit_engine_geometry(self):
        engine = EngineConfig(block_size=4, kv_capacity_bytes=1 << 16, seed=5)
        servable = decode_servable(DECODER, engine=engine)
        assert servable.cache.block_size == 4
        assert servable.cache.pool.capacity_bytes == 1 << 16
        vit = TransformerConfig(
            "cfg-vit", depth=1, dim=32, heads=2, seq_len=17,
            n_classes=4, patch_size=4, image_size=16, in_channels=1,
        )
        a = servable_model(vit, engine=EngineConfig(seed=3))
        b = servable_model(vit, engine=EngineConfig(seed=3))
        image = np.random.default_rng(0).normal(size=(16, 16))
        np.testing.assert_array_equal(
            a.forward(image).data, b.forward(image).data
        )

    def test_explicit_kwargs_override_engine_fields(self):
        servable = decode_servable(
            DECODER, engine=EngineConfig(block_size=4), block_size=2
        )
        assert servable.cache.block_size == 2

    @pytest.mark.parametrize(
        "cls, runtime",
        [
            (
                ServingEngine,
                {"clock", "cache", "metrics", "tracer", "recorder",
                 "close_executor"},
            ),
            (
                ServingCluster,
                {"clock", "autoscaler", "tracer", "recorder", "slo_monitor"},
            ),
            (
                Replica,
                {"replica_id", "clock", "close_executor", "memo_cache",
                 "tracer", "recorder"},
            ),
        ],
    )
    def test_knobs_come_only_from_config(self, cls, runtime):
        """Constructors take a config plus runtime collaborators only:
        every batching/scheduling/fleet knob lives on the config."""
        params = set(inspect.signature(cls).parameters)
        assert params - {"servable", "factory", "config"} == runtime
