"""Tests for the top-level accelerator facade."""

import numpy as np
import pytest

from repro.arch import LighteningTransformer, lt_base, lt_large
from repro.core import NoiseModel
from repro.units import MJ, MS
from repro.workloads import GEMMOp, deit_tiny, gemm_trace


class TestFacade:
    @pytest.fixture
    def accelerator(self):
        return LighteningTransformer(lt_base(4))

    def test_defaults_to_lt_base(self):
        assert LighteningTransformer().config.name == "LT-B"

    def test_peak_tops(self, accelerator):
        assert accelerator.peak_tops == pytest.approx(138.24)

    def test_area_and_power_accessible(self, accelerator):
        assert accelerator.area().total_mm2 == pytest.approx(60.3, rel=0.05)
        assert accelerator.power().total == pytest.approx(14.75, rel=0.05)

    def test_run_transformer_config(self, accelerator):
        result = accelerator.run(deit_tiny())
        assert result.workload == "deit-tiny"
        assert result.latency / MS == pytest.approx(1.94e-2, rel=0.03)
        assert result.energy_joules / MJ == pytest.approx(0.38, rel=0.3)

    def test_run_gemm_trace(self, accelerator):
        result = accelerator.run(gemm_trace(deit_tiny()))
        assert result.cycles > 0
        assert result.fps == pytest.approx(1.0 / result.latency)

    def test_run_single_op(self, accelerator):
        result = accelerator.run([GEMMOp("probe", 12, 12, 12)])
        assert result.workload == "probe"
        assert result.cycles == 1

    def test_edp_consistency(self, accelerator):
        result = accelerator.run(deit_tiny())
        assert result.edp == pytest.approx(result.energy_joules * result.latency)

    def test_lt_large_faster(self):
        base = LighteningTransformer(lt_base()).run(deit_tiny())
        large = LighteningTransformer(lt_large()).run(deit_tiny())
        assert large.latency < base.latency


class TestFunctionalExecution:
    def test_ideal_matmul_exact(self):
        acc = LighteningTransformer(lt_base(), noise=NoiseModel.ideal())
        rng = np.random.default_rng(0)
        a = rng.normal(size=(20, 30))
        b = rng.normal(size=(30, 10))
        assert np.allclose(acc.matmul(a, b), a @ b)

    def test_noisy_matmul_close(self):
        acc = LighteningTransformer(lt_base(), noise=NoiseModel.paper_default())
        rng = np.random.default_rng(1)
        a = rng.normal(size=(24, 36))
        b = rng.normal(size=(36, 24))
        out = acc.matmul(a, b, rng=rng)
        rel = np.linalg.norm(out - a @ b) / np.linalg.norm(a @ b)
        assert 0.0 < rel < 0.2

    def test_dataflow_path_ideal(self):
        acc = LighteningTransformer(lt_base())
        rng = np.random.default_rng(2)
        a = rng.normal(size=(13, 25))
        b = rng.normal(size=(25, 17))
        assert np.allclose(acc.matmul_through_dataflow(a, b), a @ b)

    def test_dataflow_path_noisy(self):
        acc = LighteningTransformer(lt_base(), noise=NoiseModel.paper_default())
        rng = np.random.default_rng(3)
        a = rng.normal(size=(24, 24))
        b = rng.normal(size=(24, 24))
        out = acc.matmul_through_dataflow(a, b, rng=rng)
        rel = np.linalg.norm(out - a @ b) / np.linalg.norm(a @ b)
        assert 0.0 < rel < 0.4


class TestMultiCoreExecution:
    def test_full_grid_ideal_bit_exact(self):
        """Sharding over config.n_cores leaves ideal results bit-identical."""
        config = lt_base()
        single = LighteningTransformer(config)
        grid = LighteningTransformer(config, num_cores=config.n_cores)
        assert grid.num_cores == 8
        rng = np.random.default_rng(4)
        a = rng.normal(size=(12, 20, 30))
        b = rng.normal(size=(12, 30, 10))
        assert np.array_equal(grid.matmul(a, b), single.matmul(a, b))

    def test_noisy_grid_reproducible(self):
        acc = LighteningTransformer(
            lt_base(), noise=NoiseModel.paper_default(), num_cores=4
        )
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 24, 36))
        b = rng.normal(size=(6, 36, 24))
        first = acc.matmul(a, b, rng=np.random.default_rng(13))
        second = acc.matmul(a, b, rng=np.random.default_rng(13))
        assert np.array_equal(first, second)

    def test_dataflow_path_still_works_with_grid(self):
        acc = LighteningTransformer(lt_base(), num_cores=4)
        rng = np.random.default_rng(6)
        a = rng.normal(size=(13, 25))
        b = rng.normal(size=(25, 17))
        assert np.allclose(acc.matmul_through_dataflow(a, b), a @ b)

    def test_validation(self):
        with pytest.raises(ValueError):
            LighteningTransformer(lt_base(), num_cores=0)


class TestContractionShardedExecution:
    def test_contraction_grid_ideal_bit_exact(self):
        """K-axis sharding with digital accumulation stays bit-identical
        to the single logical core on the ideal path (exact digital
        partial-sum accumulation), non-divisible split included."""
        from repro.core import ShardedDPTC

        config = lt_base()
        grid = LighteningTransformer(
            config, num_cores=config.n_cores, shard_axis="contraction"
        )
        assert isinstance(grid._dptc, ShardedDPTC)
        assert grid._dptc.shard_axis == "contraction"
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 12, 29))  # 29 not divisible by 8 cores
        b = rng.normal(size=(5, 29, 10))
        assert np.array_equal(grid.matmul(a, b), np.matmul(a, b))
        # Performance models are unaffected by the functional knobs.
        assert grid.run(deit_tiny()).cycles == LighteningTransformer(
            config
        ).run(deit_tiny()).cycles

    def test_noisy_contraction_grid_reproducible(self):
        acc = LighteningTransformer(
            lt_base(),
            noise=NoiseModel.paper_default(),
            num_cores=4,
            shard_axis="contraction",
        )
        rng = np.random.default_rng(8)
        a = rng.normal(size=(4, 10, 25))
        b = rng.normal(size=(4, 25, 10))
        first = acc.matmul(a, b, rng=np.random.default_rng(17))
        second = acc.matmul(a, b, rng=np.random.default_rng(17))
        assert np.array_equal(first, second)

    def test_single_core_with_knobs_degenerates(self):
        """num_cores=1 + non-default knobs: sharded front-end, plain
        batched engine semantics."""
        acc = LighteningTransformer(lt_base(), shard_axis="contraction")
        rng = np.random.default_rng(9)
        a = rng.normal(size=(3, 8, 16))
        b = rng.normal(size=(3, 16, 8))
        assert np.array_equal(acc.matmul(a, b), np.matmul(a, b))

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            LighteningTransformer(lt_base(), num_cores=2, shard_axis="tile")
