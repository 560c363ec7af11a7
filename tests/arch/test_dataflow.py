"""Tests for the output-stationary tiled dataflow."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import OutputStationarySchedule, lt_base, os_dataflow_matmul
from repro.core import DPTC, NoiseModel


class TestSchedule:
    @pytest.fixture
    def cfg(self):
        return lt_base()

    def test_tile_grid(self, cfg):
        schedule = OutputStationarySchedule(cfg, 24, 36, 48)
        assert (schedule.row_tiles, schedule.inner_tiles, schedule.col_tiles) == (
            2,
            3,
            4,
        )
        assert schedule.total_tiles == 24
        # Non-divisible shapes round up, through the geometry's one count.
        for (m, d, n), expected in [
            ((13, 25, 1), (2, 3, 1)),
            ((1, 1, 1), (1, 1, 1)),
            ((25, 13, 30), (3, 2, 3)),
        ]:
            schedule = OutputStationarySchedule(cfg, m, d, n)
            grid = (schedule.row_tiles, schedule.inner_tiles, schedule.col_tiles)
            assert grid == cfg.geometry.tile_counts(m, d, n) == expected

    def test_cycles_round_up_over_cores(self, cfg):
        schedule = OutputStationarySchedule(cfg, 24, 36, 48)
        assert schedule.total_cycles == 3  # 24 tiles / 8 cores

    def test_assignments_cover_all_tiles(self, cfg):
        schedule = OutputStationarySchedule(cfg, 25, 13, 30)
        seen = {
            (a.row_tile, a.inner_tile, a.col_tile) for a in schedule.assignments()
        }
        assert len(seen) == schedule.total_tiles

    def test_cores_in_range(self, cfg):
        schedule = OutputStationarySchedule(cfg, 24, 24, 24)
        assert all(0 <= a.core < cfg.n_cores for a in schedule.assignments())

    def test_contraction_sequential_per_output_block(self, cfg):
        """Output-stationarity: a core finishes one output block's
        contraction before starting the next (enables analog temporal
        accumulation)."""
        schedule = OutputStationarySchedule(cfg, 24, 48, 24)
        per_core: dict[int, list] = {}
        for a in schedule.assignments():
            per_core.setdefault(a.core, []).append(a)
        for assignments in per_core.values():
            assignments.sort(key=lambda a: a.cycle)
            previous_block = None
            inner_seen = -1
            for a in assignments:
                block = (a.row_tile, a.col_tile)
                if block != previous_block:
                    previous_block = block
                    inner_seen = -1
                assert a.inner_tile == inner_seen + 1
                inner_seen = a.inner_tile

    def test_validation(self, cfg):
        with pytest.raises(ValueError):
            OutputStationarySchedule(cfg, 0, 4, 4)


class TestExecution:
    @pytest.fixture
    def cfg(self):
        return lt_base()

    def test_exact_matmul(self, cfg):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(25, 37))
        b = rng.normal(size=(37, 29))
        assert np.allclose(os_dataflow_matmul(cfg, a, b), a @ b)

    def test_exact_with_awkward_shapes(self, cfg):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(1, 13))
        b = rng.normal(size=(13, 1))
        assert np.allclose(os_dataflow_matmul(cfg, a, b), a @ b)

    @settings(max_examples=15, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=30),
        d=st.integers(min_value=1, max_value=30),
        n=st.integers(min_value=1, max_value=30),
    )
    def test_exact_matmul_property(self, m, d, n):
        cfg = lt_base()
        rng = np.random.default_rng(m * 900 + d * 30 + n)
        a = rng.normal(size=(m, d))
        b = rng.normal(size=(d, n))
        assert np.allclose(os_dataflow_matmul(cfg, a, b), a @ b, atol=1e-9)

    def test_noisy_tile_executor(self, cfg):
        """Running the schedule on a noisy DPTC stays near the ideal."""
        dptc = DPTC(cfg.geometry, NoiseModel.paper_default())
        rng = np.random.default_rng(2)
        a = rng.normal(size=(24, 36))
        b = rng.normal(size=(36, 24))
        result = os_dataflow_matmul(
            cfg, a, b, lambda x, y: dptc.tile_matmul(x, y, rng=rng)
        )
        rel = np.linalg.norm(result - a @ b) / np.linalg.norm(a @ b)
        assert 0.0 < rel < 0.3

    def test_shape_validation(self, cfg):
        with pytest.raises(ValueError):
            os_dataflow_matmul(cfg, np.ones((3, 4)), np.ones((5, 3)))
        schedule = OutputStationarySchedule(cfg, 4, 4, 4)
        with pytest.raises(ValueError):
            schedule.execute(np.ones((4, 5)), np.ones((4, 4)))
