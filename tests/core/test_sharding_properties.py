"""Property-based invariants of the sharding primitives.

The splitters are the trust anchors of multi-core execution: every
engine result is only as correct as the partition it runs on.  Two
layers of evidence:

* **hypothesis properties** (when hypothesis is installed, as in CI):
  randomised bounds/slab invariants over the full parameter space —
  ``shard_bounds`` partitions ``[0, batch)`` exactly,
  ``contraction_slabs`` concatenates back to the identity, and
  ``num_shards > dim`` produces empty trailing slabs only.
* **seeded-random sweeps** (always run, no third-party dependency):
  the same invariants plus the engine-level consequence — idle
  trailing cores never change results, bit-for-bit, even under noise.
"""

import numpy as np
import pytest

from repro.core import (
    DigitalAccumulator,
    NoiseModel,
    ShardedDPTC,
    contraction_slabs,
    shard_bounds,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False


if HAVE_HYPOTHESIS:

    class TestShardBoundsProperties:
        @given(batch=st.integers(0, 2000), shards=st.integers(1, 64))
        @settings(max_examples=200, deadline=None)
        def test_partitions_batch_exactly(self, batch, shards):
            """Bounds tile [0, batch) contiguously with no gap or overlap."""
            bounds = shard_bounds(batch, shards)
            assert len(bounds) == shards
            assert bounds[0][0] == 0
            assert bounds[-1][1] == batch
            for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                assert stop == start
            assert all(start <= stop for start, stop in bounds)
            assert sum(stop - start for start, stop in bounds) == batch

        @given(batch=st.integers(0, 2000), shards=st.integers(1, 64))
        @settings(max_examples=200, deadline=None)
        def test_balanced_front_loaded(self, batch, shards):
            """Shard sizes differ by at most one, larger shards first."""
            sizes = [stop - start for start, stop in shard_bounds(batch, shards)]
            assert max(sizes) - min(sizes) <= 1
            assert sizes == sorted(sizes, reverse=True)

        @given(batch=st.integers(0, 64), shards=st.integers(1, 64))
        @settings(max_examples=200, deadline=None)
        def test_excess_shards_are_empty_tail(self, batch, shards):
            """num_shards > batch puts all the emptiness at the tail."""
            bounds = shard_bounds(batch, shards)
            occupied = min(batch, shards)
            assert all(start < stop for start, stop in bounds[:occupied])
            assert all(start == stop for start, stop in bounds[occupied:])

    class TestContractionSlabsProperties:
        @given(
            dim=st.integers(1, 64),
            shards=st.integers(1, 16),
            rows=st.integers(1, 5),
            axis=st.sampled_from([-1, -2, 0, 1]),
            seed=st.integers(0, 2**31 - 1),
        )
        @settings(max_examples=100, deadline=None)
        def test_slabs_concatenate_to_identity(self, dim, shards, rows, axis, seed):
            """Concatenating the slabs along the axis reproduces the array."""
            rng = np.random.default_rng(seed)
            shape = [rows, rows]
            shape[axis % 2] = dim
            x = rng.normal(size=shape)
            slabs = contraction_slabs(x, shards, axis=axis)
            assert len(slabs) == shards
            assert np.array_equal(np.concatenate(slabs, axis=axis), x)

        @given(dim=st.integers(1, 16), shards=st.integers(1, 32))
        @settings(max_examples=100, deadline=None)
        def test_excess_shards_make_empty_trailing_slabs(self, dim, shards):
            x = np.arange(3 * dim, dtype=float).reshape(3, dim)
            slabs = contraction_slabs(x, shards, axis=-1)
            occupied = min(dim, shards)
            assert all(slab.shape[-1] > 0 for slab in slabs[:occupied])
            assert all(slab.shape[-1] == 0 for slab in slabs[occupied:])

    class TestEngineProperties:
        @given(
            batch=st.integers(1, 9),
            m=st.integers(1, 6),
            d=st.integers(1, 30),
            n=st.integers(1, 6),
            num_cores=st.integers(1, 8),
            shard_axis=st.sampled_from(["batch", "contraction"]),
            seed=st.integers(0, 2**31 - 1),
        )
        @settings(max_examples=60, deadline=None)
        def test_ideal_path_bit_exact(
            self, batch, m, d, n, num_cores, shard_axis, seed
        ):
            """Arbitrary shapes/core counts: ideal sharding == np.matmul."""
            rng = np.random.default_rng(seed)
            a = rng.normal(size=(batch, m, d))
            b = rng.normal(size=(batch, d, n))
            engine = ShardedDPTC(num_cores=num_cores, shard_axis=shard_axis)
            assert np.array_equal(engine.matmul(a, b), np.matmul(a, b))


class TestSeededSweeps:
    """Dependency-free randomised sweeps of the same invariants."""

    def test_shard_bounds_partition_sweep(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            batch = int(rng.integers(0, 500))
            shards = int(rng.integers(1, 48))
            bounds = shard_bounds(batch, shards)
            assert len(bounds) == shards
            assert bounds[0][0] == 0 and bounds[-1][1] == batch
            for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                assert stop == start
            sizes = [stop - start for start, stop in bounds]
            assert max(sizes) - min(sizes) <= 1

    def test_contraction_slabs_identity_sweep(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            d = int(rng.integers(1, 40))
            shards = int(rng.integers(1, 12))
            a = rng.normal(size=(4, d))
            b = rng.normal(size=(d, 3))
            a_slabs = contraction_slabs(a, shards, axis=-1)
            b_slabs = contraction_slabs(b, shards, axis=-2)
            assert np.array_equal(np.concatenate(a_slabs, axis=-1), a)
            assert np.array_equal(np.concatenate(b_slabs, axis=-2), b)
            # Paired slabs stay aligned: the digitally accumulated slab
            # products equal the full product to reassociation precision.
            acc = DigitalAccumulator.accumulate(
                [sa @ sb for sa, sb in zip(a_slabs, b_slabs) if sa.shape[-1]]
            )
            assert np.allclose(acc, a @ b, rtol=1e-12, atol=1e-12)

    def test_slabs_are_views(self):
        x = np.arange(12, dtype=float).reshape(3, 4)
        slabs = contraction_slabs(x, 2, axis=-1)
        assert all(slab.base is not None for slab in slabs)
        assert all(np.shares_memory(slab, x) for slab in slabs)

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            contraction_slabs(np.ones((3, 4)), 2, axis=2)
        with pytest.raises(ValueError):
            contraction_slabs(np.ones((3, 4)), 2, axis=-3)
        with pytest.raises(ValueError):
            contraction_slabs(np.ones((3, 4)), 0, axis=-1)

    @pytest.mark.parametrize("shard_axis", ["batch", "contraction"])
    def test_excess_cores_idle_without_changing_results(self, shard_axis):
        """num_cores > dim: trailing cores idle, results bit-identical.

        Streams spawn prefix-stably by core index, so the engine with
        idle cores reproduces the fully-occupied engine bit-for-bit —
        ideal *and* noisy.
        """
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 4, 3))  # batch 3, d 3: both axes < 8 cores
        b = rng.normal(size=(3, 3, 4))
        exact = ShardedDPTC(num_cores=8, shard_axis=shard_axis)
        assert np.array_equal(exact.matmul(a, b), np.matmul(a, b))

        occupied = ShardedDPTC(
            num_cores=3, shard_axis=shard_axis, noise=NoiseModel.paper_default()
        )
        oversubscribed = ShardedDPTC(
            num_cores=8, shard_axis=shard_axis, noise=NoiseModel.paper_default()
        )
        assert np.array_equal(
            occupied.matmul(a, b, rng=np.random.default_rng(5)),
            oversubscribed.matmul(a, b, rng=np.random.default_rng(5)),
        )
