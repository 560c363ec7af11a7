"""``quantize_array`` is bit-identical to its previous chained body.

The oracle below is a verbatim copy of the implementation the
reused-buffer snap chain replaced; every generated input must quantize
to the same bits (shape, dtype, signed zeros and all) under both.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.neural.quantization import quantization_levels, quantize_array

TINY = np.finfo(float).tiny


def oracle_quantize_array(
    values: np.ndarray, bits: int, per_matrix: bool = False
) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    levels = quantization_levels(bits)
    if not values.size:
        return values.copy()
    tiny = np.finfo(float).tiny
    if per_matrix and values.ndim > 2:
        max_abs = np.max(np.abs(values), axis=(-2, -1), keepdims=True)
        degenerate = max_abs < tiny
        scale = np.where(degenerate, 1.0, max_abs) / levels
        snapped = values / scale
        np.round(snapped, out=snapped)
        np.clip(snapped, -levels, levels, out=snapped)
        snapped *= scale
        return np.where(degenerate, values, snapped)
    max_abs = np.max(np.abs(values))
    if max_abs < tiny:
        return values.copy()
    scale = max_abs / levels
    snapped = values / scale
    np.round(snapped, out=snapped)
    np.clip(snapped, -levels, levels, out=snapped)
    snapped *= scale
    return snapped


def assert_bits_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _slice(shape: tuple[int, ...], levels: int) -> st.SearchStrategy:
    """One ``[m, n]`` slice of a given kind: normal, all-zero (signed
    zeros), subnormal (max-abs below ``tiny``), or half-step ties."""
    normal = hnp.arrays(
        float,
        shape,
        elements=st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True),
    )
    zero = hnp.arrays(float, shape, elements=st.sampled_from([0.0, -0.0]))
    subnormal = hnp.arrays(
        float,
        shape,
        elements=st.floats(
            -np.nextafter(TINY, 0.0), np.nextafter(TINY, 0.0), allow_subnormal=True
        ),
    )
    return st.one_of(normal, zero, subnormal, _ties(shape, levels))


def _ties(shape: tuple[int, ...], levels: int) -> st.SearchStrategy:
    """Every element an exact half step of the grid (``k/2 * step``),
    with one element pinned at the max so the scale is exactly ``step``:
    the divide lands on ``.5`` and rounding must break the tie the same
    way (to even) on both paths."""
    size = math.prod(shape)

    @st.composite
    def build(draw):
        exponent = draw(st.integers(-20, 20))
        step = 2.0**exponent
        halves = draw(
            st.lists(
                st.integers(-2 * levels, 2 * levels), min_size=size, max_size=size
            )
        )
        values = np.array(halves, dtype=float) / 2.0 * step
        values[draw(st.integers(0, size - 1))] = draw(st.sampled_from([-1, 1])) * (
            levels * step
        )
        return values.reshape(shape)

    return build()


@st.composite
def quantize_cases(draw):
    rank = draw(st.integers(1, 4))
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=rank, max_size=rank)))
    bits = draw(st.integers(2, 8))
    per_matrix = draw(st.booleans())
    levels = quantization_levels(bits)
    # Stacked tensors mix slice kinds, so a batch can hold degenerate
    # slices beside normal ones.
    slice_shape = shape[-2:]
    slices = [
        draw(_slice(slice_shape, levels)) for _ in range(math.prod(shape[:-2]))
    ]
    values = np.stack(slices).reshape(shape)
    return values, bits, per_matrix


class TestQuantizeArrayOracle:
    @settings(max_examples=400, deadline=None)
    @given(quantize_cases())
    def test_bit_identical_to_chained_body(self, case):
        values, bits, per_matrix = case
        assert_bits_equal(
            quantize_array(values, bits, per_matrix=per_matrix),
            oracle_quantize_array(values, bits, per_matrix=per_matrix),
        )

    def test_mixed_degenerate_batch(self):
        values = np.stack(
            [
                np.array([[0.0, -0.0], [-0.0, 0.0]]),
                np.array([[1.5, -3.5], [0.5, 7.0]]),
                np.full((2, 2), 1e-310),
                np.array([[-2.5, 2.5], [-7.0, 0.5]]),
            ]
        )
        for bits in range(2, 9):
            for per_matrix in (False, True):
                got = quantize_array(values, bits, per_matrix=per_matrix)
                assert_bits_equal(
                    got, oracle_quantize_array(values, bits, per_matrix=per_matrix)
                )
        # Degenerate slices come back unchanged, signed zeros included.
        got = quantize_array(values, 4, per_matrix=True)
        assert_bits_equal(got[0], values[0])
        assert_bits_equal(got[2], values[2])

    def test_result_never_aliases_input(self):
        for values in (np.zeros((2, 2, 2)), np.ones((2, 3)), np.full(3, 1e-310)):
            out = quantize_array(values, 4, per_matrix=True)
            assert not np.shares_memory(out, values)
