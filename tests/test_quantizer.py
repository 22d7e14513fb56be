"""Uniform scalar quantizer: grids, mapping, bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggsc.quantizer import QuantGrid, dequantize, fit_grid, quantize


class TestFitGrid:
    def test_group_mode_takes_widest_range(self):
        vals = np.array([
            [0.0, 0.0, 0.25],
            [1.0, 2.0, 0.75],
        ])
        grid = fit_grid(vals, q=8)
        np.testing.assert_array_equal(grid.mins, [0.0, 0.0, 0.25])
        assert grid.scale == 2.0

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=(500, 4))
        grid = fit_grid(vals, q=10)
        ranges = []
        for c in range(4):
            lo = min(float(v) for v in vals[:, c])
            hi = max(float(v) for v in vals[:, c])
            assert grid.mins[c] == lo
            ranges.append(hi - lo)
        assert grid.scale == max(ranges)

    def test_all_equal_degenerates_to_zero_scale(self):
        grid = fit_grid(np.full((10, 2), 3.5), q=8)
        assert grid.scale == 0.0
        levels = quantize(np.full((10, 2), 3.5), grid)
        assert (levels == 0).all()

    def test_one_dimensional_samples_rejected(self):
        """Samples are (S, C) and values (..., C): a 1-D array of several
        values is not read as one component."""
        values = np.array([1.0, 3.0, 2.0])
        with pytest.raises(ValueError, match="samples"):
            fit_grid(values, q=4)
        grid = fit_grid(values[:, None], q=4)
        assert grid.components == 1
        with pytest.raises(ValueError, match="trailing dimension"):
            quantize(values, grid)
        with pytest.raises(ValueError, match="trailing dimension"):
            dequantize(np.array([0, 1, 2]), grid)

    def test_bad_input_rejected(self):
        with pytest.raises(ValueError):
            fit_grid(np.zeros((0, 3)), q=8)
        with pytest.raises(ValueError):
            fit_grid(np.array([[np.nan, 0.0]]), q=8)

    def test_float32_grid_of_float32_samples(self):
        """The scale widens by one step, 3 * 255 / 254 rounded up to float32,
        and each minimum moves down to a multiple of the new step.  The
        first component's range excludes 0, so its zero level clamps to 0."""
        vals = np.array([[0.5, -2.0], [0.1, 1.0]], dtype=np.float32)
        grid = fit_grid(vals, q=8, dtype=np.float32)
        assert grid.scale == 3.0118112564086914
        np.testing.assert_allclose(grid.mins / grid.step, [8.0, -170.0], atol=1e-5)
        assert (grid.mins <= vals.min(axis=0)).all()
        np.testing.assert_array_equal(quantize(np.zeros(2), grid), [0, 170])

    def test_float32_grid_is_zero_aligned(self):
        """Zero lies within 0.01 of a level of every component's grid."""
        rng = np.random.default_rng(5)
        for q in range(2, 17):
            for _ in range(20):
                vals = rng.normal(size=(50, 3)) * rng.uniform(0.01, 10.0, 3) + rng.normal(size=3)
                grid = fit_grid(vals, q=q, dtype=np.float32)
                zero = -grid.mins * grid.levels / grid.scale  # `quantize(0)` before rounding
                assert np.abs(zero - np.round(zero)).max() <= 0.01, (q, zero)

    def test_float32_grid_unaligned_at_q1_and_zero_scale(self):
        """At q = 1 there is no step to widen by, and a constant group has
        no step at all: both keep the minima and the scale."""
        vals = np.array([[0.5, -2.0], [0.1, 1.0]], dtype=np.float32)
        grid = fit_grid(vals, q=1, dtype=np.float32)
        np.testing.assert_array_equal(grid.mins, vals.min(axis=0))
        assert grid.scale == 3.0
        grid = fit_grid(np.tile(np.float32([3.5, -1.25]), (4, 1)), q=8, dtype=np.float32)
        np.testing.assert_array_equal(grid.mins, [3.5, -1.25])
        assert grid.scale == 0.0

    def test_float32_grid_covers_what_it_cannot_align(self):
        """A tiny negative minimum under a huge step, a constant column far
        from zero beside a narrow one, and a range whose widened scale would
        pass float32's largest value: every sample stays inside its grid."""
        for q, vals in [(2, [[-2.5e-302], [3e22]]),
                        (8, [[1e30, 0.0], [1e30, 1e-30]]),
                        (8, [[-1.7e38], [1.7e38]])]:
            vals = np.array(vals)
            grid = fit_grid(vals, q=q, dtype=np.float32)
            assert (grid.mins <= vals).all() and (vals <= grid.mins + grid.scale).all()
            unclipped = np.floor((vals - grid.mins) * grid.levels / grid.scale + 0.5)
            assert unclipped.min() >= 0 and unclipped.max() <= grid.levels

    def test_float32_grid_outside_float32_range_rejected(self):
        with pytest.raises(ValueError, match="float32"):
            fit_grid(np.array([[0.0], [1e39]]), q=8, dtype=np.float32)
        with pytest.raises(ValueError, match="float64 or float32"):
            fit_grid(np.array([[0.0], [1.0]]), q=8, dtype=np.float16)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            QuantGrid(mins=np.zeros(3), scale=0.0, q=0)
        with pytest.raises(ValueError):
            QuantGrid(mins=np.zeros(3), scale=0.0, q=32)
        with pytest.raises(ValueError):
            QuantGrid(mins=np.zeros(3), scale=-1.0, q=8)
        with pytest.raises(ValueError):
            QuantGrid(mins=np.zeros((3, 1)), scale=0.0, q=8)
        with pytest.raises(ValueError):
            QuantGrid(mins=np.zeros(3), scale=np.inf, q=8)

    def test_levels_and_step(self):
        grid = QuantGrid(mins=np.zeros(1), scale=2.0, q=3)
        assert grid.levels == 7
        assert grid.step == 2.0 / 7.0


class TestQuantize:
    def test_formula_pins(self):
        """Direct evaluations of b = floor((a-min)*(2^q-1)/s + 1/2)."""
        grid = QuantGrid(mins=np.array([0.0]), scale=1.0, q=2)
        assert quantize(np.array([0.5]), grid)[0] == 2  # floor(1.5 + 0.5)
        assert quantize(np.array([0.0]), grid)[0] == 0  # at the minimum

        grid8 = QuantGrid(mins=np.array([-1.0]), scale=2.0, q=8)
        assert quantize(np.array([1.0]), grid8)[0] == 255  # at min + s

    def test_rounds_to_nearest(self):
        grid = QuantGrid(mins=np.array([0.0]), scale=10.0, q=4)
        step = 10.0 / 15.0
        vals = np.array([[0.49 * step], [0.51 * step], [7 * step + 0.2 * step]])
        np.testing.assert_array_equal(quantize(vals, grid), [[0], [1], [7]])

    def test_clamps_half_ulp_excursions(self):
        grid = QuantGrid(mins=np.array([0.0]), scale=1.0, q=8)
        assert quantize(np.array([1.0 + 1e-12]), grid)[0] == 255
        assert quantize(np.array([-1e-12]), grid)[0] == 0
        # values clearly past the fitted range clamp instead of wrapping
        assert quantize(np.array([1.01]), grid)[0] == 255
        assert quantize(np.array([-0.01]), grid)[0] == 0

    def test_monotone(self):
        rng = np.random.default_rng(1)
        vals = np.sort(rng.uniform(-3.0, 3.0, size=1000))[:, None]
        grid = fit_grid(vals, q=6)
        levels = quantize(vals, grid)
        assert (np.diff(levels, axis=0) >= 0).all()

    def test_multidim_shapes(self):
        rng = np.random.default_rng(2)
        vals = rng.normal(size=(7, 5, 3))
        grid = fit_grid(vals.reshape(-1, 3), q=8)
        levels = quantize(vals, grid)
        assert levels.shape == (7, 5, 3)
        assert levels.dtype == np.int64

    def test_trailing_dim_mismatch_rejected(self):
        grid = fit_grid(np.zeros((3, 2)), q=4)
        with pytest.raises(ValueError):
            quantize(np.zeros((5, 3)), grid)


class TestDequantize:
    def test_endpoints(self):
        grid = QuantGrid(mins=np.array([2.0]), scale=4.0, q=1)
        assert dequantize(np.array([0]), grid)[0] == 2.0
        assert dequantize(np.array([1]), grid)[0] == 6.0  # min + s at q=1

    def test_zero_scale_returns_min(self):
        grid = QuantGrid(mins=np.array([1.5]), scale=0.0, q=8)
        assert dequantize(np.array([0]), grid)[0] == 1.5

    def test_out_of_range_levels_rejected(self):
        grid = QuantGrid(mins=np.zeros(1), scale=1.0, q=3)
        with pytest.raises(ValueError):
            dequantize(np.array([8]), grid)
        with pytest.raises(ValueError):
            dequantize(np.array([-1]), grid)

    def test_non_integer_levels_rejected(self):
        """Levels must have an integer dtype: float levels raise even when
        every value is whole."""
        grid = QuantGrid(mins=np.zeros(1), scale=1.0, q=3)
        for levels in ([1.5], [2.0], [[0.0], [7.0]]):
            with pytest.raises(ValueError, match="integer dtype"):
                dequantize(np.array(levels), grid)
        assert dequantize(np.array([2]), grid)[0] == pytest.approx(2.0 / 7.0)


class TestRoundTrip:
    def test_error_within_half_step(self):
        rng = np.random.default_rng(3)
        vals = rng.uniform(-5.0, 7.0, size=(2000, 3))
        for q in (1, 4, 8, 12, 16):
            grid = fit_grid(vals, q=q)
            back = dequantize(quantize(vals, grid), grid)
            bound = 0.5 * grid.scale / grid.levels + 1e-12
            err = np.abs(back - vals)
            assert (err <= bound).all(), (q, err.max(), bound)

    def test_fixed_point_on_grid_levels(self):
        """quantize(dequantize(b)) == b for every representable level."""
        grid = QuantGrid(mins=np.array([-2.0, 0.5]), scale=3.0, q=6)
        levels = np.stack(
            np.meshgrid(np.arange(64), np.arange(64), indexing="ij"), axis=-1
        )
        back = quantize(dequantize(levels, grid), grid)
        np.testing.assert_array_equal(back, levels)

    def test_group_mode_bound_uses_shared_scale(self):
        """A narrow component sees the wide component's scale, so its
        absolute error bound is the shared one."""
        rng = np.random.default_rng(4)
        vals = np.stack([
            rng.uniform(0.0, 10.0, 500),
            rng.uniform(0.0, 0.1, 500),
        ], axis=1)
        grid = fit_grid(vals, q=8)
        back = dequantize(quantize(vals, grid), grid)
        shared = 0.5 * 10.0 / 255.0
        assert np.abs(back - vals).max() <= shared * 1.02


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(min_value=1, max_value=200),
    c=st.integers(min_value=1, max_value=4),
    q=st.integers(min_value=1, max_value=16),
)
def test_quantizer_bound_property(seed, n, c, q):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-100.0, 100.0, size=(n, c)) * rng.uniform(0.01, 1.0, c)
    grid = fit_grid(vals, q=q)
    levels = quantize(vals, grid)
    assert levels.min() >= 0 and levels.max() <= grid.levels
    back = dequantize(levels, grid)
    bound = 0.5 * grid.scale / grid.levels + 1e-12
    assert (np.abs(back - vals) <= bound).all()
    # fixed point
    np.testing.assert_array_equal(quantize(back, grid), levels)


_SAMPLE = st.one_of(st.floats(-1e30, 1e30), st.floats(-1e-300, 1e-300))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 30), c=st.integers(1, 4),
       q=st.integers(1, 16))
def test_float32_grid_property(data, n, c, q):
    """A float32 grid holds only float32 values and still covers every
    float64 sample: negative, tiny, up to 1e30, constant columns."""
    cols = []
    for _ in range(c):
        if data.draw(st.booleans(), label="constant"):
            cols.append(np.full(n, data.draw(_SAMPLE)))
        else:
            cols.append(np.array(data.draw(st.lists(_SAMPLE, min_size=n, max_size=n))))
    vals = np.stack(cols, axis=1)
    grid = fit_grid(vals, q=q, dtype=np.float32)
    fields = np.append(grid.mins, grid.scale)
    np.testing.assert_array_equal(fields.astype(np.float32), fields)
    assert (grid.mins <= vals).all() and (vals <= grid.mins + grid.scale).all()
    if grid.scale > 0.0:
        # `quantize`'s level before its clip
        unclipped = np.floor((vals - grid.mins) * grid.levels / grid.scale + 0.5)
        assert unclipped.min() >= 0 and unclipped.max() <= grid.levels
