"""SH triple regrouping and RGB/YUV rotation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggsc.colorspace import (
    RGB_TO_YUV,
    SH_TRIPLES,
    YUV_TO_RGB,
    sh_from_flat,
    sh_rgb_to_yuv,
    sh_to_flat,
    sh_yuv_to_rgb,
)
from ggsc.spectral import gft, graph_spectrum


class TestMatrices:
    def test_forward_coefficients(self):
        np.testing.assert_array_equal(
            RGB_TO_YUV,
            [[0.299, 0.587, 0.114],
             [-0.169, -0.331, 0.500],
             [0.500, -0.419, -0.081]],
        )

    def test_luma_row_sums_to_one(self):
        assert RGB_TO_YUV[0].sum() == pytest.approx(1.0, abs=1e-15)

    def test_inverse_is_pinned_not_computed(self):
        """The stored inverse must match a fresh inversion to double
        precision but is a constant, so both codec sides share its bits."""
        fresh = np.linalg.inv(RGB_TO_YUV)
        assert np.abs(YUV_TO_RGB - fresh).max() < 1e-12
        np.testing.assert_array_equal(YUV_TO_RGB[:, 0], [1.0, 1.0, 1.0])

    def test_product_is_identity(self):
        prod = RGB_TO_YUV @ YUV_TO_RGB
        assert np.abs(prod - np.eye(3)).max() < 1e-12

    def test_gray_axis(self):
        y, u, v = RGB_TO_YUV @ np.array([1.0, 1.0, 1.0])
        assert y == pytest.approx(1.0, abs=1e-12)
        assert u == pytest.approx(0.0, abs=1e-12)
        assert v == pytest.approx(0.0, abs=1e-12)


class TestShLayout:
    def test_triples_count(self):
        assert SH_TRIPLES == 16

    def test_from_flat_places_dc_and_rest(self):
        """Column 3 + c*15 + (j-1) of the flat layout is triple j of
        channel c; spot-check with a counting pattern."""
        n = 4
        flat = np.arange(n * 48, dtype=np.float64).reshape(n, 48)
        triple = sh_from_flat(flat)
        assert triple.shape == (n, 16, 3)
        np.testing.assert_array_equal(triple[:, 0, :], flat[:, :3])
        for c in range(3):
            for j in range(1, 16):
                np.testing.assert_array_equal(
                    triple[:, j, c], flat[:, 3 + c * 15 + (j - 1)]
                )

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(0)
        flat = rng.normal(size=(25, 48))
        back = sh_to_flat(sh_from_flat(flat))
        np.testing.assert_array_equal(back, flat)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            sh_from_flat(np.zeros((4, 47)))
        with pytest.raises(ValueError):
            sh_to_flat(np.zeros((4, 15, 3)))
        with pytest.raises(ValueError):
            sh_to_flat(np.zeros((4, 48)))


class TestConversion:
    def test_round_trip_tight(self):
        rng = np.random.default_rng(2)
        triple = rng.normal(size=(1000, 16, 3))
        back = sh_yuv_to_rgb(sh_rgb_to_yuv(triple))
        assert np.abs(back - triple).max() < 1e-9

    def test_matches_per_pixel_matmul(self):
        rng = np.random.default_rng(3)
        triple = rng.normal(size=(7, 16, 3))
        yuv = sh_rgb_to_yuv(triple)
        for i in range(7):
            for j in range(16):
                np.testing.assert_allclose(
                    yuv[i, j], RGB_TO_YUV @ triple[i, j],
                    atol=1e-14,
                )

    @pytest.mark.parametrize("convert, matrix", [
        (sh_rgb_to_yuv, RGB_TO_YUV),
        (sh_yuv_to_rgb, YUV_TO_RGB),
    ], ids=["to_yuv", "to_rgb"])
    def test_bits_match_sequential_sum(self, convert, matrix):
        """Channel i is x0 * M[i, 0] + x1 * M[i, 1] + x2 * M[i, 2] added
        left to right, as Python floats add it, so no BLAS kernel picked
        per CPU decides the decoded colours' last bits."""
        rng = np.random.default_rng(6)
        x = rng.normal(size=(40, SH_TRIPLES, 3))
        m = matrix.tolist()
        want = [[[p[0] * m[i][0] + p[1] * m[i][1] + p[2] * m[i][2] for i in range(3)]
                 for p in prim] for prim in x.tolist()]
        got = convert(x)
        assert got.tobytes() == np.array(want).tobytes()

    def test_gft_helper_agrees_with_einsum(self):
        rng = np.random.default_rng(5)
        m = 12
        spec = graph_spectrum(rng.normal(size=(m, 3)), 0.5)
        sig = rng.normal(size=(m, 48))
        np.testing.assert_allclose(gft(spec, sig), spec.basis.T @ sig, rtol=0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(min_value=1, max_value=60))
def test_conversion_round_trip_property(seed, n):
    rng = np.random.default_rng(seed)
    triple = rng.normal(size=(n, 16, 3)) * 10.0
    back = sh_yuv_to_rgb(sh_rgb_to_yuv(triple))
    assert np.abs(back - triple).max() < 1e-8
