"""Cloud container and PLY I/O."""

import io
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggsc.gs_core import (
    REQUIRED_FIELDS,
    Box3,
    GaussianCloud,
    PlyFormatError,
    bounding_box,
    load_ply,
    save_ply,
)

from conftest import PLY_FIELDS, as_f32, cloud_columns, make_cloud, write_ply


class TestGaussianCloud:
    def test_shapes_and_dtype(self):
        cloud = make_cloud(17, seed=1)
        assert cloud.centers.shape == (17, 3)
        assert cloud.sh.shape == (17, 48)
        assert cloud.opacity.shape == (17,)
        assert cloud.scale.shape == (17, 3)
        assert cloud.rotation.shape == (17, 4)
        for arr in (cloud.centers, cloud.sh, cloud.opacity, cloud.scale, cloud.rotation):
            assert arr.dtype == np.float64

    def test_coerces_float32_input(self):
        cloud = GaussianCloud(
            np.zeros((2, 3), dtype=np.float32),
            np.zeros((2, 48), dtype=np.float32),
            np.zeros(2, dtype=np.float32),
            np.zeros((2, 3), dtype=np.float32),
            np.zeros((2, 4), dtype=np.float32),
        )
        assert cloud.centers.dtype == np.float64

    def test_len(self):
        assert len(make_cloud(9)) == 9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GaussianCloud(
                np.zeros((0, 3)), np.zeros((0, 48)), np.zeros(0),
                np.zeros((0, 3)), np.zeros((0, 4)),
            )

    @pytest.mark.parametrize("field,shape", [
        ("centers", (5, 2)),
        ("sh", (5, 47)),
        ("opacity", (5, 1)),
        ("scale", (5, 4)),
        ("rotation", (5, 3)),
    ])
    def test_bad_shape_rejected(self, field, shape):
        kwargs = dict(
            centers=np.zeros((5, 3)), sh=np.zeros((5, 48)), opacity=np.zeros(5),
            scale=np.zeros((5, 3)), rotation=np.zeros((5, 4)),
        )
        kwargs[field] = np.zeros(shape)
        with pytest.raises(ValueError, match=field):
            GaussianCloud(**kwargs)

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GaussianCloud(
                np.zeros((5, 3)), np.zeros((4, 48)), np.zeros(5),
                np.zeros((5, 3)), np.zeros((5, 4)),
            )

    def test_non_finite_rejected(self):
        cloud = make_cloud(5)
        sh = cloud.sh.copy()
        sh[2, 7] = np.nan
        with pytest.raises(ValueError, match="sh"):
            GaussianCloud(cloud.centers, sh, cloud.opacity, cloud.scale, cloud.rotation)

    def test_equality(self):
        a = make_cloud(6, seed=3)
        b = make_cloud(6, seed=3)
        c = make_cloud(6, seed=4)
        assert a == b
        assert a != c
        assert a != "not a cloud"

    def test_take_reorders_all_arrays(self):
        cloud = make_cloud(8, seed=5)
        perm = np.array([3, 1, 7, 0, 2, 6, 4, 5])
        sub = cloud.take(perm)
        np.testing.assert_array_equal(sub.centers, cloud.centers[perm])
        np.testing.assert_array_equal(sub.sh, cloud.sh[perm])
        np.testing.assert_array_equal(sub.opacity, cloud.opacity[perm])
        np.testing.assert_array_equal(sub.scale, cloud.scale[perm])
        np.testing.assert_array_equal(sub.rotation, cloud.rotation[perm])

    def test_take_subset(self):
        cloud = make_cloud(8, seed=5)
        sub = cloud.take(np.array([2, 4]))
        assert len(sub) == 2
        np.testing.assert_array_equal(sub.centers, cloud.centers[[2, 4]])


class TestBox3:
    def test_extents_and_diagonal(self):
        box = Box3(np.array([0.0, -1.0, 2.0]), np.array([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(box.extents, [3.0, 2.0, 0.0])
        assert box.diagonal == pytest.approx(np.sqrt(13.0))

    def test_bounding_box_matches_linear_scan(self):
        cloud = make_cloud(123, seed=9)
        box = bounding_box(cloud)
        # independent scan
        lo = [min(float(v) for v in cloud.centers[:, a]) for a in range(3)]
        hi = [max(float(v) for v in cloud.centers[:, a]) for a in range(3)]
        np.testing.assert_array_equal(box.min, lo)
        np.testing.assert_array_equal(box.max, hi)

    def test_single_point_box(self):
        box = bounding_box(make_cloud(1, seed=10))
        assert box.diagonal == 0.0
        np.testing.assert_array_equal(box.extents, [0.0, 0.0, 0.0])


class TestPlyFieldOrder:
    def test_required_fields_match_exporter_layout(self):
        assert list(REQUIRED_FIELDS) == PLY_FIELDS
        assert len(REQUIRED_FIELDS) == 59


class TestLoadPly:
    def test_reads_independent_writer_output(self):
        cloud = make_cloud(37, seed=11)
        loaded = load_ply(write_ply(cloud_columns(cloud)))
        assert loaded == cloud

    def test_field_order_is_irrelevant(self):
        cloud = make_cloud(12, seed=13)
        rng = np.random.default_rng(0)
        order = list(PLY_FIELDS)
        rng.shuffle(order)
        assert load_ply(write_ply(cloud_columns(cloud), field_order=order)) == cloud

    def test_extra_fields_ignored(self):
        cloud = make_cloud(10, seed=17)
        cols = cloud_columns(cloud)
        cols["nx"] = np.zeros(10)
        cols["ny"] = np.ones(10)
        cols["nz"] = np.zeros(10)
        raw = write_ply(cols, field_order=list(PLY_FIELDS[:3]) + ["nx", "ny", "nz"]
                        + list(PLY_FIELDS[3:]))
        assert load_ply(raw) == cloud

    def test_missing_field_names_it(self):
        cloud = make_cloud(4)
        order = [f for f in PLY_FIELDS if f != "f_rest_30"]
        raw = write_ply(cloud_columns(cloud), field_order=order)
        with pytest.raises(PlyFormatError, match="f_rest_30"):
            load_ply(raw)

    def test_truncated_body_rejected(self):
        raw = write_ply(cloud_columns(make_cloud(6)))
        with pytest.raises(PlyFormatError):
            load_ply(raw[:-10])

    def test_ascii_format_rejected(self):
        raw = (b"ply\nformat ascii 1.0\nelement vertex 1\n"
               b"property float x\nend_header\n1.0\n")
        with pytest.raises(PlyFormatError):
            load_ply(raw)

    def test_big_endian_rejected(self):
        raw = b"ply\nformat binary_big_endian 1.0\nelement vertex 0\nend_header\n"
        with pytest.raises(PlyFormatError):
            load_ply(raw)

    def test_not_a_ply_rejected(self):
        with pytest.raises(PlyFormatError):
            load_ply(b"hello world\n" * 4)

    def test_non_finite_value_names_field_and_index(self):
        cloud = make_cloud(5)
        cols = cloud_columns(cloud)
        vals = cols["opacity"].copy()
        vals[3] = np.inf
        cols["opacity"] = vals
        with pytest.raises(PlyFormatError, match=r"opacity.*3"):
            load_ply(write_ply(cols))

    @pytest.mark.parametrize("line", [
        "format",
        "element vertex abc",
        "element vertex 1_0",
        "property",
        "property float x",
    ], ids=["bare-format", "word-count", "underscore-count", "bare-property",
            "repeated-property"])
    def test_malformed_header_line_names_it(self, line):
        """The error quotes the offending line.  A repeated property would
        otherwise reach numpy's dtype, which raises a plain ValueError."""
        head = ["ply", "format binary_little_endian 1.0", "element vertex 1"]
        raw = "\n".join(head + [line, "property float x", "end_header", ""])
        with pytest.raises(PlyFormatError, match=re.escape(repr(line))):
            load_ply(raw.encode("ascii"))

    def test_comment_lines_ignored(self):
        cloud = make_cloud(3, seed=23)
        raw = write_ply(cloud_columns(cloud),
                        extra_header=["comment made by a test"])
        assert load_ply(raw) == cloud


class TestSavePly:
    def test_round_trip(self):
        cloud = make_cloud(50, seed=29)
        assert load_ply(save_ply(cloud)) == cloud

    def test_bytes_match_independent_writer(self):
        """Body bytes must equal per-struct packing of float32 values."""
        cloud = make_cloud(21, seed=31)
        ours = save_ply(cloud)
        theirs = write_ply(cloud_columns(cloud))
        tag = b"end_header\n"
        body = ours[ours.index(tag) + len(tag):]
        body_ref = theirs[theirs.index(tag) + len(tag):]
        assert body == body_ref
        assert len(body) == 21 * 59 * 4

    def test_save_is_deterministic(self):
        cloud = make_cloud(14, seed=37)
        assert save_ply(cloud) == save_ply(cloud)

    def test_float32_overflow_rejected(self):
        cloud = make_cloud(3)
        sh = cloud.sh.copy()
        sh[1, 0] = 1e39  # not representable in float32
        big = GaussianCloud(cloud.centers, sh, cloud.opacity, cloud.scale,
                            cloud.rotation)
        with pytest.raises(PlyFormatError, match="f_dc_0"):
            save_ply(big)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=40), seed=st.integers(0, 2**16))
def test_ply_round_trip_property(n, seed):
    cloud = make_cloud(n, seed=seed)
    assert load_ply(save_ply(cloud)) == cloud
