"""Fidelity metrics, correlation fitting, rate-distortion sweeps."""

import csv
import io
import math
import tracemalloc

import numpy as np
import pytest

from ggsc import nearest
from ggsc.codec import GROUP_NAMES, CodecParams, canonical_order, decode, encode
from ggsc.eval import (
    PSNR_AXES,
    CorrelationReport,
    RdPoint,
    SWEEP_COLUMNS,
    attribute_psnr,
    bd_rate,
    fit_logistic5,
    geometry_psnr_d1,
    rd_sweep,
    read_pairs_csv,
    spearman,
    write_sweep_csv,
)
from ggsc.eval import _average_ranks
from ggsc.gs_core import GaussianCloud

from conftest import make_cloud, make_realistic_cloud


def rank_oracle(x):
    """O(n^2) average ranks: 1 + #smaller + (#equal - 1) / 2."""
    x = np.asarray(x)
    out = np.empty(len(x))
    for i, v in enumerate(x):
        less = int((x < v).sum())
        equal = int((x == v).sum())
        out[i] = 1.0 + less + (equal - 1) / 2.0
    return out


class TestAttributePsnr:
    def test_identical_clouds_are_infinite(self):
        cloud = make_cloud(40, seed=0)
        stats = attribute_psnr(cloud, cloud)
        assert set(stats) == set(PSNR_AXES)
        for axis in PSNR_AXES:
            assert stats[axis].mse == 0.0
            assert stats[axis].infinite

    def test_hand_computed_value(self):
        base = make_cloud(4, seed=1)
        opacity = np.array([0.0, 1.0, 2.0, 3.0])
        ref = GaussianCloud(base.centers, base.sh, opacity, base.scale,
                            base.rotation)
        dist = GaussianCloud(base.centers, base.sh, opacity + 0.1, base.scale,
                             base.rotation)
        got = attribute_psnr(ref, dist)["opacity"]
        assert got.mse == pytest.approx(0.01, rel=1e-12)
        assert got.peak == 3.0
        assert got.psnr_db == pytest.approx(10 * math.log10(9.0 / 0.01),
                                            rel=1e-12)

    def test_peak_comes_from_reference_range(self):
        base = make_cloud(6, seed=2)
        ref = GaussianCloud(base.centers, base.sh, base.opacity * 10.0,
                            base.scale, base.rotation)
        dist = GaussianCloud(base.centers, base.sh, base.opacity * 10.0 + 1.0,
                             base.scale, base.rotation)
        got = attribute_psnr(ref, dist)["opacity"]
        assert got.peak == pytest.approx(
            float(ref.opacity.max() - ref.opacity.min())
        )

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="disagree"):
            attribute_psnr(make_cloud(3), make_cloud(4))

    def test_yuv_axes_measure_rotated_channels(self):
        """Perturbing only the SH DC green channel moves all three YUV
        channel measurements (the rotation mixes them)."""
        base = make_cloud(50, seed=3)
        sh = base.sh.copy()
        sh[:, 1] += 0.5
        dist = GaussianCloud(base.centers, sh, base.opacity, base.scale,
                             base.rotation)
        stats = attribute_psnr(base, dist)
        for axis in ("sh_y", "sh_u", "sh_v"):
            assert stats[axis].mse > 0.0
        assert stats["opacity"].infinite


def _cloud_at(centers) -> GaussianCloud:
    """A cloud with these centers and arbitrary attributes."""
    centers = np.asarray(centers, dtype=np.float64)
    base = make_cloud(centers.shape[0], seed=0)
    return GaussianCloud(centers, base.sh, base.opacity, base.scale, base.rotation)


def _decoded_pair():
    cloud = make_cloud(400, seed=8)
    params = CodecParams(q_geo=6, max_leaf=40)
    return canonical_order(cloud, params), decode(encode(cloud, params))


def _with_outlier():
    centers = make_cloud(80, seed=9).centers
    moved = centers.copy()
    moved[3] = [1e3, -1e3, 1e3]
    return _cloud_at(moved), _cloud_at(centers)


def _line(n, seed):
    t = np.random.default_rng(seed).normal(size=(n, 1))
    return _cloud_at(t * np.array([[1.0, -2.0, 0.5]]) + np.array([[0.3, 0.1, -0.2]]))


# Pairs of (reference, distorted) clouds for the D1 oracle check: each
# shape is one a grid search could get wrong or blow up on.
D1_CASES = {
    "independent": lambda: (make_cloud(60, seed=5), make_cloud(60, seed=6)),
    "decoded": _decoded_pair,
    "planar": lambda: (
        _cloud_at(make_cloud(200, seed=10).centers * [1.0, 1.0, 0.0] + [0.0, 0.0, 0.25]),
        make_cloud(150, seed=11),
    ),
    "collinear": lambda: (_line(200, seed=12), make_cloud(150, seed=13)),
    "collinear_both": lambda: (_line(200, seed=14), _line(150, seed=15)),
    "duplicates": lambda: (
        _cloud_at(np.repeat(make_cloud(4, seed=16).centers, 100, axis=0)),
        _cloud_at(np.repeat(make_cloud(3, seed=17).centers, 100, axis=0)),
    ),
    "outlier": _with_outlier,
    "one_point": lambda: (make_cloud(40, seed=18), make_cloud(1, seed=19)),
    "unequal_sizes": lambda: (make_cloud(30, seed=20), make_cloud(250, seed=21)),
    "huge": lambda: (
        _cloud_at(make_cloud(60, seed=22).centers * 1e150),
        _cloud_at(make_cloud(60, seed=23).centers * -1e150),
    ),
}


class TestGeometryPsnr:
    def test_identical_is_infinite(self):
        cloud = make_cloud(30, seed=4)
        assert geometry_psnr_d1(cloud, cloud).infinite

    def test_matches_quadratic_oracle(self):
        def directional(a, b):
            d2 = ((a.centers[:, None, :] - b.centers[None, :, :]) ** 2).sum(-1)
            return float(d2.min(axis=0).mean())

        for case, make in D1_CASES.items():
            ref, dist = make()
            mse = max(directional(ref, dist), directional(dist, ref))
            lo, hi = ref.centers.min(axis=0), ref.centers.max(axis=0)
            peak = float(np.sqrt(((hi - lo) ** 2).sum()))
            got = geometry_psnr_d1(ref, dist)
            assert got.mse == pytest.approx(mse, rel=1e-12), case
            assert got.peak == pytest.approx(peak, rel=1e-12), case
            assert got.psnr_db == pytest.approx(
                10 * math.log10(peak**2 / mse), rel=1e-12
            ), case

    @pytest.mark.parametrize("scale", [1.0, 1e-160, 1e-300])
    def test_distances_are_the_brute_force_bits(self, scale):
        """The square root of the least (dx*dx + dy*dy) + dz*dz, bit for
        bit, at any scale: squares that underflow to subnormals or to zero
        included."""
        rng = np.random.default_rng(24)
        targets = rng.normal(size=(300, 3)) * scale
        queries = rng.normal(size=(200, 3)) * scale
        d2 = ((queries[:, None, :] - targets[None, :, :]) ** 2).sum(-1)
        np.testing.assert_array_equal(nearest.nearest_distances(targets, queries),
                                      np.sqrt(d2.min(axis=1)))

    def test_no_queries(self):
        """Zero queries against one target give an empty float64 array."""
        got = nearest.nearest_distances(np.zeros((1, 3)), np.zeros((0, 3)))
        assert got.dtype == np.float64 and got.shape == (0,)

    def test_chunks_and_batches_do_not_change_distances(self, monkeypatch):
        """Queries split over many chunks, and candidates over many
        batches (some holding a single cell larger than a batch), give the
        distances the brute force gives."""
        targets = make_cloud(300, seed=11).centers
        queries = np.concatenate([make_cloud(200, seed=12).centers, [[40.0, 0.0, 0.0]]])
        d2 = ((queries[:, None, :] - targets[None, :, :]) ** 2).sum(-1)
        monkeypatch.setattr(nearest, "CHUNK", 7)
        monkeypatch.setattr(nearest, "BATCH", 5)
        np.testing.assert_array_equal(nearest.nearest_distances(targets, queries),
                                      np.sqrt(d2.min(axis=1)))

    def test_memory_is_bounded_by_the_batch(self, monkeypatch):
        """Two 10^4-point clouds in small chunks and batches: temporaries
        stay within a few hundred bytes per point and per candidate pair of
        a batch, where an unbatched search holds about 300 MiB."""
        n = 10_000
        ref = make_realistic_cloud(n, seed=13)
        dist = make_realistic_cloud(n, seed=14)
        monkeypatch.setattr(nearest, "CHUNK", 256)
        monkeypatch.setattr(nearest, "BATCH", 4096)
        tracemalloc.start()
        try:
            geometry_psnr_d1(ref, dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * (2 * n + nearest.BATCH), peak

    def test_coarse_decode_reads_few_candidates(self, monkeypatch):
        """At q_geo 3 a decode puts 10^4 points on a few hundred lattice
        vertices.  Repeated queries are searched once, so the candidate
        pairs stay a few per point (a search that repeats them reads about
        36), and the distances still equal the oracle's."""
        cloud = make_realistic_cloud(10_000, seed=3)
        params = CodecParams(q_geo=3, max_leaf=8)
        ref, dist = canonical_order(cloud, params), decode(encode(cloud, params))
        pairs = []
        sq_distances = nearest._sq_distances
        monkeypatch.setattr(nearest, "_sq_distances",
                            lambda q, t: pairs.append(len(q)) or sq_distances(q, t))
        d_ab = nearest.nearest_distances(ref.centers, dist.centers)
        d_ba = nearest.nearest_distances(dist.centers, ref.centers)
        assert sum(pairs) < 12 * (len(ref) + len(dist)), sum(pairs)

        vertices, index = np.unique(dist.centers, axis=0, return_inverse=True)
        assert len(vertices) < 512
        d2 = ((vertices[:, None, :] - ref.centers[None, :, :].astype(np.float64)) ** 2).sum(-1)
        np.testing.assert_allclose(d_ab, np.sqrt(d2.min(axis=1))[index.reshape(-1)], rtol=1e-12)
        np.testing.assert_allclose(d_ba, np.sqrt(d2.min(axis=0)), rtol=1e-12)

    def test_asymmetric_direction_uses_worse_mean(self):
        """Reference has an outlier far from every distorted point; that
        direction's mean must dominate."""
        base = make_cloud(20, seed=7)
        far = base.centers.copy()
        far[0] = [100.0, 100.0, 100.0]
        ref = GaussianCloud(far, base.sh, base.opacity, base.scale,
                            base.rotation)
        got = geometry_psnr_d1(ref, base)
        d2 = ((far[:, None, :] - base.centers[None, :, :]) ** 2).sum(-1)
        worse = float(d2.min(axis=1).mean())
        assert got.mse == pytest.approx(worse, rel=1e-12)


class TestRanks:
    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(8)
        x = rng.integers(0, 10, size=200).astype(float)  # plenty of ties
        np.testing.assert_allclose(_average_ranks(x), rank_oracle(x))

    def test_simple_tie(self):
        np.testing.assert_array_equal(
            _average_ranks(np.array([1.0, 1.0, 2.0])), [1.5, 1.5, 3.0]
        )

    def test_spearman_pins(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert spearman(x, x * 3.0 + 1.0) == pytest.approx(1.0)
        assert spearman(x, -x) == pytest.approx(-1.0)
        assert spearman(np.array([1.0, 2.0, 3.0]),
                        np.array([3.0, 1.0, 2.0])) == pytest.approx(-0.5)

    def test_spearman_invariant_to_monotone_map(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=300)
        y = rng.normal(size=300)
        assert spearman(np.exp(x), y) == pytest.approx(spearman(x, y), abs=1e-12)


class TestLogisticFit:
    def _mos_like(self, n, seed, noise=0.02, flip=False):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(20.0, 60.0, size=n))
        clean = 1.0 + 4.0 / (1.0 + np.exp(-0.25 * (x - 40.0)))
        if flip:
            clean = 6.0 - clean
        return x, clean + noise * rng.normal(size=n)

    def test_recovers_monotone_relation(self):
        x, y = self._mos_like(120, seed=10)
        report = fit_logistic5(x, y)
        assert isinstance(report, CorrelationReport)
        assert report.plcc > 0.999
        assert report.srcc > 0.99
        assert report.rmse < 0.05

    def test_decreasing_relation(self):
        x, y = self._mos_like(120, seed=11, flip=True)
        report = fit_logistic5(x, y)
        assert report.plcc > 0.999
        assert report.srcc < -0.99

    def test_linear_relation_uses_linear_term(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(0.0, 1.0, size=60)
        y = 2.0 * x + 0.5 + 0.001 * rng.normal(size=60)
        report = fit_logistic5(x, y)
        assert report.plcc > 0.9999

    def test_deterministic(self):
        x, y = self._mos_like(80, seed=13)
        a = fit_logistic5(x, y)
        b = fit_logistic5(x, y)
        assert a == b

    def test_validation(self):
        good = np.arange(5.0)
        with pytest.raises(ValueError):
            fit_logistic5(good[:4], good[:4])
        with pytest.raises(ValueError):
            fit_logistic5(np.zeros(6), np.arange(6.0))
        with pytest.raises(ValueError):
            fit_logistic5(np.arange(6.0), np.zeros(6))
        with pytest.raises(ValueError):
            fit_logistic5(np.arange(6.0), np.arange(5.0))
        bad = np.arange(6.0)
        bad[2] = np.nan
        with pytest.raises(ValueError):
            fit_logistic5(bad, np.arange(6.0))


class TestPairsCsv:
    def test_parses_pairs(self):
        x, y = read_pairs_csv("objective,mos\n30.5,3.1\n42.0,4.5\n")
        np.testing.assert_array_equal(x, [30.5, 42.0])
        np.testing.assert_array_equal(y, [3.1, 4.5])

    def test_skips_blank_lines(self):
        x, y = read_pairs_csv("a,b\n1,2\n\n3,4\n")
        assert len(x) == 2

    def test_errors_name_the_line(self):
        with pytest.raises(ValueError, match="line 3"):
            read_pairs_csv("a,b\n1,2\noops,4\n")
        with pytest.raises(ValueError, match="line 2"):
            read_pairs_csv("a,b\n7\n")
        with pytest.raises(ValueError):
            read_pairs_csv("a,b\n")
        with pytest.raises(ValueError):
            read_pairs_csv("")


class TestSweep:
    def test_sweep_records_points_and_failures(self):
        cloud = make_cloud(80, seed=14)
        grid = [
            CodecParams(max_leaf=30),
            CodecParams(max_leaf=30, q_geo=0),  # invalid on purpose
        ]
        points = rd_sweep(cloud, grid)
        assert len(points) == 2
        ok, bad = points
        assert ok.status == "ok"
        assert ok.total_bytes == ok.header_bytes + ok.b1_bytes + ok.b2_bytes
        assert ok.attr_psnr is not None and ok.d1_psnr is not None
        assert set(ok.attr_psnr) == set(PSNR_AXES)
        assert bad.status.startswith("failed:")
        assert bad.attr_psnr is None

    def test_csv_layout(self):
        cloud = make_cloud(60, seed=15)
        points = rd_sweep(cloud, [CodecParams(max_leaf=25),
                                  CodecParams(max_leaf=25, q_geo=0)])
        buf = io.StringIO()
        write_sweep_csv(points, buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0] == list(SWEEP_COLUMNS)
        assert len(rows) == 3
        header_index = {name: i for i, name in enumerate(rows[0])}
        ok_row, bad_row = rows[1], rows[2]
        assert ok_row[header_index["status"]] == "ok"
        psnr_cell = ok_row[header_index["psnr_opacity"]]
        assert float(psnr_cell) > 0.0
        assert bad_row[header_index["psnr_opacity"]] == ""
        assert bad_row[header_index["status"]].startswith("failed:")
        # the parameter columns survive the trip
        assert int(ok_row[header_index["max_leaf"]]) == 25

    def test_csv_group_bytes_sum_to_b2(self):
        """One column per attribute payload, after b2_bytes; together they
        are b2_bytes."""
        points = rd_sweep(make_cloud(60, seed=15), [CodecParams(max_leaf=25)])
        buf = io.StringIO()
        write_sweep_csv(points, buf)
        header, row = list(csv.reader(io.StringIO(buf.getvalue())))
        at = header.index("b2_bytes")
        assert header[at + 1:at + 1 + len(GROUP_NAMES)] == [f"b2_{g}_bytes" for g in GROUP_NAMES]
        groups = [int(row[header.index(f"b2_{g}_bytes")]) for g in GROUP_NAMES]
        assert min(groups) > 0 and sum(groups) == int(row[at]) == points[0].b2_bytes

    def test_sweep_rate_ordering(self):
        """Coarser rotation bits shrink the stream within one sweep."""
        cloud = make_cloud(200, seed=16)
        grid = [CodecParams(max_leaf=50, q_rotation=12),
                CodecParams(max_leaf=50, q_rotation=4)]
        fine, coarse = rd_sweep(cloud, grid)
        assert coarse.total_bytes < fine.total_bytes
        assert coarse.attr_psnr["rotation"].mse > fine.attr_psnr["rotation"].mse


class TestBdRate:
    """Bjontegaard delta rate on hand-made curves."""

    PSNR = np.array([30.0, 33.5, 36.0, 40.0, 42.5])
    #: log rate is a cubic in PSNR, so that any four points fit it exactly
    RATE = np.exp(np.polyval([1e-4, -3e-3, 0.2, 7.0], PSNR - 30.0))

    def test_identical_curves(self):
        assert bd_rate(self.RATE, self.PSNR, self.RATE, self.PSNR) == 0.0

    def test_constant_rate_ratio(self):
        assert bd_rate(self.RATE, self.PSNR, 0.9 * self.RATE, self.PSNR) == pytest.approx(-0.1, abs=1e-9)
        assert bd_rate(self.RATE, self.PSNR, 1.25 * self.RATE, self.PSNR) == pytest.approx(0.25, abs=1e-9)

    def test_integrates_over_the_shared_range_only(self):
        """b covers only the top of a's range, 33.5-42.5 dB, and its log
        rate is a's plus 0.1 * (PSNR - 38): that averages 0 over b's range
        (the result), and -0.175 over a's."""
        psnr_b = self.PSNR[1:]
        rate_b = self.RATE[1:] * np.exp(0.1 * (psnr_b - 38.0))
        assert bd_rate(self.RATE, self.PSNR, rate_b, psnr_b) == pytest.approx(0.0, abs=1e-9)

    def test_unfit_curves_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            bd_rate(self.RATE[:3], self.PSNR[:3], self.RATE, self.PSNR)
        with pytest.raises(ValueError, match="at least 4"):
            bd_rate(self.RATE, self.PSNR, self.RATE[:3], self.PSNR[:3])
        with pytest.raises(ValueError, match="share no PSNR range"):
            bd_rate(self.RATE, self.PSNR, self.RATE, self.PSNR + 20.0)
        with pytest.raises(ValueError, match="equal-length"):
            bd_rate(self.RATE, self.PSNR[:4], self.RATE, self.PSNR)
        with pytest.raises(ValueError, match="positive"):
            bd_rate(-self.RATE, self.PSNR, self.RATE, self.PSNR)
