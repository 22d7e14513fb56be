"""Leaf graphs, deterministic Householder + QL eigensolver (one leaf or a
batch of equal-size leaves), graph Fourier transform."""

import math
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggsc import spectral
from ggsc.spectral import (
    GraphSpectrum,
    _apply_rotations,
    _tql_rotations,
    _tridiagonalize,
    build_adjacency,
    clip_count,
    eig_sym,
    gft,
    graph_spectra,
    graph_spectrum,
    igft,
    kernel_sigma,
    laplacian,
)


class TestSigma:
    def test_formula(self):
        centers = np.array([[0.0, 0.0, 0.0], [5.0, 2.0, 9.0]])
        assert kernel_sigma(centers) == pytest.approx(math.sqrt(2.0 / 20.0))

    def test_degenerate_box_floor(self):
        centers = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]])
        assert kernel_sigma(centers) == pytest.approx(1e-6)

    def test_point_box_floor(self):
        centers = np.array([[4.0, 4.0, 4.0], [4.0, 4.0, 4.0]])
        assert kernel_sigma(centers) == pytest.approx(1e-6)


class TestAdjacency:
    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(20, 3))
        sigma = 0.7
        w = build_adjacency(pts, sigma)
        for i in range(20):
            for j in range(20):
                if i == j:
                    assert w[i, j] == 0.0
                else:
                    d2 = sum((pts[i, a] - pts[j, a]) ** 2 for a in range(3))
                    assert w[i, j] == pytest.approx(
                        math.exp(-d2 / sigma**2), rel=1e-12
                    )

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(40, 3))
        w = build_adjacency(pts, 0.3)
        assert np.array_equal(w, w.T)

    def test_single_point(self):
        w = build_adjacency(np.array([[1.0, 2.0, 3.0]]), 1.0)
        assert w.shape == (1, 1)
        assert w[0, 0] == 0.0

    def test_bad_sigma_rejected(self):
        pts = np.zeros((2, 3))
        for sigma in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                build_adjacency(pts, sigma)

    def test_bad_shape_rejected(self):
        for shape in ((3, 2), (3,), (2, 3, 2), (2, 2, 3, 3), (2, 0, 3)):
            with pytest.raises(ValueError):
                build_adjacency(np.zeros(shape), 1.0)

    def test_stack_matches_per_leaf_build(self):
        """A (B, m, 3) stack of leaves is built in one pass, on 4-D
        differences where one leaf's build takes 3-D ones; every matrix,
        adjacency and Laplacian alike, must match its own leaf's build
        bit for bit.  A numpy whose einsum or exp rounds by operand rank
        fails here, not only in the golden pins."""
        rng = np.random.default_rng(61)
        shapes = [(1, 1), (1, 80), (40, 1), (40, 80)] + [
            (int(rng.integers(1, 41)), int(rng.integers(1, 81))) for _ in range(296)]
        for t, (nb, m) in enumerate(shapes):
            if t % 3 == 0:  # scattered, at scales from 1e-3 to 10
                pts = rng.normal(size=(nb, m, 3)) * 10.0 ** rng.uniform(-3, 1)
            elif t % 3 == 1:  # a small lattice, so points repeat
                pts = rng.integers(0, 3, size=(nb, m, 3)) * 0.25
            else:  # every point of a leaf coincident
                pts = np.repeat(rng.normal(size=(nb, 1, 3)), m, axis=1)
            sigma = float(10.0 ** rng.uniform(-6, math.log10(3.0)))
            w = build_adjacency(pts, sigma)
            lap = laplacian(w)
            assert w.shape == lap.shape == (nb, m, m)
            for b in range(nb):
                one = build_adjacency(pts[b], sigma)
                assert w[b].tobytes() == one.tobytes()
                assert lap[b].tobytes() == laplacian(one).tobytes()


class TestLaplacian:
    def test_matches_degree_minus_affinity(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(15, 3))
        w = build_adjacency(pts, 0.5)
        lap = laplacian(w)
        ref = np.diag(w.sum(axis=1)) - w
        np.testing.assert_array_equal(lap, ref)

    def test_row_sums_vanish(self):
        rng = np.random.default_rng(3)
        w = build_adjacency(rng.normal(size=(25, 3)), 0.4)
        lap = laplacian(w)
        np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)

    def test_rejects_non_square(self):
        for shape in ((2, 3), (2, 2, 3), (3,)):
            with pytest.raises(ValueError):
                laplacian(np.zeros(shape))


class TestEigSym:
    def test_two_node_graph(self):
        """Unit-weight pair: eigenvalues 0 and 2, symmetric/antisymmetric
        modes with positive leading entries."""
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        spec = eig_sym(lap)
        np.testing.assert_allclose(spec.eigenvalues, [0.0, 2.0], atol=1e-12)
        r = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(spec.basis, [[r, r], [r, -r]], atol=1e-12)

    def test_matches_lapack_eigenvalues(self):
        rng = np.random.default_rng(4)
        for n in (3, 8, 17, 40):
            m = rng.normal(size=(n, n))
            sym = (m + m.T) / 2.0  # exactly symmetric: addition commutes
            shifted = sym + 2.0 * n * np.eye(n)  # comfortably PSD
            spec = eig_sym(shifted)
            want = np.linalg.eigvalsh(shifted)
            np.testing.assert_allclose(spec.eigenvalues, want,
                                       rtol=1e-9, atol=1e-9)

    def test_diagonalizes_input(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(30, 3))
        lap = laplacian(build_adjacency(pts, 0.6))
        spec = eig_sym(lap)
        resid = lap @ spec.basis - spec.basis * spec.eigenvalues
        assert np.abs(resid).max() < 1e-10

    def test_orthonormal_basis(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(45, 3))
        lap = laplacian(build_adjacency(pts, 0.6))
        spec = eig_sym(lap)
        gram = spec.basis.T @ spec.basis
        assert np.abs(gram - np.eye(45)).max() < 1e-12

    def test_ascending_order(self):
        rng = np.random.default_rng(7)
        lap = laplacian(build_adjacency(rng.normal(size=(25, 3)), 0.5))
        spec = eig_sym(lap)
        assert (np.diff(spec.eigenvalues) >= 0.0).all()
        assert (spec.eigenvalues >= 0.0).all()

    def test_identity_tie_ordering(self):
        """Equal eigenvalues order their columns lexicographically, so the
        identity's basis comes out with the (0,1) column first."""
        spec = eig_sym(np.eye(2))
        np.testing.assert_array_equal(spec.eigenvalues, [1.0, 1.0])
        np.testing.assert_array_equal(spec.basis, [[0.0, 1.0], [1.0, 0.0]])

    def test_sign_convention(self):
        """Largest-magnitude entry of every column is non-negative."""
        rng = np.random.default_rng(8)
        lap = laplacian(build_adjacency(rng.normal(size=(31, 3)), 0.8))
        spec = eig_sym(lap)
        for j in range(31):
            col = spec.basis[:, j]
            assert col[int(np.argmax(np.abs(col)))] >= 0.0

    def test_power_of_two_scaling_is_exact(self):
        """Scaling the matrix by 2^k scales eigenvalues by exactly 2^k and
        leaves the basis bit-identical (the solver prescales by a power of
        two before iterating)."""
        rng = np.random.default_rng(9)
        lap = laplacian(build_adjacency(rng.normal(size=(12, 3)), 0.5))
        base = eig_sym(lap)
        for k in (-8, 3, 20):
            scaled = eig_sym(lap * 2.0**k)
            np.testing.assert_array_equal(scaled.basis, base.basis)
            np.testing.assert_array_equal(
                scaled.eigenvalues, base.eigenvalues * 2.0**k
            )

    def test_repeated_calls_bit_identical(self):
        rng = np.random.default_rng(10)
        lap = laplacian(build_adjacency(rng.normal(size=(20, 3)), 0.4))
        a = eig_sym(lap)
        b = eig_sym(lap)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.basis, b.basis)

    @staticmethod
    def _ql_work(m, seed):
        """Tridiagonal of a prescaled leaf Laplacian as lists, plus its
        tridiagonalizing basis."""
        rng = np.random.default_rng(seed)
        lap = laplacian(build_adjacency(rng.normal(size=(m, 3)), 0.5))
        scale = math.ldexp(1.0, math.frexp(np.abs(lap).max())[1])
        d, e, q = (x[0] for x in _tridiagonalize((lap / scale)[None]))
        return d.tolist(), e.tolist(), q

    def test_wavefront_matches_sequential_rotations(self):
        """Applying the log one wavefront step at a time gives the same
        bits as tql2's own update, one rotation at a time in log order."""
        d, e, q = self._ql_work(29, 13)
        log = (array("q"), array("d"), array("d"), array("q"))
        assert _tql_rotations(d, e, 0, *log) is None
        rot_i, rot_c, rot_s, rot_t = (np.array(col) for col in log)
        assert rot_i.size > 0
        ref = np.ascontiguousarray(q.T)
        for i, c, s in zip(rot_i, rot_c, rot_s):
            h = ref[i + 1].copy()
            ref[i + 1] = s * ref[i] + c * h
            ref[i] = c * ref[i] - s * h
        got = np.ascontiguousarray(q.T)
        _apply_rotations(got, rot_i, rot_c, rot_s, rot_t)
        assert np.array_equal(got, ref)

    def test_non_convergence_raises(self, monkeypatch):
        rng = np.random.default_rng(14)
        lap = laplacian(build_adjacency(rng.normal(size=(10, 3)), 0.6))
        monkeypatch.setattr(spectral, "QL_MAX_SWEEPS", 0)
        with pytest.raises(RuntimeError, match="converge"):
            eig_sym(lap)

    def test_tiny_negative_clamped_to_zero(self):
        spec = eig_sym(np.diag([-5e-11, 1.0]))
        np.testing.assert_array_equal(spec.eigenvalues, [0.0, 1.0])

    def test_too_negative_rejected(self):
        with pytest.raises(ValueError, match="semidefinite"):
            eig_sym(np.diag([-1e-9, 1.0]))

    def test_zero_matrix(self):
        spec = eig_sym(np.zeros((4, 4)))
        np.testing.assert_array_equal(spec.eigenvalues, np.zeros(4))
        np.testing.assert_array_equal(spec.basis, np.eye(4))

    def test_one_by_one(self):
        spec = eig_sym(np.array([[3.5]]))
        np.testing.assert_array_equal(spec.eigenvalues, [3.5])
        np.testing.assert_array_equal(spec.basis, [[1.0]])

    def test_asymmetric_rejected(self):
        m = np.array([[1.0, 2.0], [2.0000001, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            eig_sym(m)

    def test_non_finite_rejected(self):
        m = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ValueError):
            eig_sym(m)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            eig_sym(np.zeros((2, 3)))


class TestGraphSpectra:
    """Leaves on consecutive rows, solved together, must come out
    bit-identical to one `eig_sym` per leaf, in stacks of consecutive
    equal-size leaves, in row order."""

    @classmethod
    def _assert_single(cls, centers, sizes, sigma, got):
        leaves = cls._leaves(sizes)
        rows = [row for chunk_rows, _ in got for row in chunk_rows]
        assert [row.tolist() for row in rows] == [leaf.tolist() for leaf in leaves]
        for chunk_rows, spec in got:
            assert spec.basis.shape == (len(chunk_rows), *chunk_rows.shape[1:] * 2)
            for row, vals, basis in zip(chunk_rows, spec.eigenvalues, spec.basis):
                want = eig_sym(laplacian(build_adjacency(centers[row], sigma)))
                assert vals.tobytes() == want.eigenvalues.tobytes()
                assert basis.tobytes() == want.basis.tobytes()

    @staticmethod
    def _leaves(sizes):
        """Each leaf's rows, for `sizes` (leaf size -> count) in row order."""
        bounds = np.cumsum([0, *(m for m, n in sizes.items() for _ in range(n))])
        return [np.arange(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]

    def test_mixed_sizes_match_single_solves(self):
        sizes = {5: 2, 1: 2, 8: 3, 2: 2, 13: 1}
        rng = np.random.default_rng(20)
        pts = rng.normal(size=(sum(m * n for m, n in sizes.items()), 3))
        self._assert_single(pts, sizes, 0.7, graph_spectra(pts, sizes, 0.7))

    def test_zero_matrix_leaf(self):
        """Points 100 apart at sigma 1 have no nonzero weight: that leaf's
        Laplacian is zero and gets the identity, next to solved leaves."""
        rng = np.random.default_rng(21)
        pts = rng.normal(size=(12, 3))
        pts[4:8] = np.arange(4)[:, None] * 100.0
        [(rows, spec)] = got = list(graph_spectra(pts, {4: 3}, 1.0))
        np.testing.assert_array_equal(rows[1], np.arange(4, 8))
        np.testing.assert_array_equal(spec.basis[1], np.eye(4))
        np.testing.assert_array_equal(spec.eigenvalues[1], np.zeros(4))
        self._assert_single(pts, {4: 3}, 1.0, got)

    def test_partial_reflector_skip(self):
        """Leaves whose first point is isolated skip the first Householder
        step while the rest of the batch takes it."""
        rng = np.random.default_rng(22)
        m, count = 9, 6
        pts = rng.normal(size=(m * count, 3))
        pts[0:m * count:2 * m] += 50.0  # leaves 0, 2, 4
        leaves = self._leaves({m: count})
        laps = np.stack([laplacian(build_adjacency(pts[leaf], 0.8)) for leaf in leaves])
        skips = [not (lap[1:, 0] != 0.0).any() for lap in laps]
        assert skips == [True, False] * 3
        batched = _tridiagonalize(laps.copy())
        for j in range(count):
            alone = _tridiagonalize(laps[j:j + 1].copy())
            for got, want in zip(batched, alone):
                assert got[j].tobytes() == want[0].tobytes()
        self._assert_single(pts, {m: count}, 0.8, graph_spectra(pts, {m: count}, 0.8))

    def test_size_group_split_into_chunks(self, monkeypatch):
        """With the chunk limit lowered to two 6x6 matrices, five leaves of
        6 are solved as chunks of 2, 2 and 1 with the same bits."""
        rng = np.random.default_rng(23)
        pts = rng.normal(size=(33, 3))
        sizes = {6: 5, 3: 1}
        want = list(graph_spectra(pts, sizes, 0.7))
        shapes = []
        solve = spectral.eig_sym

        def spy(stack):
            shapes.append(stack.shape)
            return solve(stack)

        monkeypatch.setattr(spectral, "BATCH_ENTRIES", 2 * 36 + 35)
        monkeypatch.setattr(spectral, "eig_sym", spy)
        got = list(graph_spectra(pts, sizes, 0.7))
        assert [rows.shape for rows, _ in got] == [(2, 6), (2, 6), (1, 6), (1, 3)]
        self._assert_single(pts, sizes, 0.7, got)
        assert shapes == [(2, 6, 6), (2, 6, 6), (1, 6, 6), (1, 3, 3)]
        self._assert_single(pts, sizes, 0.7, want)

    def test_stack_checks_every_matrix(self, monkeypatch):
        good = laplacian(build_adjacency(np.random.default_rng(24).normal(size=(4, 3)), 0.7))
        cases = [
            (np.where(np.eye(4, k=1) > 0, 2.0, good), ValueError, "symmetric"),
            (np.where(np.eye(4) > 0, np.nan, good), ValueError, "non-finite"),
            (good - 0.5 * np.eye(4) * np.abs(good).max(), ValueError, "semidefinite"),
        ]
        for bad, exc, match in cases:
            with pytest.raises(exc, match=match):
                eig_sym(np.stack([good, bad, good]))
        monkeypatch.setattr(spectral, "QL_MAX_SWEEPS", 0)
        with pytest.raises(RuntimeError, match="converge"):
            eig_sym(np.stack([np.zeros((4, 4)), good]))


class TestRunTransform:
    """`forward` and `inverse` over a run of leaves on consecutive rows."""

    SIZES = {6: 5, 3: 1}
    ALPHAS = {"a": 1.0, "b": 0.5}

    def _run(self, monkeypatch):
        rng = np.random.default_rng(26)
        pts = rng.normal(size=(33, 3))
        signals = {"a": rng.normal(size=(33, 2)), "b": rng.normal(size=(33, 1))}
        monkeypatch.setattr(spectral, "BATCH_ENTRIES", 2 * 36 + 35)
        return pts, signals

    def test_forward_is_each_chunks_truncated_gft(self, monkeypatch):
        """Each group's coefficients are every chunk's `gft` at its clip
        count, (k, C) per leaf, in row order, bit for bit."""
        pts, signals = self._run(monkeypatch)
        spectra = list(graph_spectra(pts, self.SIZES, 0.7))
        kept = spectral.forward(pts, self.SIZES, 0.7, signals, self.ALPHAS)
        for name, alpha in self.ALPHAS.items():
            want = np.concatenate([
                gft(spec, signals[name][rows], clip_count(alpha, rows.shape[1]))
                .reshape(-1, signals[name].shape[1]) for rows, spec in spectra])
            assert kept[name].tobytes() == want.tobytes()

    def test_inverse_of_forward(self, monkeypatch):
        """At alpha 1 the inverse gives the signal back to rounding; at 0.5
        it is the zero-padded `igft` of each chunk, bit for bit."""
        pts, signals = self._run(monkeypatch)
        kept = spectral.forward(pts, self.SIZES, 0.7, signals, self.ALPHAS)
        out = spectral.inverse(pts, self.SIZES, 0.7, kept, self.ALPHAS)
        np.testing.assert_allclose(out["a"], signals["a"], rtol=0, atol=1e-12)
        at = 0
        for rows, spec in graph_spectra(pts, self.SIZES, 0.7):
            nb, m = rows.shape
            k = clip_count(0.5, m)
            padded = np.zeros((nb, m, 1))
            padded[:, :k] = kept["b"][at:at + nb * k].reshape(nb, k, 1)
            at += nb * k
            assert out["b"][rows].tobytes() == igft(spec, padded).tobytes()
        assert at == len(kept["b"])


class TestTransform:
    def _spectrum(self, n, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, 3))
        return graph_spectrum(pts, 0.7), rng

    def test_round_trip(self):
        spec, rng = self._spectrum(24, 12)
        f = rng.normal(size=24)
        np.testing.assert_allclose(igft(spec, gft(spec, f)), f, atol=1e-12)

    def test_multichannel_round_trip(self):
        spec, rng = self._spectrum(16, 13)
        f = rng.normal(size=(16, 5))
        back = igft(spec, gft(spec, f))
        assert back.shape == (16, 5)
        np.testing.assert_allclose(back, f, atol=1e-12)

    def test_forward_matches_sequential_sum_reference(self):
        """Coefficient j is the sum over p of A[p, j] * f[p], added in order
        of p, on either memory layout of the basis; BLAS agrees to
        rounding."""
        spec, rng = self._spectrum(20, 14)
        f = rng.normal(size=(20, 2))
        want = np.empty((20, 2))
        a = spec.basis.tolist()
        for j in range(20):
            for c in range(2):
                acc = a[0][j] * f[0, c]
                for p in range(1, 20):
                    acc += a[p][j] * f[p, c]
                want[j, c] = acc
        for basis in (spec.basis, np.ascontiguousarray(spec.basis)):
            got = gft(GraphSpectrum(spec.eigenvalues, basis), f)
            assert got.tobytes() == want.tobytes()
        np.testing.assert_allclose(gft(spec, f), spec.basis.T @ f, rtol=0, atol=1e-13)

    def test_inverse_matches_sequential_sum_reference(self):
        spec, rng = self._spectrum(12, 18)
        c = rng.normal(size=12)
        a = spec.basis.tolist()
        want = []
        for p in range(12):
            acc = a[p][0] * c[0]
            for j in range(1, 12):
                acc += a[p][j] * c[j]
            want.append(acc)
        assert igft(spec, c).tolist() == want
        np.testing.assert_allclose(igft(spec, c), spec.basis @ c, rtol=0, atol=1e-13)

    def test_stack_matches_per_leaf_calls(self):
        """A stack's rows transform bit-identically to one call per leaf."""
        rng = np.random.default_rng(19)
        pts = rng.normal(size=(40, 3))
        [(rows, spec)] = graph_spectra(pts, {10: 4}, 0.7)
        for shape in ((4, 10), (4, 10, 3)):
            x = rng.normal(size=shape)
            fwd, inv = gft(spec, x), igft(spec, x)
            assert fwd.shape == inv.shape == shape
            for b in range(4):
                leaf = GraphSpectrum(spec.eigenvalues[b], spec.basis[b])
                assert fwd[b].tobytes() == gft(leaf, x[b]).tobytes()
                assert inv[b].tobytes() == igft(leaf, x[b]).tobytes()

    def test_truncated_transform_is_leading_columns(self):
        """`gft(..., count=k)` of a stack, on either basis layout, is the
        first k coefficients of the full transform bit for bit; k = 1 too,
        where numpy would sum a lone column pairwise."""
        rng = np.random.default_rng(25)
        pts = rng.normal(size=(60, 3))
        [(rows, spec)] = graph_spectra(pts, {20: 3}, 0.7)
        x = rng.normal(size=(3, 20, 4)) * 100.0
        for basis in (spec.basis, np.ascontiguousarray(spec.basis)):
            stack = GraphSpectrum(spec.eigenvalues, basis)
            full = gft(stack, x)
            for k in range(1, 21):
                got = gft(stack, x, k)
                assert got.shape == (3, k, 4)
                assert got.tobytes() == np.ascontiguousarray(full[:, :k]).tobytes()
        leaf = GraphSpectrum(spec.eigenvalues[0], spec.basis[0])
        assert gft(leaf, x[0, :, 0], 1).tolist() == gft(leaf, x[0, :, 0])[:1].tolist()
        for bad in (0, 21):
            with pytest.raises(ValueError):
                gft(stack, x, bad)

    def test_energy_preserved(self):
        spec, rng = self._spectrum(32, 15)
        f = rng.normal(size=32)
        c = gft(spec, f)
        assert np.dot(c, c) == pytest.approx(np.dot(f, f), rel=1e-12)

    def test_constant_signal_concentrates_at_dc(self):
        """On a connected graph the all-ones signal lives entirely in the
        zero-eigenvalue mode."""
        spec, _ = self._spectrum(10, 16)
        c = gft(spec, np.ones(10))
        assert abs(c[0]) == pytest.approx(math.sqrt(10.0), rel=1e-9)
        assert np.abs(c[1:]).max() < 1e-9

    def test_length_mismatch_rejected(self):
        spec, _ = self._spectrum(8, 17)
        with pytest.raises(ValueError):
            gft(spec, np.zeros(9))
        with pytest.raises(ValueError):
            igft(spec, np.zeros(7))
        stack = GraphSpectrum(np.zeros((3, 8)), np.tile(spec.basis, (3, 1, 1)))
        assert gft(stack, np.zeros((3, 8, 2))).shape == (3, 8, 2)
        for bad in ((3, 9), (3, 7, 2), (2, 8), (4, 8, 2), (8,), (3, 8, 2, 1)):
            with pytest.raises(ValueError):
                gft(stack, np.zeros(bad))
            with pytest.raises(ValueError):
                igft(stack, np.zeros(bad))


class TestClipCount:
    @pytest.mark.parametrize("alpha,m,want", [
        (0.1, 200, 20),
        (1.0, 7, 7),
        (0.5, 5, 3),
        (0.3, 10, 3),
        (0.001, 50, 1),   # floor at one kept coefficient
        (0.9, 1, 1),
        (1.0, 1, 1),
        (0.7, 200, 140),
    ])
    def test_values(self, alpha, m, want):
        assert clip_count(alpha, m) == want

    def test_exact_products_do_not_ceil_up(self):
        # 0.7 * 10 evaluates to 7.000000000000001 in binary floating
        # point; a raw ceil would keep 8 coefficients instead of 7
        assert clip_count(0.7, 10) == 7
        assert clip_count(0.4, 5) == 2

    def test_float32_alpha_counts_as_its_double(self):
        """The header carries alpha as a double, so a float32 alpha must
        clip as that double does: in float32, 0.1 * 10 rounds to 1.0 and
        keeps one of ten; in double it is 1.0000000149 and keeps two."""
        assert clip_count(np.float32(0.1), 10) == 2
        for alpha in np.arange(1, 100, dtype=np.float32) / np.float32(100):
            for m in range(1, 201):
                assert clip_count(alpha, m) == clip_count(float(alpha), m), (alpha, m)

    def test_bad_alpha_rejected(self):
        for alpha in (0.0, -0.2, 1.0000001):
            with pytest.raises(ValueError):
                clip_count(alpha, 4)

    def test_bad_m_rejected(self):
        with pytest.raises(ValueError):
            clip_count(0.5, 0)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(min_value=0.001, max_value=1.0, allow_nan=False),
    m=st.integers(min_value=1, max_value=500),
)
def test_clip_count_bounds(alpha, m):
    k = clip_count(alpha, m)
    assert 1 <= k <= m
    # within a half-ulp construction k is ceil(alpha*m): sanity bracket
    assert k >= math.floor(alpha * m - 1e-6)
    assert k <= max(1, math.ceil(alpha * m + 1e-6))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(min_value=1, max_value=24))
def test_spectrum_property(seed, n):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    spec = graph_spectrum(pts, 0.9)
    assert isinstance(spec, GraphSpectrum)
    assert spec.eigenvalues.shape == (n,)
    assert (spec.eigenvalues >= 0.0).all()
    assert (np.diff(spec.eigenvalues) >= 0.0).all()
    gram = spec.basis.T @ spec.basis
    assert np.abs(gram - np.eye(n)).max() < 1e-11
