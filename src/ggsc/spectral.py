"""Graph construction and graph Fourier transform for KD-tree leaves.

Each leaf of the partition becomes a fully connected weighted graph: the
edge weight between two primitives is a Gaussian kernel of their distance,
W[p, q] = exp(-||v_p - v_q||^2 / sigma^2), with a zero diagonal.  The
kernel bandwidth follows the bounding box of the cloud,
sigma = sqrt(min(X, Y, Z) / 20), so flat or tiny clouds fall back to a
small positive constant.  The combinatorial Laplacian L = D - W is
symmetric positive semidefinite; its eigenvectors, ordered by ascending
eigenvalue, form the transform basis.  Low eigenvalues correspond to
smooth signals over the leaf, which is what makes truncating the tail
coefficients a useful lossy step.

The eigendecomposition and the transforms are self-contained rather than
LAPACK or BLAS calls: the decoder must rebuild bit-identical bases and
signals from the same reconstructed centers, so neither depends on a
vendor kernel.  Determinism is part of the format.  Two steps of
`build_adjacency` are still numpy's choice, so bases and decoded values
are bit-identical only between machines that agree on them: `np.exp` is
a SIMD kernel numpy picks per CPU (on an AVX-512 host 46,150 of 10^6
results differ from libm's exp), and `np.einsum` picks its own order for
the squared distances (whether that varies between machines is
unverified).
The solver is Householder tridiagonalization followed by implicit QL
(tql2):

* the reduction and the accumulation of its reflectors use numpy
  elementwise ufuncs and row/column sums only (no `@`, no `np.dot`), whose
  summation order is fixed by the array shape, not by the CPU;
* the O(m^2) QL recurrence on the tridiagonal runs on Python floats, so
  every deflation and convergence decision is a scalar comparison, and
  never reads the basis: it logs its Givens rotations (`_tql_rotations`);
* numpy applies the logged rotations to the basis rows one wavefront step
  at a time (`_apply_rotations`), bit-identical to tql2's own update.

At leaf sizes of a few dozen most of a single solve is fixed numpy call
overhead, so `graph_spectra` takes leaves that lie on consecutive rows
(the codec gathers each run's rows so that they do) and solves each
stretch of one size together: `build_adjacency` and `laplacian` build a
chunk's (B, m, m) graphs in one pass over its (B, m, 3) centers,
`eig_sym` takes the stack, the reduction, the rotation pass and the
sign/order normalization each run once over it, and only the scalar QL
recurrence runs per leaf.  Every per-matrix operation is the same
elementwise op or the same sum along the same axis as for one matrix,
so a leaf's bits do not depend on the batch or the chunk it is solved
in.  That holds for the graphs only as
long as numpy's einsum and exp round each element alike whatever the
operand's rank; `tests/test_spectral.py` checks it bit for bit.  A
basis is working state, never stream data: `forward` and `inverse` walk
a run of leaves one chunk at a time, so one chunk's bases are alive.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .gs_core import Box3

#: QL sweep limit per eigenvalue (EISPACK's); exceeding it raises instead
#: of returning garbage.
QL_MAX_SWEEPS = 30
#: Eigenvalues in (-1e-10, 0) are clamped to zero; anything lower raises.
PSD_CLAMP = -1e-10

_SIGMA_FLOOR_SQ = 1e-12
#: Matrix entries per batched solve in `graph_spectra`: 2^16 float64
#: entries is 512 KiB per temporary.  Small leaves, whose solves are
#: mostly fixed numpy call overhead, still fit hundreds to a chunk; at
#: m = 100 to 200 a larger batch leaves the CPU cache and each of its
#: O(B m^2) passes gets slower per leaf than in a small batch.
BATCH_ENTRIES = 1 << 16


@dataclass(frozen=True)
class GraphSpectrum:
    """Eigendecomposition of one leaf Laplacian.

    eigenvalues: (m,) ascending, non-negative.
    basis:       (m, m) orthonormal, column j pairs with eigenvalue j.

    `eig_sym` on a stack of B matrices returns one spectrum whose arrays
    carry the leading batch axis, (B, m) and (B, m, m).
    """

    eigenvalues: np.ndarray
    basis: np.ndarray


def sigma_from_box(box: Box3) -> float:
    """Kernel bandwidth from a bounding box: sqrt(min extent / 20).

    Degenerate boxes (a zero extent) use the floor sqrt(1e-12) = 1e-6 so
    coincident points still yield finite weights.
    """
    h = float(box.extents.min()) / 20.0
    return math.sqrt(max(h, _SIGMA_FLOOR_SQ))


def build_adjacency(centers: np.ndarray, sigma: float) -> np.ndarray:
    """Dense Gaussian affinity matrix with zero diagonal.

    `centers` is (m, 3), or a (B, m, 3) stack of leaves whose (B, m, m)
    matrices are built in one pass, each bit-identical to its own build.
    """
    pts = np.asarray(centers, dtype=np.float64)
    if pts.ndim not in (2, 3) or pts.shape[-1] != 3:
        raise ValueError(f"centers must be (N, 3) or (B, N, 3), got {pts.shape}")
    if pts.shape[-2] < 1:
        raise ValueError("need at least one point")
    if not (sigma > 0.0) or not math.isfinite(sigma):
        raise ValueError("sigma must be finite and positive")
    diff = pts[..., :, None, :] - pts[..., None, :, :]
    sq = np.einsum("...ijk,...ijk->...ij", diff, diff)
    w = np.exp(-sq / (sigma * sigma))
    diag = np.arange(pts.shape[-2])
    w[..., diag, diag] = 0.0
    return w


def laplacian(adjacency: np.ndarray) -> np.ndarray:
    """Combinatorial Laplacian L = D - W of a symmetric affinity matrix,
    or of each matrix of a (B, m, m) stack."""
    w = np.asarray(adjacency, dtype=np.float64)
    if w.ndim not in (2, 3) or w.shape[-1] != w.shape[-2]:
        raise ValueError("adjacency must be square")
    lap = -w
    diag = np.arange(w.shape[-1])
    lap[..., diag, diag] = w.sum(axis=-1)
    return lap


def _tridiagonalize(a: np.ndarray):
    """Householder reduction of a stack of symmetric matrices to
    tridiagonal form.

    `a` is (B, m, m) and is destroyed.  Returns (d, e, q), each with the
    leading batch axis: d the diagonals, e[:, i] the coupling of rows i
    and i + 1 (e[:, m-1] = 0) and q orthogonal such that q^T a q is the
    tridiagonal matrix.  Only elementwise ufuncs and numpy's sums along
    the same axes as for one matrix are used, never BLAS, so a matrix's
    bits depend neither on the machine's vendor kernels nor on the other
    matrices of its batch.  The rank-2 update is formed as w + w^T,
    which keeps the trailing block exactly symmetric.  A step whose
    column is already tridiagonal (zero below the subdiagonal) is
    skipped for exactly the matrices where it is.
    """
    nb, m, _ = a.shape
    d = np.empty((nb, m))
    e = np.zeros((nb, m))
    reflectors = []
    for k in range(m - 2):
        d[:, k] = a[:, k, k]
        x = a[:, k + 1:, k]
        e[:, k] = x[:, 0]
        sigma = np.sum(x[:, 1:] * x[:, 1:], axis=1)
        live = sigma != 0.0
        if not live.any():
            continue
        # A full batch is updated in place; a partial one is gathered,
        # updated and written back.
        partial = not live.all()
        sel = np.flatnonzero(live) if partial else slice(None)
        x0 = x[sel, 0]
        alpha = -np.copysign(np.sqrt(x0 * x0 + sigma[sel]), x0)
        h = alpha * (alpha - x0)  # ||v||^2 / 2 for v = x - alpha e1
        v = x[sel].copy()
        v[:, 0] = x0 - alpha
        b = a[sel, k + 1:, k + 1:]
        p = np.sum(b * v[:, None, :], axis=2) / h[:, None]
        half = np.sum(v * p, axis=1) / (2.0 * h)
        w = v[:, :, None] * (p - half[:, None] * v)[:, None, :]
        b -= w + w.transpose(0, 2, 1)
        if partial:
            a[sel, k + 1:, k + 1:] = b
        e[sel, k] = alpha
        reflectors.append((k, partial, sel, v, h))
    if m >= 2:
        d[:, m - 2] = a[:, m - 2, m - 2]
        e[:, m - 2] = a[:, m - 1, m - 2]
    d[:, m - 1] = a[:, m - 1, m - 1]
    # Q = H_0 H_1 ... accumulated from the right end, so each reflector
    # only touches the trailing block it acts on.
    q = np.tile(np.eye(m), (nb, 1, 1))
    for k, partial, sel, v, h in reversed(reflectors):
        sub = q[sel, k + 1:, k + 1:]
        sub -= v[:, :, None] * (np.sum(v[:, :, None] * sub, axis=1) / h[:, None])[:, None, :]
        if partial:
            q[sel, k + 1:, k + 1:] = sub
    return d, e, q


def _tql_rotations(d, e, off, rot_i, rot_c, rot_s, rot_t) -> None:
    """Implicit QL on a tridiagonal (d, e), appending its rotations to a log.

    The recurrence of EISPACK's tql2 (Bowdler, Martin, Reinsch and
    Wilkinson, Numer. Math. 11, 1968) with the eigenvector update taken
    out: each rotation, acting on basis rows (i, i + 1), is appended as
    i + off to rot_i, c to rot_c and s to rot_s for `_apply_rotations`;
    `off` places the matrix's rows in a stacked basis.  Its rot_t entry,
    2 * sweep + (m - 1 - i) counting sweeps over the whole solve, is its
    wavefront step: a later rotation touching row i or i + 1 always gets
    a larger step, and rotations sharing a step touch disjoint rows.

    The input is prescaled into [0.5, 1) and every coupling used in a
    sweep exceeds eps * tst1 (~1e-16), so sqrt(p * p + e * e) can neither
    overflow nor underflow and needs no hypot-style scaling.

    `d` and `e` are lists of Python floats, about twice as fast here as
    numpy scalars; on return d holds the eigenvalues (unsorted) and e is
    destroyed.  Raises RuntimeError if an eigenvalue needs more than
    `QL_MAX_SWEEPS` QL sweeps.
    """
    m = len(d)
    total_sweeps = 0
    eps = 2.0 ** -52
    shift = 0.0
    tst1 = 0.0
    for l in range(m):
        size = abs(d[l]) + abs(e[l])
        if size > tst1:
            tst1 = size
        sweeps = 0
        while True:
            # Deflate at the first negligible coupling; the block l..n
            # is then unreduced.
            n = l
            while n < m - 1 and abs(e[n]) > eps * tst1:
                n += 1
            if n == l:
                break
            sweeps += 1
            if sweeps > QL_MAX_SWEEPS:
                raise RuntimeError(
                    f"QL iteration did not converge within {QL_MAX_SWEEPS} "
                    "sweeps per eigenvalue"
                )
            # Shift from the eigenvalue of the leading 2x2 block.
            g = d[l]
            p = (d[l + 1] - g) / (2.0 * e[l])
            r = math.sqrt(p * p + 1.0)
            if p < 0.0:
                r = -r
            d[l] = e[l] / (p + r)
            d[l + 1] = e[l] * (p + r)
            dl1 = d[l + 1]
            h = g - d[l]
            for i in range(l + 2, m):
                d[i] -= h
            shift += h
            p = d[n]
            c = 1.0
            c2 = 1.0
            c3 = 1.0
            el1 = e[l + 1]
            s = 0.0
            s2 = 0.0
            base = 2 * total_sweeps + m - 1
            total_sweeps += 1
            for i in range(n - 1, l - 1, -1):
                c3 = c2
                c2 = c
                s2 = s
                ei = e[i]
                g = c * ei
                h = c * p
                r = math.sqrt(p * p + ei * ei)
                e[i + 1] = s * r
                s = ei / r
                c = p / r
                p = c * d[i] - s * g
                d[i + 1] = h + s * (c * g + s * d[i])
                rot_i.append(i + off)
                rot_c.append(c)
                rot_s.append(s)
                rot_t.append(base - i)
            p = -s * s2 * c3 * el1 * e[l] / dl1
            e[l] = s * p
            d[l] = c * p
        d[l] = d[l] + shift
        e[l] = 0.0


def _apply_rotations(zt, rot_i, rot_c, rot_s, rot_t) -> None:
    """Apply logged QL rotations to the rows of `zt`, one wavefront step
    per numpy pass.

    Rows touched in one step are disjoint, and each row sees its
    rotations in log order, so the result is bit-identical to applying
    the log one rotation at a time (tql2's eigenvector update).
    """
    order = np.argsort(rot_t, kind="stable")
    rows = rot_i[order]
    rows_next = rows + 1
    c_all = rot_c[order, None]
    s_all = rot_s[order, None]
    cuts = np.flatnonzero(np.diff(rot_t[order])) + 1
    bounds = [0, *cuts.tolist(), order.shape[0]]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        i = rows[lo:hi]
        j = rows_next[lo:hi]
        c = c_all[lo:hi]
        s = s_all[lo:hi]
        zi = zt[i]
        zj = zt[j]
        new_j = zi * s
        new_j += zj * c
        zi *= c
        zj *= s
        zi -= zj
        zt[j] = new_j
        zt[i] = zi


def _householder_ql(a: np.ndarray):
    """Eigenvalues (B, m) and eigenvectors, as the rows of a (B, m, m)
    stack, of a stack of symmetric matrices; `a` is destroyed.

    The QL recurrence runs per matrix, appending to one rotation log for
    the stack.  The bases of the whole stack are rotated in one
    `_apply_rotations` pass over their stacked (B * m, m) rows: matrix j's
    logged rows are offset by j * m, so rotations of different matrices
    that share a wavefront step touch disjoint rows, and the stable sort
    keeps each matrix's log order.  The log is typed arrays, not lists:
    a list would keep every logged value alive as a Python object.
    """
    nb, m, _ = a.shape
    d, e, q = _tridiagonalize(a)
    vals = np.empty((nb, m))
    log = (array("q"), array("d"), array("d"), array("q"))
    for j in range(nb):
        dj = d[j].tolist()
        _tql_rotations(dj, e[j].tolist(), j * m, *log)
        vals[j] = dj
    zt = np.ascontiguousarray(q.transpose(0, 2, 1)).reshape(nb * m, m)
    _apply_rotations(zt, *(np.frombuffer(col, dtype=col.typecode) for col in log))
    return vals, zt.reshape(nb, m, m)


def _normalize_rows(vals: np.ndarray, rows: np.ndarray):
    """Ascending eigenvalue order with deterministic signs and tie order,
    for a stack: vals (B, m), eigenvectors as the rows of `rows` (B, m, m).

    Each eigenvector is flipped so its largest-magnitude entry (first
    such entry when magnitudes tie) is non-negative; runs of exactly
    equal eigenvalues are ordered lexicographically by eigenvector
    entries.  Returns C-contiguous rows.
    """
    m = vals.shape[1]
    lead = np.argmax(np.abs(rows), axis=2)[:, :, None]
    rows = np.where(np.take_along_axis(rows, lead, axis=2) < 0.0, -rows, rows)
    order = np.argsort(vals, axis=1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=1)
    rows = np.ascontiguousarray(np.take_along_axis(rows, order[:, :, None], axis=1))
    for b in np.flatnonzero((vals[:, 1:] == vals[:, :-1]).any(axis=1)):
        val, vec = vals[b], rows[b]
        i = 0
        while i < m:
            j = i + 1
            while j < m and val[j] == val[i]:
                j += 1
            if j - i > 1:
                vec[i:j] = vec[sorted(range(i, j), key=lambda r: tuple(vec[r]))]
            i = j
    return vals, rows


def eig_sym(matrix: np.ndarray) -> GraphSpectrum:
    """Deterministic symmetric eigendecomposition (ascending eigenvalues).

    `matrix` is (m, m), or a stack (B, m, m) of matrices solved together;
    a stack's spectrum keeps the leading axis (eigenvalues (B, m), basis
    (B, m, m)), and every matrix comes out bit-identical to its own
    solve.  Each matrix is prescaled by an exact power of two so its
    largest entry magnitude lands in [0.5, 1), which makes the solve's
    bits independent of the input's overall magnitude; the eigenvalues
    are rescaled back exactly.  The solve is Householder
    tridiagonalization followed by implicit QL (see `_tridiagonalize`,
    `_tql_rotations`); a zero matrix gets the identity basis.
    Eigenvalues in (-1e-10, 0) are treated as rounding slop of a PSD
    matrix and clamped to zero; more negative values raise, as does
    failure to converge within `QL_MAX_SWEEPS` QL sweeps for any
    eigenvalue.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix must be square")
    stack = a if a.ndim == 3 else a[None]
    nb, m, _ = stack.shape
    if m < 1:
        raise ValueError("matrix must be at least 1x1")
    if not np.isfinite(stack).all():
        raise ValueError("matrix contains non-finite entries")
    if not np.array_equal(stack, stack.transpose(0, 2, 1)):
        raise ValueError("matrix must be exactly symmetric")

    vals = np.zeros((nb, m))
    rows = np.tile(np.eye(m), (nb, 1, 1))
    amax = np.abs(stack).max(axis=(1, 2))
    live = np.flatnonzero(amax != 0.0)
    if live.size:
        # frexp gives amax = mant * 2**exp with mant in [0.5, 1); dividing
        # by 2**exp is exact, so the scaled matrix carries the same
        # mantissas.
        scale = np.ldexp(1.0, np.frexp(amax[live])[1])
        lv, lrows = _householder_ql(stack[live] / scale[:, None, None])
        vals[live], rows[live] = _normalize_rows(lv * scale[:, None], lrows)
    bad = vals < PSD_CLAMP
    if bad.any():
        raise ValueError(
            f"matrix is not positive semidefinite (eigenvalue {vals[bad][0]:g})"
        )
    vals[vals < 0.0] = 0.0
    basis = rows.transpose(0, 2, 1)
    if a.ndim == 2:
        return GraphSpectrum(eigenvalues=vals[0], basis=basis[0])
    return GraphSpectrum(eigenvalues=vals, basis=basis)


def graph_spectrum(centers: np.ndarray, sigma: float) -> GraphSpectrum:
    """Spectrum of the Gaussian-affinity Laplacian of one leaf, (m, 3)
    centers, or of each leaf of a (B, m, 3) stack, solved together."""
    return eig_sym(laplacian(build_adjacency(centers, sigma)))


def graph_spectra(centers: np.ndarray, sizes: dict[int, int], sigma: float):
    """Spectra of leaves that lie on consecutive rows of `centers`, yielded
    one (rows, spectrum) stack per chunk, in row order.

    `sizes` maps leaf size to leaf count in row order: the first leaf is
    rows 0 .. m - 1, the next follows it.  `sigma` is every leaf's kernel
    bandwidth.  Consecutive leaves of one size are solved together by
    `graph_spectrum`, in chunks of at most `BATCH_ENTRIES` matrix entries;
    a chunk's rows (B, m) are its leaves, in row order.  Every spectrum is
    bit-identical to `graph_spectrum(centers[leaf], sigma)`, whatever its
    batch or chunk.
    """
    at = 0
    for m, n in sizes.items():
        leaves = np.arange(at, at + n * m).reshape(n, m)
        per = max(1, BATCH_ENTRIES // (m * m))
        for i in range(0, n, per):
            yield leaves[i:i + per], graph_spectrum(centers[leaves[i:i + per]], sigma)
        at += n * m


def forward(centers: np.ndarray, sizes: dict[int, int], sigma: float,
            signals: dict[str, np.ndarray], alphas: dict[str, float]):
    """Each group's (K, C) kept coefficients, leaf by leaf as `gft` gives
    them, of leaves on consecutive rows of `centers` and of each (N, C)
    signal, as `graph_spectra` takes them.  Chunk by chunk: solve,
    transform every group at `clip_count(alphas[name], m)` coefficients,
    drop the bases."""
    kept = {name: [] for name in signals}
    for rows, spec in graph_spectra(centers, sizes, sigma):
        for name, signal in signals.items():
            k = clip_count(alphas[name], rows.shape[1])
            kept[name].append(gft(spec, signal[rows], k).reshape(-1, signal.shape[1]))
    return {name: np.concatenate(parts) for name, parts in kept.items()}


def inverse(centers: np.ndarray, sizes: dict[int, int], sigma: float,
            coefficients: dict[str, np.ndarray], alphas: dict[str, float]):
    """Invert `forward`: each group's (N, C) signals from its (K, C) kept
    coefficients, zero-padded to each leaf's m, one chunk at a time."""
    out = {name: np.empty((len(centers), c.shape[1])) for name, c in coefficients.items()}
    at = dict.fromkeys(coefficients, 0)
    for rows, spec in graph_spectra(centers, sizes, sigma):
        nb, m = rows.shape
        for name, c in coefficients.items():
            k = clip_count(alphas[name], m)
            padded = np.zeros((nb, m, c.shape[1]))
            padded[:, :k] = c[at[name]:at[name] + nb * k].reshape(nb, k, -1)
            at[name] += nb * k
            out[name][rows] = igft(spec, padded)
    return out


def _operands(spectrum: GraphSpectrum, values, what: str):
    """(B, m, m) basis, (B, m, k) values and the result shape of a
    transform of one spectrum, or of a stack of B, on `values` shaped
    (m,) or (m, k), or (B, m) or (B, m, k)."""
    basis = spectrum.basis
    m = basis.shape[-1]
    v = np.asarray(values, dtype=np.float64)
    if v.shape[:basis.ndim - 1] != basis.shape[:-2] + (m,) or v.ndim > basis.ndim:
        raise ValueError(f"{what} shape {v.shape} does not fit graph spectra {basis.shape}")
    return basis.reshape(-1, m, m), v.reshape(basis.size // (m * m), m, -1), v.shape


def _sum_products(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """out[b, j, c] = sum over i of a[b, i, j] * x[b, i, c], added in
    order of i: each channel's products go to a C-ordered temporary whose
    middle axis numpy sums one row at a time, so the rounding depends on
    neither the layout of `a` nor B.  `a` is (B, m, n) with n >= 2 when
    m >= 2: numpy sums a single column pairwise, not in order of i."""
    nb, m, k = x.shape
    n = a.shape[2]
    out = np.empty((nb, n, k))
    prod = np.empty((nb, m, n))
    for c in range(k):
        np.multiply(a, x[:, :, c, None], out=prod)
        out[:, :, c] = prod.sum(axis=1)
    return out


def gft(spectrum: GraphSpectrum, signal: np.ndarray,
        count: int | None = None) -> np.ndarray:
    """Forward transform: coefficients C = A^T f (A orthonormal columns).

    `signal` is (m,) or (m, k) for k channels transformed together; for a
    stack of B spectra it is (B, m) or (B, m, k), and row b comes out
    bit-identical to a transform by basis b alone.  With `count` only the
    first `count` coefficients are computed, bit-identical to the first
    `count` of the full transform; the m axis of the result has that size.
    """
    basis, f, shape = _operands(spectrum, signal, "signal")
    m = basis.shape[-1]
    k = m if count is None else count
    if not 1 <= k <= m:
        raise ValueError(f"coefficient count {k} outside [1, {m}]")
    axis = spectrum.basis.ndim - 2
    cols = min(m, max(k, 2))
    out = _sum_products(basis[:, :, :cols], f)[:, :k]
    return out.reshape(shape[:axis] + (k,) + shape[axis + 1:])


def igft(spectrum: GraphSpectrum, coeffs: np.ndarray) -> np.ndarray:
    """Inverse transform: f = A C; takes the shapes `gft` takes."""
    basis, c, shape = _operands(spectrum, coeffs, "coefficients")
    return _sum_products(basis.transpose(0, 2, 1), c).reshape(shape)


def clip_count(alpha: float, m: int) -> int:
    """Number of low-frequency coefficients kept out of m at ratio alpha.

    ceil(alpha * m), floored at 1 so the DC component always survives.
    The epsilon shields exact products like 0.1 * 200 from ceiling up on
    a one-ulp-high multiply.  The product is taken in double precision,
    as the header carries alpha, so a float32 alpha keeps the count its
    decoder derives.
    """
    alpha = float(alpha)
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    if m < 1:
        raise ValueError("m must be >= 1")
    k = math.ceil(alpha * m - 1e-9)
    return max(1, min(m, k))
