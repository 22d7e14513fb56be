"""Exact nearest-neighbour distances on a Morton-sorted grid.

`nearest_distances(targets, queries)` gives each query point's Euclidean
distance to its nearest target: the square root of the least
`(dx*dx + dy*dy) + dz*dz` over the targets, which is what a k-d tree
query returns, bit for bit.  It is numpy alone, so the D1 metric needs
nothing else.

A fine lattice of 2^BITS cells a side covers the joint bounding box, and
the targets are sorted by the Morton code of their fine cell, so that
every cell of a coarser level L (2^L fine cells a side) is one run of
the sorted codes, found with two `searchsorted` calls.  The targets
next to a query in that order give a first bound on its distance.  The
query then takes the least level whose cells are wider than the bound,
so that every target as near as the bound lies in the 3 x 3 x 3 block of
cells around the query's own; of those 27 cells it reads only the ones
that come within the bound (at most 8), and the least distance to a
target in them is the nearest.

Duplicate targets and duplicate queries are dropped first, and the
distinct queries go in Morton order too; that leaves every distance
unchanged, and a heavily duplicated cloud (a decode at a coarse geometry
depth puts many points on one lattice vertex) costs no more than its
distinct points.  Queries go in chunks, and their candidate targets in
batches of at most BATCH (a single cell may exceed it), so temporaries
are bounded by the batch, not by the clouds' sizes.
"""

from __future__ import annotations

import numpy as np

from .partition import morton_limbs

#: Fine lattice depth, in bits per axis; a cell's 3 * BITS-bit Morton
#: code fits one int64.
BITS = 20
#: At this level the lattice is 2 cells a side, and the block around
#: either cell covers both.
TOP = BITS - 1
#: Queries per chunk, and candidate (query, target) pairs per batch.
CHUNK = 4096
BATCH = 1 << 17
#: Slack, in fine cells, on every distance the grid bounds: far more than
#: the rounding of a position on the lattice (about 1e-9 cells), so that
#: a target rounded into a neighbouring cell is never nearer than assumed.
SLACK = 1e-6
#: The absolute rounding error of a squared distance that underflows.
TINY = 4 * np.finfo(np.float64).smallest_subnormal

# The offsets of a block's 27 cells from its centre cell, as (27, 3).
_OFFSETS = np.stack(np.meshgrid(*[np.arange(-1, 2)] * 3, indexing="ij"), -1).reshape(-1, 3)


def _codes(cells: np.ndarray) -> np.ndarray:
    """Morton codes of (N, 3) fine cells, as one int64 each."""
    limbs = morton_limbs(cells, BITS)
    return limbs[:, 0] | limbs[:, 1] << 24 | limbs[:, 2] << 48  # limb 3 is 0


def _sq_distances(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Row-wise squared distances of (N, 3) points, summed x, y, then z."""
    d = q - t
    d *= d
    return (d[:, 0] + d[:, 1]) + d[:, 2]


class _Grid:
    """The distinct targets, in Morton order of their fine cells, on a
    lattice over the bounding box of targets and queries."""

    def __init__(self, targets: np.ndarray, queries: np.ndarray) -> None:
        self.lo = np.minimum(targets.min(axis=0), queries.min(axis=0, initial=np.inf))
        hi = np.maximum(targets.max(axis=0), queries.max(axis=0, initial=-np.inf))
        self.span = float((hi - self.lo).max()) or 1.0
        self.points, self.codes, _ = self.distinct(targets)

    def distinct(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The distinct rows of (N, 3) `points` in Morton order of their
        fine cells, their codes, and the index of each row among them."""
        codes = _codes(self.cells(self.positions(points)))
        order = np.lexsort((points[:, 2], points[:, 1], points[:, 0], codes))
        points, codes = points[order], codes[order]
        new = np.ones(points.shape[0], dtype=bool)
        np.any(points[1:] != points[:-1], axis=1, out=new[1:])
        index = np.empty(points.shape[0], dtype=np.int64)
        index[order] = np.cumsum(new) - 1
        return points[new], codes[new], index

    def positions(self, points: np.ndarray) -> np.ndarray:
        """Positions on the fine lattice, in cells, in [0, 2^BITS]."""
        return (points - self.lo) / self.span * float(1 << BITS)

    @staticmethod
    def cells(positions: np.ndarray) -> np.ndarray:
        return np.minimum(positions.astype(np.int64), (1 << BITS) - 1)

    def lower_bound(self, gaps: np.ndarray) -> np.ndarray:
        """A lower bound on the squared distance, as `_sq_distances`
        rounds it, between points at least `gaps` fine cells apart on each
        axis (the last one)."""
        d = np.maximum(gaps - SLACK, 0.0) / float(1 << BITS) * self.span
        return (d * d).sum(axis=-1) * (1.0 - 1e-12) - TINY

    def nearest_sq(self, q: np.ndarray) -> np.ndarray:
        """Least squared distance from each of (a, 3) queries to a target."""
        pos = self.positions(q)
        cells = self.cells(pos)
        at = np.searchsorted(self.codes, _codes(cells))
        last = self.codes.shape[0] - 1
        bound = np.minimum(_sq_distances(q, self.points[np.maximum(at - 1, 0)]),
                           _sq_distances(q, self.points[np.minimum(at, last)]))
        # frexp's exponent is the least e with 2^e > reach: cells that wide
        # put every target within the bound, rounding included, in the block.
        reach = np.sqrt(bound * (1.0 + 1e-9) + TINY) / self.span * float(1 << BITS)
        level = np.clip(np.frexp(reach + SLACK)[1], 0, TOP).astype(np.int64)[:, None]
        block = (cells >> level)[:, None, :] + _OFFSETS  # (a, 27, 3)
        width = (1 << level)[:, :, None]
        low = block * width - pos[:, None, :]
        near = ((block >= 0) & (block < (1 << BITS) // width)).all(axis=2) & (
            self.lower_bound(np.maximum(low, -low - width)) <= bound[:, None])
        owner, k = np.nonzero(near)  # query-major
        shift = 3 * level[owner, 0]
        first = _codes(block[owner, k]) << shift
        starts = np.searchsorted(self.codes, first)
        counts = np.searchsorted(self.codes, first + (1 << shift)) - starts
        keep = counts > 0
        owner, starts, counts = owner[keep], starts[keep], counts[keep]

        best = np.full(q.shape[0], np.inf)
        ends = np.cumsum(counts)
        begin = 0
        while begin < ends.shape[0]:
            base = int(ends[begin - 1]) if begin else 0
            end = max(int(np.searchsorted(ends, base + BATCH, side="right")), begin + 1)
            n, o = counts[begin:end], owner[begin:end]
            offsets = np.cumsum(n) - n
            target = np.repeat(starts[begin:end] - offsets, n)
            target += np.arange(target.shape[0])
            d2 = _sq_distances(np.repeat(q[o], n, axis=0), self.points[target])
            np.minimum.at(best, o, np.minimum.reduceat(d2, offsets))
            begin = end
        return best


def nearest_distances(targets: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Distance from each row of (M, 3) `queries` to its nearest row of
    (N, 3) `targets`, both finite, N >= 1 and M >= 0; float64 (M,)."""
    queries = np.asarray(queries, dtype=np.float64)
    grid = _Grid(np.asarray(targets, dtype=np.float64), queries)
    queries, _, index = grid.distinct(queries)
    out = np.empty(queries.shape[0])
    for start in range(0, queries.shape[0], CHUNK):
        out[start : start + CHUNK] = np.sqrt(grid.nearest_sq(queries[start : start + CHUNK]))
    return out[index]
