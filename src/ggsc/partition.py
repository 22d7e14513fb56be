"""Deterministic spatial ordering and KD-tree partitioning.

Both the encoder and the decoder run these routines on the *reconstructed*
(quantized, then dequantized) centers, so the leaf structure they see is
bit-identical by construction.  Everything here is pure integer / index
arithmetic with stable tie-breaking; no randomness, no hashing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Widest coordinate bit depth `_spread3` interleaves into a uint64
#: (3 * 21 = 63 bits).
_FAST_BITS = 21


def _spread3(v: np.ndarray) -> np.ndarray:
    """Spread the low 21 bits of each uint64 so they occupy every 3rd bit."""
    v = v & np.uint64(0x1FFFFF)
    v = (v | (v << np.uint64(32))) & np.uint64(0x1F00000000FFFF)
    v = (v | (v << np.uint64(16))) & np.uint64(0x1F0000FF0000FF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x100F00F00F00F00F)
    v = (v | (v << np.uint64(4))) & np.uint64(0x10C30C30C30C30C3)
    v = (v | (v << np.uint64(2))) & np.uint64(0x1249249249249249)
    return v


def _compact3(v: np.ndarray) -> np.ndarray:
    """Inverse of `_spread3`: gather every 3rd bit back into the low 21."""
    v = v & np.uint64(0x1249249249249249)
    v = (v ^ (v >> np.uint64(2))) & np.uint64(0x10C30C30C30C30C3)
    v = (v ^ (v >> np.uint64(4))) & np.uint64(0x100F00F00F00F00F)
    v = (v ^ (v >> np.uint64(8))) & np.uint64(0x1F0000FF0000FF)
    v = (v ^ (v >> np.uint64(16))) & np.uint64(0x1F00000000FFFF)
    v = (v ^ (v >> np.uint64(32))) & np.uint64(0x1FFFFF)
    return v


def _check_lattice(points: np.ndarray, q: int) -> np.ndarray:
    pts = np.asarray(points)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be (N, 3), got {pts.shape}")
    if not np.issubdtype(pts.dtype, np.integer):
        raise ValueError("lattice points must be integers")
    if q < 1:
        raise ValueError("q must be >= 1")
    limit = 1 << q
    if pts.shape[0] and (pts.min() < 0 or pts.max() >= limit):
        raise ValueError(f"coordinates must lie in [0, 2^{q})")
    return pts.astype(np.int64, copy=False)


def _interleave(u: np.ndarray) -> np.ndarray:
    """Interleave the low 21 bits of each (x, y, z) row of uint64s."""
    return _spread3(u[:, 0]) | (_spread3(u[:, 1]) << np.uint64(1)) | (
        _spread3(u[:, 2]) << np.uint64(2)
    )


def morton_key_pair(points: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) uint64 sort keys of the interleaved z/y/x bit codes.

    Bit 0 of the code is bit 0 of x, bit 1 is bit 0 of y, bit 2 is bit 0
    of z, and so on.  Each coordinate is split at bit 16: `low` holds the
    low 48 bits of the code and `high` the rest, so the code is
    `high << 48 | low` and `high` is zero for q <= 16.
    """
    pts = _check_lattice(points, q)
    if q > 16 + _FAST_BITS:  # the high halves must fit 21 bits
        raise ValueError(f"q={q} exceeds the supported Morton depth")
    u = pts.astype(np.uint64)
    return _interleave(u >> np.uint64(16)), _interleave(u & np.uint64(0xFFFF))


def points_of_key_pair(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Inverse of `morton_key_pair`: (N, 3) int64 lattice points."""
    return np.stack(
        [
            (_compact3(high >> np.uint64(axis)) << np.uint64(16))
            | _compact3(low >> np.uint64(axis))
            for axis in range(3)
        ],
        axis=1,
    ).astype(np.int64)


def morton_order(points: np.ndarray, q: int) -> np.ndarray:
    """Permutation sorting lattice points into Morton (z-curve) order.

    The sort is stable: coincident points keep their input order.  The
    origin precedes (1, 0, 0) because x occupies the least significant
    interleaved bit.
    """
    high, low = morton_key_pair(points, q)
    return np.lexsort((low, high))


@dataclass
class Partition:
    """KD-tree leaves, left to right; each leaf is an index array."""

    leaves: list[np.ndarray] = field(default_factory=list)


def kdtree_split(centers: np.ndarray, max_leaf: int = 200) -> Partition:
    """Partition points by recursive median splits until leaves fit `max_leaf`.

    At every internal node the split axis is the one with the widest
    coordinate extent (ties broken x before y before z) and the points are
    separated about the lower median of that coordinate: the ceil(n/2)
    smallest go left, the rest right, with equal coordinates assigned in
    input order.  Leaves are emitted left to right, so the partition of a
    Morton-ordered cloud is itself contiguous-free but deterministic.  The
    tree is built a level at a time: every node of a level is split by
    the same few array operations.
    """
    pts = np.asarray(centers, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"centers must be (N, 3), got {pts.shape}")
    n = pts.shape[0]
    if n < 1:
        raise ValueError("cannot partition an empty cloud")
    if max_leaf < 1:
        raise ValueError("max_leaf must be >= 1")

    # Each level splits every segment of `order` that holds more than
    # max_leaf points into its two children, left then right, each keeping
    # its parent's order; so the segments stay in left-to-right leaf order.
    order = np.arange(n, dtype=np.int64)
    starts = np.zeros(1, dtype=np.int64)
    sizes = np.full(1, n, dtype=np.int64)
    while True:
        split = sizes > max_leaf
        if not split.any():
            break
        s_start, s_size = starts[split], sizes[split]
        offsets = np.cumsum(s_size) - s_size
        seg = np.repeat(np.arange(s_size.shape[0]), s_size)
        pos = s_start[seg] + np.arange(seg.shape[0]) - offsets[seg]
        idx = order[pos]
        sub = pts[idx]
        extents = np.maximum.reduceat(sub, offsets) - np.minimum.reduceat(sub, offsets)
        axis = np.argmax(extents, axis=1)  # argmax takes the first (x<y<z) on ties
        coords = sub[np.arange(seg.shape[0]), axis[seg]]
        # Rank by coordinate within the segment, equal coordinates in
        # segment order: the lower ceil(m/2) ranks go left.
        ranked = np.lexsort((coords, seg))
        rank = np.empty_like(pos)
        rank[ranked] = np.arange(seg.shape[0]) - offsets[seg[ranked]]
        n_left = (s_size + 1) // 2
        right = rank >= n_left[seg]
        # One stable partition: each segment's left child, then its right
        # child, both in the segment's order.
        order[pos] = idx[np.argsort(2 * seg + right, kind="stable")]
        starts = np.concatenate([starts[~split], s_start, s_start + n_left])
        sizes = np.concatenate([sizes[~split], n_left, s_size - n_left])
    keep = np.argsort(starts)
    return Partition(leaves=[order[a : a + m] for a, m in zip(starts[keep].tolist(),
                                                              sizes[keep].tolist())])
