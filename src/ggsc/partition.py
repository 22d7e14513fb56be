"""Deterministic spatial ordering and KD-tree partitioning.

Both the encoder and the decoder run these routines on the *reconstructed*
(quantized, then dequantized) centers, so the leaf structure they see is
bit-identical by construction.  Everything here is pure integer / index
arithmetic with stable tie-breaking; no randomness, no hashing.

This module owns the Morton code: `morton_limbs` makes it, as four
24-bit limbs, and is the one place a lattice is checked (`check_lattice`);
`morton_order` sorts those limbs, which the geometry section then codes
as they are, and `points_of_limbs` inverts them for the geometry decoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Deepest lattice, in bits per axis.
MAX_Q = 31
#: The Morton code of a lattice point is held as LIMBS int64 limbs of
#: LIMB_BITS bits, least significant first: limb k interleaves bits
#: 8k ... 8k + 7 of x, y and z.  Four cover the 93-bit code of q = MAX_Q,
#: two make up each 48-bit sort key, and a limb's cumsum over fewer than
#: 2^32 points fits int64.
LIMB_BITS = 24
LIMBS = 4


def _spread3(v: np.ndarray) -> np.ndarray:
    """Spread the low 8 bits of each value so they occupy every 3rd bit."""
    v = v & 0xFF
    v = (v | (v << 8)) & 0xF00F
    v = (v | (v << 4)) & 0xC30C3
    return (v | (v << 2)) & 0x249249


def _compact3(v: np.ndarray) -> np.ndarray:
    """Inverse of `_spread3`: gather every 3rd bit back into the low 8."""
    v = v & 0x249249
    v = (v ^ (v >> 2)) & 0xC30C3
    v = (v ^ (v >> 4)) & 0xF00F
    return (v ^ (v >> 8)) & 0xFF


def check_lattice(points: np.ndarray, q: int) -> np.ndarray:
    """(N, 3) integer points in [0, 2^q), q in [1, MAX_Q], as int64; else raise."""
    pts = np.asarray(points)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be (N, 3), got {pts.shape}")
    if not np.issubdtype(pts.dtype, np.integer):
        raise ValueError("lattice points must be integers")
    if not 1 <= q <= MAX_Q:
        raise ValueError(f"q must be in [1, {MAX_Q}], got {q}")
    if pts.shape[0] and (pts.min() < 0 or pts.max() >= 1 << q):
        raise ValueError(f"coordinates must lie in [0, 2^{q})")
    return pts.astype(np.int64, copy=False)


def morton_limbs(points: np.ndarray, q: int) -> np.ndarray:
    """(N, LIMBS) int64 limbs of the interleaved z/y/x bit codes.

    Bit 0 of the code is bit 0 of x, bit 1 is bit 0 of y, bit 2 is bit 0
    of z, and so on; limb k holds code bits 24k ... 24k + 23.
    """
    pts = check_lattice(points, q).astype(np.int32)  # q <= MAX_Q fits int32
    limbs = np.empty((pts.shape[0], LIMBS), dtype=np.int64)
    for k in range(LIMBS):
        spread = _spread3(pts >> 8 * k)
        limbs[:, k] = spread[:, 0] | spread[:, 1] << 1 | spread[:, 2] << 2
    return limbs


def points_of_limbs(limbs: np.ndarray) -> np.ndarray:
    """Inverse of `morton_limbs`: (N, 3) int64 lattice points."""
    limbs = limbs.astype(np.int32)  # every limb is below 2^24
    points = np.empty((limbs.shape[0], 3), dtype=np.int64)
    for axis in range(3):
        b = _compact3(limbs >> axis)
        points[:, axis] = b[:, 0] | b[:, 1] << 8 | b[:, 2] << 16 | b[:, 3] << 24
    return points


def morton_order(limbs: np.ndarray) -> np.ndarray:
    """Permutation sorting `morton_limbs` codes into Morton (z-curve) order.

    The sort is stable: coincident points keep their input order.  The
    origin precedes (1, 0, 0) because x occupies the least significant
    interleaved bit.  The limbs are sorted as two 48-bit keys.
    """
    high = limbs[:, 3] << LIMB_BITS | limbs[:, 2]
    low = limbs[:, 1] << LIMB_BITS | limbs[:, 0]
    return np.lexsort((low, high))


@dataclass
class Partition:
    """KD-tree leaves, left to right; each leaf is an index array."""

    leaves: list[np.ndarray] = field(default_factory=list)


def kdtree_split(centers: np.ndarray, max_leaf: int) -> Partition:
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
