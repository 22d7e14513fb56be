"""Geometry section coding: Morton-delta compression of quantized centers.

Centers are already integers on a 2^q lattice and sorted along the Morton
curve, so consecutive codes are close and their differences small.  Each
delta is split into a *bucket* (its bit length, entropy coded with the
adaptive arithmetic coder over a 128-symbol alphabet) and, for buckets
of two or more bits, the raw low `bucket - 1` bits (the leading 1 is
implied by the bucket).  Raw bits are packed MSB-first.

One numpy path serves every depth q in [1, `partition.MAX_Q`].  The
section codes the sort's own codes: the (N, 4) int64 limbs of 24 bits
that `partition.morton_limbs` built and `partition.morton_order` sorted,
with no wrapper around them.  Their deltas stay in limbs, with borrows
and carries moved limb by limb, and the decoder hands the summed limbs to
`partition.points_of_limbs`, returning plain (N, 3) lattice points.

Section layout: the buckets are the classes of an `entropy` classed
payload, all little-endian,

    [count: u32][bucket-bytes length: u32][bucket bytes]
    [remainder bits, zero padded to a byte]

The point count is the container's, q is the header's, and the
remainder's bit count follows from the buckets, so none is stored again.

An alternative backend can stand in for this whole section: the encoder
shells out to an external lossless point-cloud codec and stores its
output verbatim, as the section.  The codec header records which backend
produced the section, and its section table the length.
"""

from __future__ import annotations

import io
import os
import tempfile

import numpy as np

from . import partition
from .partition import LIMB_BITS, LIMBS
from .entropy import (CorruptPayloadError, SymbolStream, aac_decode, aac_encode,
                      classed_payload, classed_sections, classed_values)

#: Bit-length alphabet for the bucket stream (covers codes up to 127 bits).
BUCKET_ALPHABET = 128


def _deltas(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Consecutive Morton code differences (the first against 0) as
    (n, LIMBS) limbs, and their bit lengths.  Codes that are not (n,
    LIMBS) integer limbs in [0, 2^LIMB_BITS), or not in Morton order,
    raise."""
    codes = np.asarray(codes)
    if (codes.ndim != 2 or codes.shape[1] != LIMBS
            or not np.issubdtype(codes.dtype, np.integer)):
        raise ValueError(f"codes must be (N, {LIMBS}) integer limbs, "
                         f"got {codes.shape} {codes.dtype}")
    if codes.size and (codes.min() < 0 or codes.max() >= 1 << LIMB_BITS):
        raise ValueError(f"code limbs must lie in [0, 2^{LIMB_BITS})")
    deltas = np.diff(codes.astype(np.int64, copy=False), axis=0, prepend=0)
    for k in range(LIMBS - 1):
        borrow = deltas[:, k] < 0
        deltas[borrow, k] += 1 << LIMB_BITS
        deltas[borrow, k + 1] -= 1
    if np.any(deltas[:, -1] < 0):
        raise ValueError("points are not in Morton order")
    # Bit length per limb (exact: limbs are below 2^53), offset by the limb.
    lengths = np.frexp(deltas.astype(np.float64))[1] + LIMB_BITS * np.arange(LIMBS)
    return deltas, np.where(deltas > 0, lengths, 0).max(axis=1).astype(np.int64)


def encode_centers(codes: np.ndarray) -> bytes:
    """Serialize Morton-sorted `partition.morton_limbs` codes; limbs out of
    range or out of order raise."""
    deltas, buckets = _deltas(codes)
    return classed_payload(aac_encode(SymbolStream(BUCKET_ALPHABET, buckets)),
                           deltas, buckets)


def _check_count(n: int, count: int) -> None:
    """Reject a geometry section whose point count is not the container's."""
    if n != count:
        raise CorruptPayloadError(f"geometry holds {n} points, header says {count}")


def decode_centers(payload: bytes, q: int, count: int) -> np.ndarray:
    """Invert `encode_centers`: the (count, 3) int64 lattice points, in
    Morton order; any framing inconsistency raises.

    `count` is the number of points the container declares, at least one;
    a section holding any other number is rejected before its buckets are
    decoded.
    """
    coded, raw = classed_sections(payload)
    _check_count(int.from_bytes(coded[:4], "little"), count)
    buckets = aac_decode(coded, BUCKET_ALPHABET, count).symbols
    if buckets.size and buckets.max() > 3 * q:
        raise CorruptPayloadError("bucket exceeds the lattice code width")
    deltas = classed_values(raw, buckets, LIMBS, "remainder section")
    # Each limb's cumsum stays below count * 2^24 < 2^56; carries then move up.
    codes = np.cumsum(deltas, axis=0, out=deltas)
    for k in range(LIMBS - 1):
        codes[:, k + 1] += codes[:, k] >> LIMB_BITS
        codes[:, k] &= (1 << LIMB_BITS) - 1
    last = sum(int(limb) << (LIMB_BITS * k) for k, limb in enumerate(codes[-1]))
    if last >= 1 << (3 * q):
        raise CorruptPayloadError("decoded code exceeds the lattice")
    return partition.points_of_limbs(codes)


def _run_external(command: str, src: bytes, suffix_in: str, suffix_out: str) -> bytes:
    import shlex  # loaded only by the external backend
    import subprocess

    template = shlex.split(command)
    if not template:
        raise ValueError(f"geometry command {command!r} names no program")
    with tempfile.TemporaryDirectory(prefix="ggsc_geom_") as tmp:
        path_in = os.path.join(tmp, "points_in" + suffix_in)
        path_out = os.path.join(tmp, "points_out" + suffix_out)
        with open(path_in, "wb") as fh:
            fh.write(src)
        argv = [arg.replace("{in}", path_in).replace("{out}", path_out) for arg in template]
        proc = subprocess.run(argv, capture_output=True)
        if proc.returncode != 0:
            raise RuntimeError(
                f"external geometry codec failed ({proc.returncode}): "
                f"{proc.stderr.decode(errors='replace')[:500]}"
            )
        with open(path_out, "rb") as fh:
            return fh.read()


def _points_to_ascii_ply(points: np.ndarray) -> bytes:
    header = (f"ply\nformat ascii 1.0\nelement vertex {len(points)}\n"
              "property int x\nproperty int y\nproperty int z\nend_header")
    out = io.BytesIO()
    np.savetxt(out, points, fmt="%d", header=header, comments="")
    return out.getvalue()


def _ascii_ply_to_points(blob: bytes, q: int) -> np.ndarray:
    """(N >= 1, 3) lattice points from an ASCII PLY; anything else raises."""
    _, end_header, body = blob.partition(b"end_header")
    if not end_header or not body.strip():
        raise CorruptPayloadError("external decoder emitted no PLY points")
    try:
        coords = np.loadtxt(io.BytesIO(body), usecols=(0, 1, 2), ndmin=2,
                            comments=None)
    except ValueError as exc:
        raise CorruptPayloadError(f"bad external decoder output: {exc}") from None
    on_lattice = (coords >= 0) & (coords < 1 << q) & (np.trunc(coords) == coords)
    if not on_lattice.all():
        raise CorruptPayloadError("external decoder emitted points off the lattice")
    return coords.astype(np.int64)


def encode_centers_external(points: np.ndarray, command: str) -> bytes:
    """Compress (N, 3) lattice points with an external codec: its output
    is the section, verbatim."""
    return _run_external(command, _points_to_ascii_ply(points), ".ply", ".bin")


def decode_centers_external(
    payload: bytes, q: int, command: str, count: int
) -> np.ndarray:
    """Run the external decoder and restore canonical Morton order: the
    (count, 3) int64 lattice points.

    The external codec must be lossless, duplicates included; the point
    *order* it emits is free because the section is re-sorted here.
    `count` is the number of points the container declares; any other
    number of decoded points is rejected.
    """
    blob = _run_external(command, payload, ".bin", ".ply")
    points = _ascii_ply_to_points(blob, q)
    _check_count(points.shape[0], count)
    return points[partition.morton_order(partition.morton_limbs(points, q))]
