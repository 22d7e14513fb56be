"""Geometry section coding: Morton-delta compression of quantized centers.

Centers are already integers on a 2^q lattice and sorted along the Morton
curve, so consecutive codes are close and their differences small.  Each
delta is split into a *bucket* (its bit length, entropy coded with the
adaptive arithmetic coder over a 128-symbol alphabet) and, for buckets
of two or more bits, the raw low `bucket - 1` bits (the leading 1 is
implied by the bucket).  Raw bits are packed MSB-first.

One numpy path serves every depth q in [1, 31].  Codes of up to 93 bits
come from `partition.morton_limbs` as four 24-bit int64 limbs; their
deltas stay in limbs, with borrows and carries moved limb by limb, and
the decoder hands the summed limbs to `partition.points_of_limbs`.  The raw
bits are packed and unpacked from the limbs as 12-byte big-endian
fields, at most `entropy.CHUNK_BITS` bits at a time, so temporaries stay
O(points + remainder bits).

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
from dataclasses import dataclass

import numpy as np

from . import partition
from .partition import LIMB_BITS, LIMBS
from .entropy import (CorruptPayloadError, SymbolStream, aac_decode, aac_encode,
                      be_fields, be_values, classed_fields, classed_payload,
                      classed_sections)

#: Bit-length alphabet for the bucket stream (covers codes up to 127 bits).
BUCKET_ALPHABET = 128


@dataclass
class QuantizedGeometry:
    """Lattice centers in Morton order.

    q:      lattice bit depth per axis.
    points: (N, 3) int64 in [0, 2^q); duplicates allowed and preserved.
    """

    q: int
    points: np.ndarray

    def __post_init__(self) -> None:
        self.points = partition.check_lattice(self.points, self.q)
        if self.points.shape[0] < 1:
            raise ValueError("geometry must hold at least one point")

    def __len__(self) -> int:
        return self.points.shape[0]


def _deltas(geom: QuantizedGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Consecutive Morton code differences (the first against 0) as
    (n, LIMBS) limbs, and their bit lengths; order violations raise."""
    deltas = np.diff(partition.morton_limbs(geom.points, geom.q), axis=0, prepend=0)
    for k in range(LIMBS - 1):
        borrow = deltas[:, k] < 0
        deltas[borrow, k] += 1 << LIMB_BITS
        deltas[borrow, k + 1] -= 1
    if np.any(deltas[:, -1] < 0):
        raise ValueError("points are not in Morton order")
    # Bit length per limb (exact: limbs are below 2^53), offset by the limb.
    lengths = np.frexp(deltas.astype(np.float64))[1] + LIMB_BITS * np.arange(LIMBS)
    return deltas, np.where(deltas > 0, lengths, 0).max(axis=1).astype(np.int64)


def encode_centers(geom: QuantizedGeometry) -> bytes:
    """Serialize Morton-ordered lattice centers; order violations raise."""
    deltas, buckets = _deltas(geom)
    fields = be_fields(deltas[:, ::-1], LIMB_BITS // 8).reshape(len(geom), -1)
    return classed_payload(aac_encode(SymbolStream(BUCKET_ALPHABET, buckets)),
                           fields, buckets)


def _check_count(n: int, count: int) -> None:
    """Reject a geometry section whose point count is not the container's."""
    if n != count:
        raise CorruptPayloadError(f"geometry holds {n} points, header says {count}")


def decode_centers(payload: bytes, q: int, count: int) -> QuantizedGeometry:
    """Invert `encode_centers`; any framing inconsistency raises.

    `count` is the number of points the container declares, at least one;
    a section holding any other number is rejected before its buckets are
    decoded.
    """
    coded, raw = classed_sections(payload)
    _check_count(int.from_bytes(coded[:4], "little"), count)
    buckets = aac_decode(coded, BUCKET_ALPHABET, count).symbols
    if buckets.size and buckets.max() > 3 * q:
        raise CorruptPayloadError("bucket exceeds the lattice code width")
    fields = classed_fields(raw, buckets, LIMBS * LIMB_BITS // 8, "remainder section")
    deltas = be_values(fields.reshape(count, LIMBS, LIMB_BITS // 8)[:, ::-1])
    # Each limb's cumsum stays below count * 2^24 < 2^56; carries then move up.
    codes = np.cumsum(deltas, axis=0, out=deltas)
    for k in range(LIMBS - 1):
        codes[:, k + 1] += codes[:, k] >> LIMB_BITS
        codes[:, k] &= (1 << LIMB_BITS) - 1
    last = sum(int(limb) << (LIMB_BITS * k) for k, limb in enumerate(codes[-1]))
    if last >= 1 << (3 * q):
        raise CorruptPayloadError("decoded code exceeds the lattice")
    return QuantizedGeometry(q=q, points=partition.points_of_limbs(codes))


def _run_external(command: str, src: bytes, suffix_in: str, suffix_out: str) -> bytes:
    import shlex  # loaded only by the external backend
    import subprocess

    with tempfile.TemporaryDirectory(prefix="ggsc_geom_") as tmp:
        path_in = os.path.join(tmp, "points_in" + suffix_in)
        path_out = os.path.join(tmp, "points_out" + suffix_out)
        with open(path_in, "wb") as fh:
            fh.write(src)
        argv = [
            arg.replace("{in}", path_in).replace("{out}", path_out)
            for arg in shlex.split(command)
        ]
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


def encode_centers_external(geom: QuantizedGeometry, command: str) -> bytes:
    """Compress the section with an external codec: its output is the
    section, verbatim."""
    return _run_external(command, _points_to_ascii_ply(geom.points), ".ply", ".bin")


def decode_centers_external(
    payload: bytes, q: int, command: str, count: int
) -> QuantizedGeometry:
    """Run the external decoder and restore canonical Morton order.

    The external codec must be lossless, duplicates included; the point
    *order* it emits is free because the section is re-sorted here.
    `count` is the number of points the container declares; any other
    number of decoded points is rejected.
    """
    blob = _run_external(command, payload, ".bin", ".ply")
    points = _ascii_ply_to_points(blob, q)
    _check_count(points.shape[0], count)
    order = partition.morton_order(points, q)
    return QuantizedGeometry(q=q, points=points[order])
