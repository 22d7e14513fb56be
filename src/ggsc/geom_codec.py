"""Geometry section coding: Morton-delta compression of quantized centers.

Centers are already integers on a 2^q lattice and sorted along the Morton
curve, so consecutive codes are close and their differences small.  Each
delta is split into a *bucket* (its bit length, entropy coded with the
adaptive arithmetic coder over a 128-symbol alphabet) and, for buckets
of two or more bits, the raw low `bucket - 1` bits (the leading 1 is
implied by the bucket).  Raw bits are packed MSB-first.

One numpy path serves every depth q in [1, 31].  Codes of up to 93 bits
and their deltas are held as four 24-bit int64 limbs, with borrows and
carries moved limb by limb; the raw bits are gathered and scattered one
bucket, and at most CHUNK_BITS bits, at a time, so temporaries stay
O(points + remainder bits).

Section layout, all little-endian:

    [count: u32][q: u8][bucket payload length: u32][bucket payload]
    [remainder bit count: u64][remainder bytes, zero padded to a byte]

An alternative backend can stand in for this whole section: the encoder
shells out to an external lossless point-cloud codec and stores its
output verbatim as [tag: u8 = 1][length: u32][opaque bytes].  The codec
header records which backend produced the section.
"""

from __future__ import annotations

import io
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from . import partition
from .entropy import CorruptPayloadError, SymbolStream, aac_decode, aac_encode

#: Bit-length alphabet for the bucket stream (covers codes up to 127 bits).
BUCKET_ALPHABET = 128
EXTERNAL_TAG = 1

#: Codes and deltas are held as LIMBS int64 limbs of LIMB_BITS bits: four
#: cover the 93-bit code of q = 31, two make up each half of the Morton
#: key pair, and a limb's cumsum over fewer than 2^32 points fits int64.
LIMB_BITS = 24
LIMBS = 4
LIMB_MASK = (1 << LIMB_BITS) - 1
#: Remainder bits packed or unpacked per step: bounds the int64
#: (rows, bits) temporaries to 512 KiB each whatever the point count.
CHUNK_BITS = 1 << 16


@dataclass
class QuantizedGeometry:
    """Lattice centers in Morton order.

    q:      lattice bit depth per axis.
    points: (N, 3) int64 in [0, 2^q); duplicates allowed and preserved.
    """

    q: int
    points: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.q <= 31:
            raise ValueError(f"q must be in [1, 31], got {self.q}")
        pts = np.asarray(self.points)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got {pts.shape}")
        if pts.shape[0] < 1:
            raise ValueError("geometry must hold at least one point")
        if not np.issubdtype(pts.dtype, np.integer):
            raise ValueError("lattice points must be integers")
        self.points = pts.astype(np.int64, copy=False)
        if self.points.min() < 0 or self.points.max() >= (1 << self.q):
            raise ValueError(f"coordinates must lie in [0, 2^{self.q})")

    def __len__(self) -> int:
        return self.points.shape[0]


def _limbs(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """(n, LIMBS) int64 limbs, least significant first, of 48-bit split keys."""
    mask, shift = np.uint64(LIMB_MASK), np.uint64(LIMB_BITS)
    return np.stack([low & mask, low >> shift, high & mask, high >> shift],
                    axis=1).astype(np.int64)


def _remainder_bits(buckets: np.ndarray):
    """Per bucket b >= 2, in chunks of at most CHUNK_BITS bits: the rows,
    the section bit positions of their low b - 1 bits (one row each, MSB
    first) and those bits' significance."""
    widths = np.maximum(buckets - 1, 0)
    offsets = np.cumsum(widths) - widths
    for b in np.unique(buckets[buckets >= 2]):
        rows = np.flatnonzero(buckets == b)
        step = max(CHUNK_BITS // (b - 1), 1)
        sig = np.arange(b - 2, -1, -1)
        for chunk in np.split(rows, np.arange(step, len(rows), step)):
            yield chunk, offsets[chunk, None] + np.arange(b - 1), sig


def _deltas(geom: QuantizedGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Consecutive Morton code differences (the first against 0) as
    (n, LIMBS) limbs, and their bit lengths; order violations raise."""
    keys = partition.morton_key_pair(geom.points, geom.q)
    deltas = np.diff(_limbs(*keys), axis=0, prepend=0)
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
    bucket_payload = aac_encode(SymbolStream(BUCKET_ALPHABET, buckets))

    nbits = int(np.maximum(buckets - 1, 0).sum())
    bits = np.zeros(nbits, dtype=np.uint8)
    for rows, positions, sig in _remainder_bits(buckets):
        limb = deltas[rows][:, sig // LIMB_BITS]
        bits[positions] = (limb >> (sig % LIMB_BITS)) & 1
    return b"".join(
        [
            struct.pack("<IB", len(geom), geom.q),
            struct.pack("<I", len(bucket_payload)),
            bucket_payload,
            struct.pack("<Q", nbits),
            np.packbits(bits).tobytes(),
        ]
    )


def _check_count(n: int, count: int) -> None:
    """Reject a geometry section whose point count is not the container's."""
    if n != count:
        raise CorruptPayloadError(f"geometry holds {n} points, header says {count}")


def decode_centers(payload: bytes, q: int, count: int) -> QuantizedGeometry:
    """Invert `encode_centers`; any framing inconsistency raises.

    `count` is the number of points the container declares; a section
    holding any other number is rejected before its buckets are decoded.
    """
    if len(payload) < 9:
        raise CorruptPayloadError("geometry payload shorter than its header")
    n, q_stored = struct.unpack_from("<IB", payload, 0)
    if n == 0:
        raise CorruptPayloadError("geometry payload holds zero points")
    _check_count(n, count)
    if q_stored != q:
        raise CorruptPayloadError(
            f"geometry payload coded at q={q_stored}, expected q={q}"
        )
    (blen,) = struct.unpack_from("<I", payload, 5)
    if len(payload) < 9 + blen + 8:
        raise CorruptPayloadError("geometry payload truncated in bucket section")
    buckets = aac_decode(payload[9 : 9 + blen], BUCKET_ALPHABET, n).symbols
    if buckets.size and buckets.max() > 3 * q:
        raise CorruptPayloadError("bucket exceeds the lattice code width")

    (nbits,) = struct.unpack_from("<Q", payload, 9 + blen)
    remainder = payload[9 + blen + 8 :]
    if len(remainder) != (nbits + 7) // 8:
        raise CorruptPayloadError("remainder byte count disagrees with bit count")
    expected_bits = int((np.maximum(buckets - 1, 0)).sum())
    if expected_bits != nbits:
        raise CorruptPayloadError("remainder bit count disagrees with buckets")
    if nbits % 8:
        pad = remainder[-1] & ((1 << (8 - nbits % 8)) - 1)
        if pad:
            raise CorruptPayloadError("nonzero padding in remainder section")

    bits = np.unpackbits(np.frombuffer(remainder, dtype=np.uint8))
    deltas = np.zeros((n, LIMBS), dtype=np.int64)
    for rows, positions, sig in _remainder_bits(buckets):
        weights = bits[positions].astype(np.int64) << (sig % LIMB_BITS)
        deltas[rows] = weights @ (sig[:, None] // LIMB_BITS == np.arange(LIMBS))
    lead = np.flatnonzero(buckets)
    top = buckets[lead] - 1  # the implied leading 1
    deltas[lead, top // LIMB_BITS] += 1 << (top % LIMB_BITS)
    # Each limb's cumsum stays below n * 2^24 < 2^56; carries then move up.
    codes = np.cumsum(deltas, axis=0, out=deltas)
    for k in range(LIMBS - 1):
        codes[:, k + 1] += codes[:, k] >> LIMB_BITS
        codes[:, k] &= LIMB_MASK
    last = sum(int(limb) << (LIMB_BITS * k) for k, limb in enumerate(codes[-1]))
    if last >= 1 << (3 * q):
        raise CorruptPayloadError("decoded code exceeds the lattice")
    codes = codes.view(np.uint64)  # every limb is nonnegative
    shift = np.uint64(LIMB_BITS)
    points = partition.points_of_key_pair(
        codes[:, 2] | codes[:, 3] << shift, codes[:, 0] | codes[:, 1] << shift
    )
    return QuantizedGeometry(q=q, points=points)


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
    """Compress the section with an external codec; output stored verbatim."""
    blob = _run_external(command, _points_to_ascii_ply(geom.points), ".ply", ".bin")
    return struct.pack("<BI", EXTERNAL_TAG, len(blob)) + blob


def decode_centers_external(
    payload: bytes, q: int, command: str, count: int
) -> QuantizedGeometry:
    """Run the external decoder and restore canonical Morton order.

    The external codec must be lossless, duplicates included; the point
    *order* it emits is free because the section is re-sorted here.
    `count` is the number of points the container declares; any other
    number of decoded points is rejected.
    """
    if len(payload) < 5:
        raise CorruptPayloadError("external geometry payload too short")
    tag, length = struct.unpack_from("<BI", payload, 0)
    if tag != EXTERNAL_TAG or len(payload) != 5 + length:
        raise CorruptPayloadError("external geometry payload framing mismatch")
    blob = _run_external(command, payload[5:], ".bin", ".ply")
    points = _ascii_ply_to_points(blob, q)
    _check_count(points.shape[0], count)
    order = partition.morton_order(points, q)
    return QuantizedGeometry(q=q, points=points[order])
