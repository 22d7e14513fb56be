"""Geometry section coding: Morton-delta compression of quantized centers.

Centers are already integers on a 2^q lattice and sorted along the Morton
curve, so consecutive codes are close and their differences small.  Each
delta is split into a *bucket* (its bit length, entropy coded with the
adaptive arithmetic coder over a 128-symbol alphabet) and, for buckets
of two or more bits, the raw low `bucket - 1` bits (the leading 1 is
implied by the bucket).  Raw bits are packed MSB-first.

Section layout, all little-endian:

    [count: u32][q: u8][bucket payload length: u32][bucket payload]
    [remainder bit count: u64][remainder bytes, zero padded to a byte]

An alternative backend can stand in for this whole section: the encoder
shells out to an external lossless point-cloud codec and stores its
output verbatim as [tag: u8 = 1][length: u32][opaque bytes].  The codec
header records which backend produced the section.
"""

from __future__ import annotations

import os
import shlex
import struct
import subprocess
import tempfile
from dataclasses import dataclass

import numpy as np

from ._accel import jit
from . import partition
from .entropy import CorruptPayloadError, SymbolStream, aac_decode, aac_encode

#: Bit-length alphabet for the bucket stream (covers codes up to 127 bits).
BUCKET_ALPHABET = 128
EXTERNAL_TAG = 1

#: Environment variables holding external codec command templates with
#: {in} and {out} placeholders, e.g. "tmc3 --mode=0 ... {in} {out}".
ENCODE_CMD_VAR = "GGSC_EXTERNAL_GEOM_ENCODE_CMD"
DECODE_CMD_VAR = "GGSC_EXTERNAL_GEOM_DECODE_CMD"


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


@jit
def _pack_deltas(deltas, buckets, rembits):
    """Bucketize deltas and pack their low bits; returns the bit count."""
    pos = 0
    for i in range(deltas.shape[0]):
        d = deltas[i]
        b = 0
        t = d
        while t > 0:
            b += 1
            t >>= 1
        buckets[i] = b
        if b >= 2:
            rem = d - (1 << (b - 1))
            for k in range(b - 2, -1, -1):
                if (rem >> k) & 1:
                    rembits[pos >> 3] |= 1 << (7 - (pos & 7))
                pos += 1
    return pos


@jit
def _unpack_deltas(buckets, rembits, nbits, deltas):
    """Rebuild deltas from buckets + packed bits; -1 on bit underrun."""
    pos = 0
    for i in range(buckets.shape[0]):
        b = buckets[i]
        if b == 0:
            deltas[i] = 0
        elif b == 1:
            deltas[i] = 1
        else:
            rem = 0
            for _ in range(b - 1):
                if pos >= nbits:
                    return -1
                rem = (rem << 1) | ((rembits[pos >> 3] >> (7 - (pos & 7))) & 1)
                pos += 1
            deltas[i] = (1 << (b - 1)) + rem
    return pos


def _codes_of(geom: QuantizedGeometry):
    """Morton codes as int64 array (q <= 21) or list of Python ints."""
    high, low = partition.morton_key_pair(geom.points, geom.q)
    if geom.q <= 21:
        return low.astype(np.int64)
    return [int(h) << 48 | int(lo) for h, lo in zip(high, low)]


def encode_centers(geom: QuantizedGeometry) -> bytes:
    """Serialize Morton-ordered lattice centers; order violations raise."""
    codes = _codes_of(geom)
    n = len(geom)
    if geom.q <= 21:
        if n > 1 and np.any(codes[1:] < codes[:-1]):
            raise ValueError("points are not in Morton order")
        deltas = np.empty(n, dtype=np.int64)
        deltas[0] = codes[0]
        if n > 1:
            deltas[1:] = codes[1:] - codes[:-1]
        buckets = np.empty(n, dtype=np.int64)
        rembits = np.zeros(n * 8 + 16, dtype=np.uint8)
        nbits = _pack_deltas(deltas, buckets, rembits)
        remainder = rembits[: (nbits + 7) // 8].tobytes()
    else:
        prev = 0
        buckets_list: list[int] = []
        acc = bytearray()
        nbits = 0
        cur = 0
        filled = 0
        for code in codes:
            d = code - prev
            if d < 0:
                raise ValueError("points are not in Morton order")
            prev = code
            b = d.bit_length()
            buckets_list.append(b)
            if b >= 2:
                rem = d - (1 << (b - 1))
                for k in range(b - 2, -1, -1):
                    cur = (cur << 1) | ((rem >> k) & 1)
                    filled += 1
                    nbits += 1
                    if filled == 8:
                        acc.append(cur)
                        cur = 0
                        filled = 0
        if filled:
            acc.append(cur << (8 - filled))
        buckets = np.asarray(buckets_list, dtype=np.int64)
        remainder = bytes(acc)

    bucket_payload = aac_encode(SymbolStream(BUCKET_ALPHABET, buckets))
    return b"".join(
        [
            struct.pack("<IB", n, geom.q),
            struct.pack("<I", len(bucket_payload)),
            bucket_payload,
            struct.pack("<Q", nbits),
            remainder,
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

    # int64, not uint8: the bit reader's accumulator must not stay uint8
    # without a JIT (NEP 50 scalar promotion).
    rembytes = np.frombuffer(remainder, dtype=np.uint8).astype(np.int64)
    if q <= 21:
        deltas = np.empty(n, dtype=np.int64)
        used = _unpack_deltas(buckets, rembytes, nbits, deltas)
        if used != nbits:
            raise CorruptPayloadError("remainder bits exhausted early")
        # Exact (arbitrary-precision) total guards the int64 cumsum below
        # against wraparound on adversarial bucket streams.
        if int(deltas.astype(object).sum()) >= 1 << (3 * q):
            raise CorruptPayloadError("decoded code exceeds the lattice")
        codes = np.cumsum(deltas)
        u = codes.astype(np.uint64)
        points = np.stack(
            [
                partition._compact3(u),
                partition._compact3(u >> np.uint64(1)),
                partition._compact3(u >> np.uint64(2)),
            ],
            axis=1,
        ).astype(np.int64)
    else:
        pos = 0
        prev = 0
        codes_list: list[int] = []
        for b in buckets:
            b = int(b)
            if b == 0:
                d = 0
            elif b == 1:
                d = 1
            else:
                rem = 0
                for _ in range(b - 1):
                    rem = (rem << 1) | (
                        (remainder[pos >> 3] >> (7 - (pos & 7))) & 1
                    )
                    pos += 1
                d = (1 << (b - 1)) + rem
            prev += d
            codes_list.append(prev)
        if codes_list[-1] >= 1 << (3 * q):
            raise CorruptPayloadError("decoded code exceeds the lattice")
        lows = np.array([c & 0xFFFFFFFFFFFF for c in codes_list], dtype=np.uint64)
        highs = np.array([c >> 48 for c in codes_list], dtype=np.uint64)
        points = np.empty((n, 3), dtype=np.int64)
        for axis in range(3):
            shift = np.uint64(axis)
            lo16 = partition._compact3(lows >> shift)
            hi = partition._compact3(highs >> shift)
            points[:, axis] = ((hi << np.uint64(16)) | lo16).astype(np.int64)

    return QuantizedGeometry(q=q, points=points)


def _run_external(command: str, src: bytes, suffix_in: str, suffix_out: str) -> bytes:
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
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {points.shape[0]}",
        "property int x",
        "property int y",
        "property int z",
        "end_header",
    ]
    lines += [f"{int(x)} {int(y)} {int(z)}" for x, y, z in points]
    return ("\n".join(lines) + "\n").encode("ascii")


def _ascii_ply_to_points(blob: bytes) -> np.ndarray:
    text = blob.decode("ascii", errors="replace").splitlines()
    try:
        start = next(i for i, line in enumerate(text) if line.strip() == "end_header")
    except StopIteration:
        raise CorruptPayloadError("external decoder emitted no PLY header") from None
    rows = [line.split() for line in text[start + 1 :] if line.strip()]
    return np.array([[int(float(v)) for v in row[:3]] for row in rows], dtype=np.int64)


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
    points = _ascii_ply_to_points(blob)
    if points.ndim != 2 or points.shape[1] != 3 or points.shape[0] < 1:
        raise CorruptPayloadError("external decoder emitted no points")
    _check_count(points.shape[0], count)
    order = partition.morton_order(points, q)
    return QuantizedGeometry(q=q, points=points[order])
