"""Whole-asset codec: parameter block, bitstream container, encode/decode.

Encoding pipeline:

1. fit a lattice grid over the centers, quantize them (q_geo bits/axis),
2. sort primitives along the Morton curve of the lattice points,
3. rebuild the *reconstructed* centers (dequantized lattice) -- every
   later stage sees only these, because the decoder will too,
4. KD-tree partition the reconstructed centers into leaves,
5. per leaf, build the Gaussian-affinity graph and its Laplacian
   eigenbasis, transform each attribute group (SH color as Y/U/V
   channels, opacity, scale, rotation), and keep the lowest
   ceil(alpha * m) coefficients; leaves of one size m go through these
   steps together, as one stack, graphs included,
6. quantize kept coefficients on one global grid per group and entropy
   code them; geometry travels separately as Morton deltas.

From `POOL_MIN_WORK` of work, counted in encoded symbols (a decoded
level weighing `DECODE_WEIGHT`, a leaf spectrum `SPECTRUM_WEIGHT * m^2`),
steps 5-6 are shared between this process and a pool of forked workers,
one per further usable CPU (`_dispatch`, `pool`).  The pool is forked
by the first call that needs it and serves every later one;
`pool.close_pool` stops it, as does exit.  Each process first solves a contiguous run of every
size's leaves and sends back their kept coefficients; then each fits,
quantizes and codes its share of the seven independent payloads.  Every
byte is the same whatever the worker count.

An attribute payload lists the leaf sizes in order of first appearance
in the partition, each size's leaves in partition order, and each
leaf's kept levels component-major.  A level is coded as its offset d
from its component's zero level, `quantize(0)` on the header grid,
zigzagged to u (2d for d >= 0, -2d - 1 below): the *class* of u, its
bit length in [0, q + 1], is arithmetic coded with one adaptive model
per band of the coefficient index (0 | 1 | 2-3 | 4-7 | 8-15 | 16+) and
SH degree of the component (0-3 for colour, 0 for every other group),
and u's low `class - 1` bits follow raw (`encode_levels`).  The payload
is

    [count u32 LE][class-bytes length u32 LE][class bytes]
    [raw bits, MSB-first, zero padded to a byte]

where the class bytes are the coder's output after its count header.

The decoder replays steps 3-5 from the decoded lattice alone, which
reproduces partitions, graphs and bases bit-for-bit -- no basis data is
transmitted.  The partition alone fixes each payload's symbol count, so
the six attribute payloads are decoded first, shared out like the
encoder's; then each process solves its run of every size's leaves and
inverse transforms the run's levels.  Bitstream sections: header
(parameters + grids + section table), geometry payload (size B1), six
attribute payloads (sum B2).  The geometry grid travels as float64,
since every basis depends on it; the attribute grids are fitted on
float32 values and travel as float32.
"""

from __future__ import annotations

import os
import struct
import threading
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import colorspace, entropy, geom_codec, partition, spectral
from .entropy import CorruptPayloadError
from .gs_core import Box3, GaussianCloud
from .quantizer import QuantGrid, dequantize, fit_grid, quantize

MAGIC = b"GGSC"
#: Stream format version.  8: symbols range coded two per interval step,
#: on an 88-bit window (7: class contexts by band and SH degree, attribute
#: grids in float32; 6: every payload range coded, bytes at a time; 5:
#: attribute levels coded as band-context magnitude classes plus raw
#: bits, through a bit-wise arithmetic coder; 4: one adaptive model
#: over all 2^q levels, one flag byte, one scale per grid, colour
#: conversions sum in index order; 3: payloads group leaves by size,
#: transforms sum in index order without BLAS; 2: per-leaf order and BLAS
#: products; 1: cyclic Jacobi bases).
VERSION = 8

#: Attribute groups in payload order: (name, component count).  SH color
#: is coded per YUV channel, 16 coefficient triples each.
ATTRIBUTE_GROUPS = (
    ("sh_y", colorspace.SH_TRIPLES),
    ("sh_u", colorspace.SH_TRIPLES),
    ("sh_v", colorspace.SH_TRIPLES),
    ("opacity", 1),
    ("scale", 3),
    ("rotation", 4),
)
GROUP_NAMES = tuple(name for name, _ in ATTRIBUTE_GROUPS)
#: Contexts of an attribute payload's class stream: coefficient index
#: bands 0 | 1 | 2-3 | 4-7 | 8-15 | 16+, each split by the SH degree of
#: the level's component, one adaptive model per (band, degree) pair.
BANDS = 6
DEGREES = 4
#: SH degree of each of a colour channel's 16 coefficients: 0 | 1-3 | 4-8
#: | 9-15.  Every other group's components count as degree 0.
SH_DEGREES = np.repeat(np.arange(DEGREES), 2 * np.arange(DEGREES) + 1)

GEOM_INTERNAL = 0
GEOM_EXTERNAL = 1
#: The header's fields ahead of its grids: magic, version, geometry
#: backend, primitive count, max_leaf, q_geo, then each group's bit depth
#: and each group's alpha.
_HEADER_FIELDS = f"<4sHBIIB{len(GROUP_NAMES)}B{len(GROUP_NAMES)}d"

#: Attribute bit depths share the entropy coder's alphabet ceiling of
#: 2^16; geometry indices never meet the entropy alphabet, so the lattice
#: may go deeper.
MAX_Q_ATTR = 16
MAX_Q_GEO = 31
#: Largest KD-tree leaf.  A leaf's eigensolve is O(m^3) in time and its
#: affinity O(m^2) in memory; at m = 512 one solve took 2.7 s and 74 MiB
#: peak RSS on one core of an Intel Xeon.  The bound keeps a hostile
#: header from asking for one leaf over every point.
MAX_LEAF = 512
#: Most primitives a stream may declare per byte of its own length.  The
#: header's count sets how much the decoder decodes, so without a bound a
#: file of a few kilobytes could claim millions of primitives and fail
#: only after seconds of work.  Benchmark streams carry at least 11 bytes
#: per primitive.  Copies of one primitive at q 1 and alpha 0.01 reach
#: 7.5 per byte at max_leaf 64 and 53 at 512 (131,072 copies); with every
#: attribute zero they cost almost nothing, and 65,536 copies code to 465
#: bytes, 141 per byte.  No bound passes every such degenerate cloud:
#: `encode` refuses a stream past this one, so every stream it writes
#: decodes.
MAX_PRIMS_PER_BYTE = 64
#: Work, counted in encoded symbols, below which an encode or decode
#: runs in this process alone rather than sharing its leaf spectra and
#: payloads with the worker pool (`_process_count`).  On a 2-vCPU x86-64
#: VM a pool round trip costs 0.1 ms empty and 0.3 ms carrying 172 KB (an
#: encoded symbol costs about 0.6 us), but splitting a stack of small
#: leaves duplicates its fixed per-chunk cost, so the break-even lies
#: higher: forced pool against serial, medians of 15-21 alternating calls,
#: gained 1.15-1.4x from about 19,000 (128 primitives in leaves of 32),
#: and ranged 0.74-1.2x, mostly below 1, under 16,000.  The benchmark's
#: `tiny` (5,696 to encode, 12,800 to decode) stays here, and
#: `spectral-m64` (40,064), `lossy-rd` (76,288) and `entropy-q16` (91,136)
#: use the pool.
POOL_MIN_WORK = 1 << 14
#: A leaf spectrum of m primitives, with its transforms, weighs
#: SPECTRUM_WEIGHT * m^2 encoded symbols: solved in stacks of its size, a
#: leaf took 4.0-4.6 m^2 symbols' time at m = 8 to 32 and 6 m^2 at m = 64
#: (a Python QL of about 1.1 m^2 rotations dominates).
SPECTRUM_WEIGHT = 4
#: A decoded attribute level weighs this many encoded symbols: the
#: decoder's per-symbol Fenwick search costs 3.3-4 times an encode of the
#: same class streams (2.1-2.8 against 0.6-0.7 us per symbol).
DECODE_WEIGHT = 3


class CodecError(ValueError):
    """Container-level failure: bad magic, version or section framing."""


@dataclass(frozen=True)
class CodecParams:
    """Everything the encoder is allowed to vary.

    Bit depths `q_*` count quantizer bits (attribute groups 1..16,
    geometry 1..31); `alpha_*` in (0, 1] is the kept fraction of graph
    spectrum per group; `max_leaf` (1..512) bounds KD-tree leaf size.
    """

    q_geo: int = 14
    q_sh_y: int = 10
    q_sh_u: int = 10
    q_sh_v: int = 10
    q_opacity: int = 10
    q_scale: int = 10
    q_rotation: int = 10
    alpha_sh_y: float = 1.0
    alpha_sh_u: float = 1.0
    alpha_sh_v: float = 1.0
    alpha_opacity: float = 1.0
    alpha_scale: float = 1.0
    alpha_rotation: float = 1.0
    max_leaf: int = 200

    def validate(self) -> None:
        if not isinstance(self.q_geo, int) or not 1 <= self.q_geo <= MAX_Q_GEO:
            raise ValueError(f"q_geo must be an int in [1, {MAX_Q_GEO}]")
        for name in GROUP_NAMES:
            q = self.q_for(name)
            if not isinstance(q, int) or not 1 <= q <= MAX_Q_ATTR:
                raise ValueError(f"q_{name} must be an int in [1, {MAX_Q_ATTR}]")
            alpha = self.alpha_for(name)
            if not 0.0 < alpha <= 1.0:
                raise ValueError(f"alpha_{name} must lie in (0, 1]")
        if not isinstance(self.max_leaf, int) or not 1 <= self.max_leaf <= MAX_LEAF:
            raise ValueError(f"max_leaf must be an int in [1, {MAX_LEAF}]")

    def q_for(self, group: str) -> int:
        return getattr(self, f"q_{group}")

    def alpha_for(self, group: str) -> float:
        return getattr(self, f"alpha_{group}")


@dataclass
class CodedStream:
    """Parsed bitstream: parameters, fitted grids and raw payloads."""

    params: CodecParams
    gs_count: int
    geom_backend: int
    geom_grid: QuantGrid
    attr_grids: dict[str, QuantGrid]
    geometry_payload: bytes
    attribute_payloads: dict[str, bytes]

    def to_bytes(self) -> bytes:
        head = self._pack_header()
        table = struct.pack("<I", len(self.geometry_payload))
        for name in GROUP_NAMES:
            table += struct.pack("<I", len(self.attribute_payloads[name]))
        body = self.geometry_payload + b"".join(
            self.attribute_payloads[name] for name in GROUP_NAMES
        )
        return head + table + body

    def header_size(self) -> int:
        """Bytes of header plus section table (everything but payloads),
        from the layout alone: packing would raise on an attribute grid
        that float32 cannot hold."""
        grids = 8 * (self.geom_grid.components + 1) + 4 * sum(
            self.attr_grids[name].components + 1 for name in GROUP_NAMES)
        return struct.calcsize(_HEADER_FIELDS) + grids + 4 * (1 + len(GROUP_NAMES))

    def _pack_header(self) -> bytes:
        p = self.params
        out = struct.pack(_HEADER_FIELDS, MAGIC, VERSION, self.geom_backend,
                          self.gs_count, p.max_leaf, p.q_geo,
                          *(p.q_for(name) for name in GROUP_NAMES),
                          *(p.alpha_for(name) for name in GROUP_NAMES))
        out += _pack_grid(self.geom_grid, "d")
        for name in GROUP_NAMES:
            out += _pack_grid(self.attr_grids[name], "f")
        return out

    @classmethod
    def from_bytes(cls, data: bytes) -> "CodedStream":
        cur = _Cursor(data)
        if cur.take(4) != MAGIC:
            raise CodecError("not a coded stream (bad magic)")
        (version,) = cur.unpack("<H")
        if version != VERSION:
            raise CodecError(f"unsupported stream version {version}")
        (backend,) = cur.unpack("<B")
        if backend not in (GEOM_INTERNAL, GEOM_EXTERNAL):
            raise CodecError(f"unknown geometry backend {backend}")
        gs_count, max_leaf, q_geo = cur.unpack("<IIB")
        qs = {name: cur.unpack("<B")[0] for name in GROUP_NAMES}
        alphas = {name: cur.unpack("<d")[0] for name in GROUP_NAMES}
        try:
            params = CodecParams(
                q_geo=q_geo,
                max_leaf=max_leaf,
                **{f"q_{n}": qs[n] for n in GROUP_NAMES},
                **{f"alpha_{n}": alphas[n] for n in GROUP_NAMES},
            )
            params.validate()
            geom_grid = _unpack_grid(cur, 3, q_geo, "d")
            attr_grids = {
                name: _unpack_grid(cur, comps, qs[name], "f")
                for name, comps in ATTRIBUTE_GROUPS
            }
        except ValueError as exc:
            raise CodecError(f"invalid header field: {exc}") from exc
        if gs_count < 1:
            raise CodecError("stream declares zero primitives")
        if gs_count > MAX_PRIMS_PER_BYTE * len(data):
            raise CodecError(f"{gs_count} primitives in {len(data)} bytes: "
                             f"more than {MAX_PRIMS_PER_BYTE} per byte")

        lens = [cur.unpack("<I")[0] for _ in range(1 + len(GROUP_NAMES))]
        geometry_payload = cur.take(lens[0])
        attribute_payloads = {
            name: cur.take(lens[1 + i]) for i, name in enumerate(GROUP_NAMES)
        }
        if cur.remaining() != 0:
            raise CodecError(f"{cur.remaining()} trailing bytes after payloads")
        return cls(
            params=params,
            gs_count=gs_count,
            geom_backend=backend,
            geom_grid=geom_grid,
            attr_grids=attr_grids,
            geometry_payload=geometry_payload,
            attribute_payloads=attribute_payloads,
        )


class _Cursor:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CodecError("stream truncated")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def remaining(self) -> int:
        return len(self.data) - self.pos


def _pack_grid(grid: QuantGrid, fmt: str) -> bytes:
    """A grid's mins then scale, each packed as `fmt` ("d" or "f").  A
    value "f" cannot hold exactly raises `ValueError` instead of being
    rounded; `fit_grid(..., np.float32)` fits grids that "f" holds."""
    fields = np.append(grid.mins, grid.scale)
    with np.errstate(over="ignore"):
        exact = fmt == "d" or np.array_equal(fields.astype(np.float32), fields)
    if not exact:
        raise ValueError("attribute grid holds a value float32 cannot represent")
    return struct.pack(f"<{fields.size}{fmt}", *fields)


def _unpack_grid(cur: _Cursor, comps: int, q: int, fmt: str) -> QuantGrid:
    *mins, scale = cur.unpack(f"<{comps + 1}{fmt}")
    return QuantGrid(mins=np.array(mins), scale=scale, q=q)


@dataclass
class Internals:
    """The codec's intermediate state, for mirror checks and analysis.

    `encode(..., collect_debug=True)` and `decode(..., collect_debug=True)`
    each return one; the decoder's equals the encoder's field by field.
    """

    part: partition.Partition
    #: One (rows, spectrum) pair per chunk of equal-size leaves, as
    #: `spectral.graph_spectra` returns them: rows (B, m) index the
    #: primitives in canonical order, the spectrum stacks B leaves.
    chunks: list[tuple[np.ndarray, spectral.GraphSpectrum]]
    recon_centers: np.ndarray
    #: Group name -> (N, C) decoded attribute signals (dequantize,
    #: zero-pad, inverse transform); on the encoder, its local decode.
    signals: dict[str, np.ndarray]


@dataclass(frozen=True)
class BitrateReport:
    """Byte accounting; total always equals the serialized stream size."""

    header_bytes: int
    geometry_bytes: int
    attribute_bytes: dict[str, int]
    total_bytes: int

    @property
    def b1(self) -> int:
        return self.geometry_bytes

    @property
    def b2(self) -> int:
        return sum(self.attribute_bytes.values())


def bitrate_breakdown(stream: CodedStream) -> BitrateReport:
    header = stream.header_size()
    geom = len(stream.geometry_payload)
    attrs = {name: len(stream.attribute_payloads[name]) for name in GROUP_NAMES}
    return BitrateReport(
        header_bytes=header,
        geometry_bytes=geom,
        attribute_bytes=attrs,
        total_bytes=header + geom + sum(attrs.values()),
    )


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _process_count(work: int) -> int:
    """Processes to share `work` (in encoded symbols) between: this one
    plus a pool worker per further usable CPU, or this one alone when the
    work weighs less than `POOL_MIN_WORK`, when only one CPU is usable,
    without `os.fork`, or when this process has other threads (a fork
    copies only the calling one, and the pool serves one caller)."""
    cpus = _usable_cpus()
    if (cpus < 2 or work < POOL_MIN_WORK or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return 1
    return cpus


def _shares(weights: list[int], workers: int) -> list[list[int]]:
    """Job indices per worker: heaviest job first onto the lightest load.
    Each share is in job order; empty shares are dropped."""
    loads = [0] * workers
    shares: list[list[int]] = [[] for _ in range(workers)]
    for i in sorted(range(len(weights)), key=lambda i: -weights[i]):
        w = loads.index(min(loads))
        shares[w].append(i)
        loads[w] += weights[i]
    return [sorted(share) for share in shares if share]


def _run_share(calls) -> dict[int, tuple[bool, object]]:
    """Outcomes of `calls` (index, name of a function of this module,
    args), run in order up to the first that raises: a later call of the
    share cannot hold the first error."""
    out = {}
    for i, name, args in calls:
        try:
            out[i] = (True, globals()[name](*args))
        except Exception as exc:  # noqa: BLE001 - returned to `_dispatch`
            out[i] = (False, exc)
            break
    return out


def _dispatch(calls: list[tuple[str, tuple]], shares: list[list[int]]) -> list:
    """Results of `calls` (name of a function of this module, args), in
    call order.

    Share 0 runs here and share w on worker w of the pool (`pool.share`);
    a single share runs here alone.  The exception raised is that of the
    first call in list order that raised.
    """
    requests = [[(i, *calls[i]) for i in share] for share in shares]
    if len(requests) == 1:
        outcomes = _run_share(requests[0])
    else:
        from . import pool  # compiled only once a call needs it

        outcomes = {}
        for reply in pool.share(_run_share, requests):
            outcomes.update(reply)
    results = []
    for i in range(len(calls)):
        ok, value = outcomes[i]
        if not ok:
            raise value
        results.append(value)
    return results


def _level_count(comps: int, alpha: float, sizes: dict[int, int]) -> int:
    return comps * sum(n * spectral.clip_count(alpha, m) for m, n in sizes.items())


def _level_layout(grid: QuantGrid, alpha: float,
                  sizes: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Each payload level's context and zero level, in payload order, for
    `sizes` (leaf size -> leaf count, in payload order).

    The context is `band * DEGREES + degree`: the band of the level's
    coefficient index, 0 | 1 | 2-3 | 4-7 | 8-15 | 16+, and the SH degree
    of its component (`SH_DEGREES` for a 16-component colour channel, 0
    for every other group).  The zero level is `quantize(0)` on its
    component's grid.
    """
    comps = grid.components
    zero = quantize(np.zeros(comps), grid)
    degree = SH_DEGREES if comps == len(SH_DEGREES) else np.zeros(comps, dtype=np.int64)
    contexts, zeros = [], []
    for m, n in sizes.items():
        k = spectral.clip_count(alpha, m)
        # frexp's exponent is the bit length of a nonnegative integer
        band = np.minimum(np.frexp(np.arange(k))[1], BANDS - 1)
        ctx = band * DEGREES + degree[:, None]
        contexts.append(np.broadcast_to(ctx, (n, comps, k)).ravel())
        zeros.append(np.broadcast_to(zero[:, None], (n, comps, k)).ravel())
    return np.concatenate(contexts), np.concatenate(zeros)


def _leaf_blocks(values: np.ndarray, comps: int, alpha: float,
                 sizes: dict[int, int]) -> dict[int, np.ndarray]:
    """Views of a group's values in payload layout, flat, as one (n, k, C)
    block per leaf size m: its n leaves, their k = `clip_count(alpha, m)`
    kept coefficients and C components."""
    blocks, at = {}, 0
    for m, n in sizes.items():
        k = spectral.clip_count(alpha, m)
        blocks[m] = values[at:at + n * k * comps].reshape(n, k, comps)
        at += n * k * comps
    return blocks


def _payload_levels(kept: np.ndarray, grid: QuantGrid, alpha: float,
                    sizes: dict[int, int]) -> np.ndarray:
    """A group's levels in payload order (each leaf's component-major)
    from its kept coefficients, flat in `_leaf_blocks` layout."""
    levels = quantize(kept.reshape(-1, grid.components), grid).ravel()
    blocks = _leaf_blocks(levels, grid.components, alpha, sizes).values()
    return np.concatenate([block.transpose(0, 2, 1).ravel() for block in blocks])


def _code_group(kept: np.ndarray, comps: int, q: int, alpha: float,
                sizes: dict[int, int]) -> tuple[QuantGrid, bytes]:
    """A group's grid, fitted over all its kept coefficients (flat, in
    `_leaf_blocks` layout), and its payload."""
    grid = fit_grid(kept.reshape(-1, comps), q, np.float32)
    return grid, encode_levels(_payload_levels(kept, grid, alpha, sizes), grid, alpha, sizes)


#: Bytes of the big-endian field that holds a zigzagged level's raw bits:
#: a level has at most MAX_Q_ATTR + 1 bits.
_RAW_BYTES = 3


def encode_levels(levels: np.ndarray, grid: QuantGrid, alpha: float,
                  sizes: dict[int, int]) -> bytes:
    """One attribute payload from its levels in payload order.

    Each level's offset from its zero level is zigzagged to u >= 0; its
    magnitude class, the bit length of u, is arithmetic coded with one
    adaptive model per coefficient band and SH degree, and the low
    `class - 1` bits of u follow raw.  `sizes` maps leaf size to leaf
    count in payload order.
    """
    contexts, zeros = _level_layout(grid, alpha, sizes)
    d = levels - zeros
    u = np.where(d < 0, -2 * d - 1, 2 * d)
    classes = np.frexp(u.astype(np.float64))[1].astype(np.int64)
    coded = entropy.aac_encode(entropy.SymbolStream(grid.q + 2, classes), contexts)
    raw = entropy.pack_raw_bits(entropy.be_fields(u, _RAW_BYTES), np.maximum(classes - 1, 0))
    return b"".join([coded[:4], struct.pack("<I", len(coded) - 4), coded[4:], raw])


def decode_levels(payload: bytes, grid: QuantGrid, alpha: float,
                  sizes: dict[int, int]) -> np.ndarray:
    """Invert `encode_levels`; any inconsistency raises `CorruptPayloadError`.

    The count the header claims must be the one `sizes` implies, and is
    checked before anything is decoded or allocated.
    """
    count = _level_count(grid.components, alpha, sizes)
    class_len, _ = level_payload_sections(payload)
    (claimed,) = struct.unpack_from("<I", payload, 0)
    if claimed != count:
        raise CorruptPayloadError(f"payload holds {claimed} symbols, expected {count}")
    contexts, zeros = _level_layout(grid, alpha, sizes)
    classes = entropy.aac_decode(payload[:4] + payload[8 : 8 + class_len],
                                 grid.q + 2, count, contexts).symbols
    widths = np.maximum(classes - 1, 0)
    u = entropy.be_values(entropy.unpack_raw_bits(payload[8 + class_len :], widths,
                                                  _RAW_BYTES, "raw section"))
    u |= np.where(classes > 0, 1 << widths, 0)
    levels = zeros + np.where(u & 1, -(u + 1) // 2, u // 2)
    if count and (levels.min() < 0 or levels.max() > grid.levels):
        raise CorruptPayloadError(f"raw bits decode to a level outside [0, {grid.levels}]")
    return levels


def level_payload_sections(payload: bytes) -> tuple[int, int]:
    """(class bytes, raw bytes) of an attribute payload, read from its
    framing without decoding; a framing they do not fit raises
    `CorruptPayloadError`."""
    if len(payload) < 8:
        raise CorruptPayloadError("payload shorter than its header")
    (class_len,) = struct.unpack_from("<I", payload, 4)
    if 8 + class_len > len(payload):
        raise CorruptPayloadError(
            f"class bytes ({class_len}) run past the payload end ({len(payload)})")
    return class_len, len(payload) - 8 - class_len


def _sigma(centers: np.ndarray) -> float:
    """Every leaf's kernel bandwidth, from the box of all the centers."""
    return spectral.sigma_from_box(Box3(min=centers.min(axis=0), max=centers.max(axis=0)))


def _spectra_work(sizes: dict[int, int]) -> int:
    return sum(n * SPECTRUM_WEIGHT * m * m for m, n in sizes.items())


def _runs(leaves, sizes: dict[int, int],
          count: int) -> list[tuple[np.ndarray, dict[int, int]]]:
    """`count` contiguous runs of each size's leaves: run r holds leaves
    n * r // count up to n * (r + 1) // count of each size's n.  Each run
    comes as its rows (its leaves concatenated, sizes in payload order)
    and its sizes, every size of `sizes` listed, in the same order."""
    by_size: dict[int, list[np.ndarray]] = {}
    for leaf in leaves:
        by_size.setdefault(len(leaf), []).append(leaf)
    runs = []
    for r in range(count):
        bounds = {m: (n * r // count, n * (r + 1) // count) for m, n in sizes.items()}
        run = [leaf for m, (lo, hi) in bounds.items() for leaf in by_size[m][lo:hi]]
        rows = np.concatenate(run) if run else np.zeros(0, dtype=np.int64)
        runs.append((rows, {m: hi - lo for m, (lo, hi) in bounds.items()}))
    return runs


def _consecutive_leaves(sizes: dict[int, int]) -> list[np.ndarray]:
    """Leaves of the given sizes over consecutive rows, in payload order."""
    leaves, at = [], 0
    for m, n in sizes.items():
        for _ in range(n):
            leaves.append(np.arange(at, at + m))
            at += m
    return leaves


def _split_runs(values: np.ndarray, comps: int, alpha: float, sizes: dict[int, int],
                run_sizes: list[dict[int, int]]) -> list[np.ndarray]:
    """A group's values in payload layout (each size's leaves, each leaf's
    `clip_count(alpha, m) * comps` entries) cut into the runs' flat
    values, in the same layout over each run's sizes."""
    blocks = _leaf_blocks(values, comps, alpha, sizes)
    at = dict.fromkeys(sizes, 0)
    out = []
    for run in run_sizes:
        out.append(np.concatenate([blocks[m][at[m]:at[m] + n].ravel()
                                   for m, n in run.items()]))
        for m, n in run.items():
            at[m] += n
    return out


def _join_runs(parts: list[np.ndarray], comps: int, alpha: float,
               run_sizes: list[dict[int, int]]) -> np.ndarray:
    """Invert `_split_runs`: the runs' flat values joined in payload layout."""
    blocks = [_leaf_blocks(part, comps, alpha, run) for part, run in zip(parts, run_sizes)]
    return np.concatenate([b[m].ravel() for m in run_sizes[0] for b in blocks])


def _kept_coefficients(chunks, signals: dict[str, np.ndarray], params: CodecParams,
                       sizes: dict[int, int]) -> dict[str, np.ndarray]:
    """Each group's kept coefficients over the chunks' leaves, flat in
    `_leaf_blocks` layout for `sizes`."""
    kept = {}
    for name, comps in ATTRIBUTE_GROUPS:
        alpha = params.alpha_for(name)
        values = np.empty(_level_count(comps, alpha, sizes))
        blocks = _leaf_blocks(values, comps, alpha, sizes)
        at = dict.fromkeys(sizes, 0)
        for rows, spec in chunks:
            nb, m = rows.shape
            block = blocks[m]
            block[at[m]:at[m] + nb] = spectral.gft(spec, signals[name][rows], block.shape[1])
            at[m] += nb
        kept[name] = values
    return kept


def _encode_run(centers: np.ndarray, sizes: dict[int, int], sigma: float,
                signals: dict[str, np.ndarray], params: CodecParams) -> dict[str, np.ndarray]:
    """Kept coefficients of a run of leaves that lie on consecutive rows of
    `centers` and `signals`, `sizes` of them (`_kept_coefficients`)."""
    chunks = spectral.graph_spectra(centers, _consecutive_leaves(sizes), sigma)
    return _kept_coefficients(chunks, signals, params, sizes)


def _code_geometry(geometry: geom_codec.QuantizedGeometry) -> bytes:
    return geom_codec.encode_centers(geometry)


def _attribute_signals(cloud: GaussianCloud) -> dict[str, np.ndarray]:
    yuv = colorspace.sh_rgb_to_yuv(colorspace.sh_from_flat(cloud.sh)).coeffs
    return {
        "sh_y": yuv[:, :, 0],
        "sh_u": yuv[:, :, 1],
        "sh_v": yuv[:, :, 2],
        "opacity": cloud.opacity[:, None],
        "scale": cloud.scale,
        "rotation": cloud.rotation,
    }


def encode(
    cloud: GaussianCloud,
    params: CodecParams = CodecParams(),
    *,
    threads: int = 1,
    collect_debug: bool = False,
    geometry_command: str | None = None,
):
    """Compress a cloud; returns the stream.

    With `collect_debug` it returns `(stream, Internals)`, whose signals
    are the encoder's local decode: exactly what `decode` reproduces.

    `geometry_command` hands the geometry section to an external lossless
    point-cloud coder: a command template with `{in}` and `{out}`
    placeholders, e.g. "tmc3 --mode=0 ... {in} {out}".  The stream records
    that backend; decoding it needs the matching decode command.

    `threads` (>= 1) has no effect.  When the encode weighs enough to be
    shared with the worker pool (see `_process_count`), each process
    first solves a contiguous run of every size's leaves, then codes its
    share of the payloads (`_dispatch`); with `collect_debug` the leaf
    spectra are solved in this process, which keeps their bases.  A
    stream denser than MAX_PRIMS_PER_BYTE raises `CodecError`.
    """
    params.validate()
    if threads < 1:
        raise ValueError("threads must be >= 1")

    geom_grid = fit_grid(cloud.centers, params.q_geo)
    lattice = quantize(cloud.centers, geom_grid)
    perm = partition.morton_order(lattice, params.q_geo)
    lattice = lattice[perm]
    ordered = cloud.take(perm)

    recon_centers = dequantize(lattice, geom_grid)
    part = partition.kdtree_split(recon_centers, params.max_leaf)
    sizes = Counter(len(leaf) for leaf in part.leaves)
    sigma = _sigma(recon_centers)
    signals = _attribute_signals(ordered)
    geometry = geom_codec.QuantizedGeometry(q=params.q_geo, points=lattice)
    counts = [_level_count(comps, params.alpha_for(name), sizes)
              for name, comps in ATTRIBUTE_GROUPS]
    if not geometry_command:
        counts.append(len(geometry))
    procs = _process_count(sum(counts) + _spectra_work(sizes))

    if collect_debug:  # every basis is solved here, and kept
        chunks = spectral.graph_spectra(recon_centers, part.leaves, sigma)
        kept = _kept_coefficients(chunks, signals, params, sizes)
    else:
        runs = _runs(part.leaves, sizes, procs)
        parts = _dispatch(
            [("_encode_run", (recon_centers[rows], run, sigma,
                              {name: s[rows] for name, s in signals.items()}, params))
             for rows, run in runs],
            [[r] for r in range(procs)])
        run_sizes = [run for _, run in runs]
        kept = {name: _join_runs([p[name] for p in parts], comps,
                                 params.alpha_for(name), run_sizes)
                for name, comps in ATTRIBUTE_GROUPS}
    calls = [("_code_group", (kept[name], comps, params.q_for(name),
                              params.alpha_for(name), sizes))
             for name, comps in ATTRIBUTE_GROUPS]
    if not geometry_command:
        calls.append(("_code_geometry", (geometry,)))
    coded = _dispatch(calls, _shares(counts, procs))
    attr_grids = {name: grid for name, (grid, _) in zip(GROUP_NAMES, coded)}
    payloads = {name: payload for name, (_, payload) in zip(GROUP_NAMES, coded)}
    if geometry_command:
        geometry_payload = geom_codec.encode_centers_external(
            geometry, geometry_command
        )
        backend = GEOM_EXTERNAL
    else:
        geometry_payload = coded[-1]
        backend = GEOM_INTERNAL

    stream = CodedStream(
        params=params,
        gs_count=len(cloud),
        geom_backend=backend,
        geom_grid=geom_grid,
        attr_grids=attr_grids,
        geometry_payload=geometry_payload,
        attribute_payloads=payloads,
    )
    size = bitrate_breakdown(stream).total_bytes
    if len(cloud) > MAX_PRIMS_PER_BYTE * size:
        raise CodecError(f"{len(cloud)} primitives in {size} bytes: "
                         f"more than {MAX_PRIMS_PER_BYTE} per byte would not decode")
    if not collect_debug:
        return stream

    levels = {name: _payload_levels(kept[name], attr_grids[name], params.alpha_for(name), sizes)
              for name in GROUP_NAMES}
    local = _reconstruct_signals(chunks, levels, attr_grids, params, len(cloud))
    return stream, Internals(part, chunks, recon_centers, local)


def _reconstruct_signals(
    chunks: list[tuple[np.ndarray, spectral.GraphSpectrum]],
    levels: dict[str, np.ndarray],
    grids: dict[str, QuantGrid],
    params: CodecParams,
    count: int,
) -> dict[str, np.ndarray]:
    """Shared inverse path from each group's levels in payload order over
    the chunks' leaves: dequantize, zero-pad, inverse transform, one chunk
    at a time, into (count, C) signals.  Used verbatim by the decoder and
    by the encoder's local decode, so both sides produce bit-identical
    attribute signals by construction.
    """
    out: dict[str, np.ndarray] = {}
    for name, comps in ATTRIBUTE_GROUPS:
        symbols = levels[name]
        sig = np.empty((count, comps))
        pos = 0
        for rows, spec in chunks:
            nb, m = rows.shape
            k = spectral.clip_count(params.alpha_for(name), m)
            block = symbols[pos : pos + nb * comps * k].reshape(nb, comps, k)
            pos += block.size
            padded = np.zeros((nb, m, comps))
            padded[:, :k] = dequantize(block.transpose(0, 2, 1), grids[name])
            sig[rows] = spectral.igft(spec, padded)
        out[name] = sig
    return out


def _decode_run(centers: np.ndarray, sizes: dict[int, int], sigma: float,
                levels: dict[str, np.ndarray], grids: dict[str, QuantGrid],
                params: CodecParams) -> dict[str, np.ndarray]:
    """Decoded signals of a run of leaves that lie on consecutive rows of
    `centers`, `sizes` of them, from each group's levels over the run."""
    chunks = spectral.graph_spectra(centers, _consecutive_leaves(sizes), sigma)
    # Overflow on a hostile grid is `decode`'s to report (`_check_finite`).
    with np.errstate(over="ignore", invalid="ignore"):
        return _reconstruct_signals(chunks, levels, grids, params, len(centers))


def _decode_payload(name: str, payload: bytes, grid: QuantGrid, alpha: float,
                    sizes: dict[int, int]) -> np.ndarray:
    try:
        return decode_levels(payload, grid, alpha, sizes)
    except CorruptPayloadError as exc:
        raise CorruptPayloadError(f"{name}: {exc}") from exc


def _check_finite(name: str, values: np.ndarray) -> None:
    """Finite grid fields can still scale decoded levels past float64."""
    if not np.isfinite(values).all():
        raise CodecError(f"quantizer grid takes decoded {name} outside float64")


def decode(
    stream: CodedStream,
    *,
    threads: int = 1,
    collect_debug: bool = False,
    geometry_command: str | None = None,
):
    """Reconstruct a cloud from a coded stream.

    With `collect_debug` it returns `(cloud, Internals)`, whose signals
    are the decoded attribute signals before the colour conversion.

    `geometry_command` is the external decoder's command template, needed
    only for a stream whose geometry an external coder wrote (see
    `encode`).  Truncated or tampered payloads raise `CorruptPayloadError`;
    container problems raise `CodecError`.  `threads` (>= 1) has no
    effect.  A decode shared with the worker pool decodes the payloads
    first, then solves each process's contiguous run of every size's
    leaves and inverse transforms it; with `collect_debug` the spectra
    are solved here, as in `encode`.
    """
    params = stream.params
    params.validate()
    if threads < 1:
        raise ValueError("threads must be >= 1")

    if stream.geom_backend == GEOM_EXTERNAL:
        if not geometry_command:
            raise CodecError(
                "stream was coded with an external geometry backend; "
                "pass geometry_command (ggsc decode --geometry-command) to decode it"
            )
        geometry = geom_codec.decode_centers_external(
            stream.geometry_payload, params.q_geo, geometry_command, stream.gs_count
        )
    else:
        geometry = geom_codec.decode_centers(
            stream.geometry_payload, params.q_geo, stream.gs_count
        )

    # A hostile grid can scale finite levels past float64.  `_check_finite`
    # turns that into a CodecError, so numpy's warnings on the way would
    # only be noise ahead of it.
    with np.errstate(over="ignore", invalid="ignore"):
        recon_centers = dequantize(geometry.points, stream.geom_grid)
        _check_finite("centers", recon_centers)
        part = partition.kdtree_split(recon_centers, params.max_leaf)
        sizes = Counter(len(leaf) for leaf in part.leaves)
        sigma = _sigma(recon_centers)
        weights = [DECODE_WEIGHT * _level_count(comps, params.alpha_for(name), sizes)
                   for name, comps in ATTRIBUTE_GROUPS]
        procs = _process_count(sum(weights) + _spectra_work(sizes))
        calls = [("_decode_payload", (name, stream.attribute_payloads[name],
                                      stream.attr_grids[name], params.alpha_for(name), sizes))
                 for name in GROUP_NAMES]
        levels = dict(zip(GROUP_NAMES, _dispatch(calls, _shares(weights, procs))))

        if collect_debug:  # every basis is solved here, and kept
            chunks = spectral.graph_spectra(recon_centers, part.leaves, sigma)
            signals = _reconstruct_signals(chunks, levels, stream.attr_grids, params,
                                           stream.gs_count)
        else:
            runs = _runs(part.leaves, sizes, procs)
            run_sizes = [run for _, run in runs]
            split = {name: _split_runs(levels[name], comps, params.alpha_for(name),
                                       sizes, run_sizes)
                     for name, comps in ATTRIBUTE_GROUPS}
            parts = _dispatch(
                [("_decode_run", (recon_centers[rows], run, sigma,
                                  {name: split[name][r] for name in GROUP_NAMES},
                                  stream.attr_grids, params))
                 for r, (rows, run) in enumerate(runs)],
                [[r] for r in range(procs)])
            signals = {name: np.empty((stream.gs_count, comps)) for name, comps in ATTRIBUTE_GROUPS}
            for (rows, _), part_signals in zip(runs, parts):
                for name in GROUP_NAMES:
                    signals[name][rows] = part_signals[name]

        yuv = np.stack([signals["sh_y"], signals["sh_u"], signals["sh_v"]], axis=2)
        rgb = colorspace.sh_yuv_to_rgb(colorspace.ShTriple(coeffs=yuv, space="yuv"))
        sh = colorspace.sh_to_flat(rgb)
        _check_finite("sh", sh)
        for name in ("opacity", "scale", "rotation"):
            _check_finite(name, signals[name])
    cloud = GaussianCloud(
        centers=recon_centers,
        sh=sh,
        opacity=signals["opacity"][:, 0],
        scale=signals["scale"],
        rotation=signals["rotation"],
    )
    if not collect_debug:
        return cloud
    return cloud, Internals(part, chunks, recon_centers, signals)


def canonical_order(cloud: GaussianCloud, params: CodecParams) -> GaussianCloud:
    """The Morton ordering `encode` applies, for aligning fidelity metrics.

    `decode(encode(cloud, params))` returns primitives in this order, so
    metrics compare the decoded cloud against `canonical_order(cloud,
    params)` row by row.
    """
    grid = fit_grid(cloud.centers, params.q_geo)
    perm = partition.morton_order(quantize(cloud.centers, grid), params.q_geo)
    return cloud.take(perm)
