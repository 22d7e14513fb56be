"""Whole-asset codec: parameter block, bitstream container, encode/decode.

Encoding pipeline:

1. fit a lattice grid over the centers, quantize them (q_geo bits/axis),
2. sort primitives along the Morton curve of the lattice points: their
   codes are built once (`partition.morton_limbs`), sorted, and coded
   as they are by the geometry section (`geom_codec.encode_centers`),
3. rebuild the *reconstructed* centers (dequantized lattice) -- every
   later stage sees only these, because the decoder will too,
4. KD-tree partition the reconstructed centers into leaves,
5. per leaf, build the Gaussian-affinity graph and its Laplacian
   eigenbasis, transform each attribute group (SH color as Y/U/V
   channels, opacity, scale, rotation), and keep the lowest
   ceil(alpha * m) coefficients; leaves of one size m go through these
   steps a stack of them at a time, whose bases are then dropped,
6. quantize kept coefficients on one global zero-aligned grid per group
   and entropy code them; geometry travels separately as Morton deltas.

Step 5 works on runs: contiguous slices of the leaves in payload order
(below), cut at about equal spectrum work (`_runs`), so that a group's
kept coefficients are the runs' parts concatenated.  A run is one call
of `spectral.forward` (`inverse` on decode); the codec holds no basis.
From `POOL_MIN_WORK` of work, counted in encoded symbols (a decoded level
weighing `DECODE_WEIGHT`, a leaf spectrum `SPECTRUM_WEIGHT * m^2`), the
runs and the seven independent payloads of step 6 are shared between
this process and a pool of forked workers, one per further usable CPU;
a lighter call makes one run and codes every payload here.  Either way
`_dispatch` takes the work as (function, args) calls, `spectral.forward`
or `geom_codec.encode_centers` among them: it runs one share here and
hands more to `pool.share`, which sends functions by reference.  A call
that collects its `Internals` takes the same processes and runs as one
that does not.  The pool is forked by the first call that needs it and
serves every later one; `pool.close_pool` stops it, as does exit.  Every
byte is the same whatever the worker count.

An attribute payload lists the leaf sizes in order of first appearance
in the partition, each size's leaves in partition order, and each
leaf's kept levels in the transform's (k, C) order: coefficient by
coefficient, each with its C components.  A level is coded as its
offset d from its component's zero level, `quantize(0)` on the header
grid, zigzagged to u (2d for d >= 0, -2d - 1 below): the *class* of u,
its bit length in [0, q + 1], is arithmetic coded with one adaptive
model per band of the coefficient index (0 | 1 | 2-3 | 4-7 | 8-15 |
16+) and SH degree of the component (0-3 for colour, 0 for every other
group), and u's low `class - 1` bits follow raw (`encode_levels`), in
`entropy`'s classed payload, as the geometry section's Morton deltas do.

The decoder replays steps 3-5 from the decoded lattice alone, which
reproduces partitions, graphs and bases bit-for-bit -- no basis data is
transmitted.  The partition alone fixes each payload's symbol count, so
the six attribute payloads are decoded and dequantized first, shared
out like the encoder's; then each run, cut as the encoder cuts it,
solves its leaves' spectra and inverse transforms its slice.  Bitstream
sections: the header, one fixed `struct` layout of `HEADER_BYTES` that
holds the parameters, the grids and the section table; the geometry
payload (B1 bytes); the six attribute payloads (B2 bytes in all).  The
geometry grid travels as float64, since every basis depends on it; the
attribute grids are fitted on float32 values and travel as float32.
"""

from __future__ import annotations

import os
import struct
import threading
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import colorspace, entropy, geom_codec, partition, spectral
from .entropy import CorruptPayloadError
from .gs_core import GaussianCloud
from .quantizer import QuantGrid, dequantize, fit_grid, quantize

MAGIC = b"GGSC"
#: Stream format version.  10: the geometry section is a classed payload
#: framed as the attribute payloads are, and an external backend's section
#: is the tool's bytes alone (9: each leaf's levels coefficient-major, in
#: the transform's (k, C) order; 8: symbols range coded two per interval
#: step, on an 88-bit window, each leaf's levels component-major; 7:
#: class contexts by band and SH degree, attribute grids in float32; 6:
#: every payload range coded, bytes at a time; 5: attribute levels coded
#: as band-context magnitude classes plus raw bits, through a bit-wise
#: arithmetic coder; 4: one adaptive model over all 2^q levels, one flag
#: byte, one scale per grid, colour conversions sum in index order; 3:
#: payloads group leaves by size, transforms sum in index order without
#: BLAS; 2: per-leaf order and BLAS products; 1: cyclic Jacobi bases).
VERSION = 10

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
#: Each quantizer grid's fields in the header, its minima then its scale:
#: the geometry grid's, then each attribute group's.
_GRID_FIELDS = (4, *(comps + 1 for _, comps in ATTRIBUTE_GROUPS))
#: The header, section table included: magic, version, geometry backend,
#: primitive count, max_leaf, q_geo, each group's bit depth, each group's
#: alpha, the geometry grid in float64, the attribute grids in float32,
#: and the bytes of the geometry section and of each attribute payload.
_HEADER = struct.Struct(f"<4sHBIIB{len(GROUP_NAMES)}B{len(GROUP_NAMES)}d"
                        + f"{_GRID_FIELDS[0]}d" + "".join(f"{n}f" for n in _GRID_FIELDS[1:])
                        + f"{1 + len(GROUP_NAMES)}I")
#: Bytes ahead of the payloads, the same in every stream.
HEADER_BYTES = _HEADER.size

#: Attribute bit depths: at q = 16 a zigzagged level has 17 bits, which
#: one `partition.LIMB_BITS` limb holds, while the coder sees only its
#: class (alphabet q + 2 = 18); 16 is also the deepest the tests run every
#: group at.  The lattice depth is bounded by `partition.MAX_Q`.
MAX_Q_ATTR = 16
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
#: encoded symbol costs about 0.6 us), so the break-even lies higher.
#: Forced pool against serial, each process on a CPU of its own (`pool`),
#: medians of 21-61 alternating calls at 64-256 primitives in leaves of 8
#: and 32, taken over five passes: 0.80-1.23x under 2^14, 0.90-1.40x from
#: 2^14 to 2^15 and 1.24-1.35x above.  Single passes ranged 0.71-1.53x,
#: so the break-even is no sharper than 2^14-2^15.  The benchmark's
#: `tiny` (5,696 to encode, 12,800 to decode) stays here, and
#: `spectral-m64` (40,064), `lossy-rd` (76,288) and `entropy-q16` (91,136)
#: use the pool.
POOL_MIN_WORK = 1 << 14
#: A leaf spectrum of m primitives, with its transforms, weighs
#: SPECTRUM_WEIGHT * m^2 encoded symbols: solved in stacks of its size, a
#: leaf took 4.0-4.6 m^2 symbols' time at m = 8 to 32 and 6 m^2 at m = 64
#: (a Python QL of about 1.1 m^2 rotations dominates).  `_runs` cuts the
#: leaves by the same weight.
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

    Bit depths `q_*` count quantizer bits (attribute groups 1..MAX_Q_ATTR,
    geometry 1..`partition.MAX_Q`); `alpha_*` in (0, 1] is the kept
    fraction of graph spectrum per group; `max_leaf` (1..512) bounds
    KD-tree leaf size.
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
        if not isinstance(self.q_geo, int) or not 1 <= self.q_geo <= partition.MAX_Q:
            raise ValueError(f"q_geo must be an int in [1, {partition.MAX_Q}]")
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
    """Parsed bitstream: parameters, fitted grids and raw payloads.

    On the wire it is the `HEADER_BYTES` header, the geometry section,
    then the attribute payloads in `GROUP_NAMES` order.
    """

    params: CodecParams
    gs_count: int
    geom_backend: int
    geom_grid: QuantGrid
    attr_grids: dict[str, QuantGrid]
    geometry_payload: bytes
    attribute_payloads: dict[str, bytes]

    def to_bytes(self) -> bytes:
        """The header (`HEADER_BYTES`), then the geometry section and the
        attribute payloads.  An attribute grid value that float32 cannot
        hold raises `ValueError` instead of being rounded;
        `fit_grid(..., np.float32)` fits grids that it holds."""
        p = self.params
        grids = [self.geom_grid, *(self.attr_grids[name] for name in GROUP_NAMES)]
        fields = np.concatenate([np.append(grid.mins, grid.scale) for grid in grids])
        single = fields[_GRID_FIELDS[0]:]
        with np.errstate(over="ignore"):
            if not np.array_equal(single.astype(np.float32), single):
                raise ValueError("attribute grid holds a value float32 cannot represent")
        payloads = [self.geometry_payload,
                    *(self.attribute_payloads[name] for name in GROUP_NAMES)]
        head = _HEADER.pack(MAGIC, VERSION, self.geom_backend, self.gs_count, p.max_leaf,
                            p.q_geo, *(p.q_for(name) for name in GROUP_NAMES),
                            *(p.alpha_for(name) for name in GROUP_NAMES),
                            *fields, *map(len, payloads))
        return head + b"".join(payloads)

    @classmethod
    def from_bytes(cls, data: bytes) -> "CodedStream":
        """Parse a stream; anything malformed raises `CodecError`."""
        if data[:4] != MAGIC:
            raise CodecError("not a coded stream (bad magic)")
        version = int.from_bytes(data[4:6], "little")
        if len(data) >= 6 and version != VERSION:
            raise CodecError(f"unsupported stream version {version}")
        if len(data) < HEADER_BYTES:
            raise CodecError("stream truncated")
        _, _, backend, gs_count, max_leaf, q_geo, *fields = _HEADER.unpack_from(data)
        if backend not in (GEOM_INTERNAL, GEOM_EXTERNAL):
            raise CodecError(f"unknown geometry backend {backend}")
        n = len(GROUP_NAMES)
        qs, alphas, grid_fields, lens = _cut(fields, (n, n, sum(_GRID_FIELDS), 1 + n))
        try:
            params = CodecParams(q_geo, *qs, *alphas, max_leaf)
            params.validate()
            grids = [QuantGrid(mins=np.array(grid[:-1]), scale=grid[-1], q=q)
                     for grid, q in zip(_cut(grid_fields, _GRID_FIELDS), (q_geo, *qs))]
        except ValueError as exc:
            raise CodecError(f"invalid header field: {exc}") from exc
        if gs_count < 1:
            raise CodecError("stream declares zero primitives")
        if gs_count > MAX_PRIMS_PER_BYTE * len(data):
            raise CodecError(f"{gs_count} primitives in {len(data)} bytes: "
                             f"more than {MAX_PRIMS_PER_BYTE} per byte")

        extra = len(data) - HEADER_BYTES - sum(lens)
        if extra < 0:
            raise CodecError("stream truncated")
        if extra > 0:
            raise CodecError(f"{extra} trailing bytes after payloads")
        _, geometry_payload, *payloads = _cut(data, (HEADER_BYTES, *lens))
        return cls(
            params=params,
            gs_count=gs_count,
            geom_backend=backend,
            geom_grid=grids[0],
            attr_grids=dict(zip(GROUP_NAMES, grids[1:])),
            geometry_payload=geometry_payload,
            attribute_payloads=dict(zip(GROUP_NAMES, payloads)),
        )


def _cut(seq, sizes) -> list:
    """`seq` cut into consecutive pieces of `sizes`, at their running sums."""
    ends = list(accumulate(sizes))
    return [seq[end - size:end] for size, end in zip(sizes, ends)]


@dataclass
class Internals:
    """The codec's intermediate state, for mirror checks and analysis.

    `encode(..., collect_debug=True)` and `decode(..., collect_debug=True)`
    each return one; the decoder's equals the encoder's field by field.
    It holds no leaf spectrum: each is working state, which
    `spectral.graph_spectrum(recon_centers[leaf],
    spectral.kernel_sigma(recon_centers))` solves again, bit for bit.
    """

    part: partition.Partition
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
    header = HEADER_BYTES
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


def _dispatch(calls: list[tuple], shares: list[list[int]]) -> list:
    """Results of `calls` (function, args), in call order: one share runs
    here, and more are shared with the pool (`pool.share`)."""
    if len(shares) == 1:
        return [fn(*args) for fn, args in calls]
    from . import pool  # compiled only once a call needs it

    return pool.share(calls, shares)


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
    degree = SH_DEGREES if comps == len(SH_DEGREES) else np.zeros(comps, dtype=np.int64)
    index = np.concatenate([np.tile(np.arange(spectral.clip_count(alpha, m)), n)
                            for m, n in sizes.items()])
    # frexp's exponent is the bit length of a nonnegative integer
    band = np.minimum(np.frexp(index)[1], BANDS - 1)[:, None]
    zero = quantize(np.zeros(comps), grid)
    return (band * DEGREES + degree).ravel(), np.tile(zero, len(index))


def _code_group(kept: np.ndarray, q: int, alpha: float,
                sizes: dict[int, int]) -> tuple[QuantGrid, bytes]:
    """A group's grid, fitted over all its (K, C) kept coefficients in
    payload order, and its payload."""
    grid = fit_grid(kept, q, np.float32)
    return grid, encode_levels(quantize(kept, grid).ravel(), grid, alpha, sizes)


def encode_levels(levels: np.ndarray, grid: QuantGrid, alpha: float,
                  sizes: dict[int, int]) -> bytes:
    """One attribute payload from its levels in payload order: leaf by
    leaf, each leaf's (k, C) kept levels flat, as `gft` orders them.

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
    return entropy.classed_payload(coded, u[:, None], classes)


def decode_levels(payload: bytes, grid: QuantGrid, alpha: float,
                  sizes: dict[int, int]) -> np.ndarray:
    """Invert `encode_levels`: the levels, flat in payload order, each
    leaf's (k, C) as `igft` takes them.  Any inconsistency raises
    `CorruptPayloadError`.

    The count the header claims must be the one `sizes` implies, and is
    checked before anything is decoded.
    """
    count = _level_count(grid.components, alpha, sizes)
    coded, raw = entropy.classed_sections(payload)
    contexts, zeros = _level_layout(grid, alpha, sizes)
    classes = entropy.aac_decode(coded, grid.q + 2, count, contexts).symbols
    u = entropy.classed_values(raw, classes, 1, "raw section")[:, 0]
    levels = zeros + np.where(u & 1, -(u + 1) // 2, u // 2)
    if count and (levels.min() < 0 or levels.max() > grid.levels):
        raise CorruptPayloadError(f"raw bits decode to a level outside [0, {grid.levels}]")
    return levels


def _spectra_work(sizes: dict[int, int]) -> int:
    return sum(n * SPECTRUM_WEIGHT * m * m for m, n in sizes.items())


def _runs(leaves, count: int) -> list[tuple[np.ndarray, dict[int, int]]]:
    """The leaves in payload order cut into at most `count` contiguous
    runs by spectrum work: run r ends after the last leaf whose work,
    counted through that leaf, is at most (r + 1) / count of the total, a
    leaf of m weighing SPECTRUM_WEIGHT * m^2.  Empty runs are dropped.
    Each run comes as its rows (its leaves concatenated) and its sizes
    (leaf size -> leaf count, in payload order)."""
    by_size: dict[int, list[np.ndarray]] = {}
    for leaf in leaves:
        by_size.setdefault(len(leaf), []).append(leaf)
    order = [leaf for group in by_size.values() for leaf in group]
    # each leaf's work so far, times `count`, so that the cut is exact
    done = [count * w for w in accumulate(SPECTRUM_WEIGHT * len(leaf) ** 2 for leaf in order)]
    runs, lo = [], 0
    for r in range(count):
        hi = bisect_right(done, (r + 1) * done[-1] // count)
        if hi > lo:
            run = order[lo:hi]
            runs.append((np.concatenate(run), Counter(map(len, run))))
        lo = hi
    return runs


def _morton_sort(centers: np.ndarray, q_geo: int):
    """The lattice grid of `centers`, their lattice points and Morton
    codes sorted along the curve, and the sorting permutation."""
    grid = fit_grid(centers, q_geo)
    lattice = quantize(centers, grid)
    codes = partition.morton_limbs(lattice, q_geo)
    perm = partition.morton_order(codes)
    return grid, lattice[perm], codes[perm], perm


def attribute_signals(cloud: GaussianCloud) -> dict[str, np.ndarray]:
    """Each attribute group's (N, C) signal, by name in `GROUP_NAMES`: the
    SH colour as its Y, U and V channels (16 coefficients each), opacity
    as one column, scale and rotation as they are.  The encoder transforms
    these; `eval.attribute_psnr` compares them."""
    yuv = colorspace.sh_rgb_to_yuv(colorspace.sh_from_flat(cloud.sh))
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
    That call takes the processes and runs of one without it, and its
    local decode is `decode`'s own inverse over the same runs.

    `geometry_command` hands the geometry section to an external lossless
    point-cloud coder: a command template with `{in}` and `{out}`
    placeholders, e.g. "tmc3 --mode=0 ... {in} {out}".  The stream records
    that backend; decoding it needs the matching decode command.  Only
    None codes the geometry here: a blank command raises `ValueError`.

    `threads` (>= 1) has no effect.  When the encode weighs enough to be
    shared with the worker pool (see `_process_count`), each process
    solves one run of the leaves (`_runs`), then codes its share of the
    payloads (`_dispatch`).  A stream denser than MAX_PRIMS_PER_BYTE
    raises `CodecError`.
    """
    params.validate()
    if threads < 1:
        raise ValueError("threads must be >= 1")

    geom_grid, lattice, codes, perm = _morton_sort(cloud.centers, params.q_geo)
    ordered = cloud.take(perm)

    recon_centers = dequantize(lattice, geom_grid)
    part = partition.kdtree_split(recon_centers, params.max_leaf)
    sizes = Counter(len(leaf) for leaf in part.leaves)
    sigma = spectral.kernel_sigma(recon_centers)
    signals = attribute_signals(ordered)
    alphas = {name: params.alpha_for(name) for name in GROUP_NAMES}
    counts = [_level_count(comps, alphas[name], sizes) for name, comps in ATTRIBUTE_GROUPS]
    if geometry_command is None:
        counts.append(len(codes))
    procs = _process_count(sum(counts) + _spectra_work(sizes))

    runs = _runs(part.leaves, procs)
    parts = _dispatch(
        [(spectral.forward, (recon_centers[rows], run, sigma,
                             {name: s[rows] for name, s in signals.items()}, alphas))
         for rows, run in runs],
        [[r] for r in range(len(runs))])
    kept = {name: np.concatenate([p[name] for p in parts]) for name in GROUP_NAMES}
    calls = [(_code_group, (kept[name], params.q_for(name), alphas[name], sizes))
             for name in GROUP_NAMES]
    if geometry_command is None:
        calls.append((geom_codec.encode_centers, (codes,)))
    coded = _dispatch(calls, _shares(counts, procs))
    attr_grids = {name: grid for name, (grid, _) in zip(GROUP_NAMES, coded)}
    payloads = {name: payload for name, (_, payload) in zip(GROUP_NAMES, coded)}
    if geometry_command is None:
        geometry_payload = coded[-1]
        backend = GEOM_INTERNAL
    else:
        geometry_payload = geom_codec.encode_centers_external(lattice, geometry_command)
        backend = GEOM_EXTERNAL

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

    dequantized = {name: dequantize(quantize(kept[name], grid), grid)
                   for name, grid in attr_grids.items()}
    local = _decode_runs(runs, recon_centers, sigma, dequantized, alphas)
    return stream, Internals(part, recon_centers, local)


def _decode_run(centers: np.ndarray, sizes: dict[int, int], sigma: float,
                dequantized: dict[str, np.ndarray], alphas: dict[str, float]):
    """`spectral.inverse` of each group's dequantized levels over a run of
    leaves.  The encoder's local decode takes this path too, so both
    sides' signals are bit-identical."""
    # Overflow on a hostile grid is `decode`'s to report (`_check_finite`).
    with np.errstate(over="ignore", invalid="ignore"):
        return spectral.inverse(centers, sizes, sigma, dequantized, alphas)


def _decode_runs(runs, centers: np.ndarray, sigma: float, dequantized: dict[str, np.ndarray],
                 alphas: dict[str, float]) -> dict[str, np.ndarray]:
    """Each group's (N, C) decoded signals in canonical order from its
    (K, C) dequantized levels, each of `runs` one `_decode_run` on a
    process of its own."""
    split = {name: np.split(dequantized[name], np.cumsum(
                 [_level_count(1, alphas[name], run) for _, run in runs])[:-1])
             for name in GROUP_NAMES}
    parts = _dispatch(
        [(_decode_run, (centers[rows], run, sigma,
                        {name: split[name][r] for name in GROUP_NAMES}, alphas))
         for r, (rows, run) in enumerate(runs)],
        [[r] for r in range(len(runs))])
    signals = {name: np.empty((len(centers), comps)) for name, comps in ATTRIBUTE_GROUPS}
    for (rows, _), run_signals in zip(runs, parts):
        for name in GROUP_NAMES:
            signals[name][rows] = run_signals[name]
    return signals


def _decode_payload(name: str, payload: bytes, grid: QuantGrid, alpha: float,
                    sizes: dict[int, int]) -> np.ndarray:
    try:
        return decode_levels(payload, grid, alpha, sizes).reshape(-1, grid.components)
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
    are the decoded attribute signals before the colour conversion; that
    call takes the processes and runs of one without it.

    `geometry_command` is the external decoder's command template, needed
    only for a stream whose geometry an external coder wrote (see
    `encode`).  Truncated or tampered payloads raise `CorruptPayloadError`;
    container problems raise `CodecError`.  `threads` (>= 1) has no
    effect.  A decode shared with the worker pool decodes and
    dequantizes the payloads first, then each process solves one run of
    the leaves, cut as `encode` cuts it, and inverse transforms the run's
    slice.
    """
    params = stream.params
    params.validate()
    if threads < 1:
        raise ValueError("threads must be >= 1")

    if stream.geom_backend == GEOM_EXTERNAL:
        if not geometry_command:
            raise CodecError(
                "stream was coded with an external geometry backend; "
                "pass geometry_command (ggsc decode|psnr --geometry-command) to decode it"
            )
        lattice = geom_codec.decode_centers_external(
            stream.geometry_payload, params.q_geo, geometry_command, stream.gs_count
        )
    else:
        lattice = geom_codec.decode_centers(
            stream.geometry_payload, params.q_geo, stream.gs_count
        )

    # A hostile grid can scale finite levels past float64.  `_check_finite`
    # turns that into a CodecError, so numpy's warnings on the way would
    # only be noise ahead of it.
    with np.errstate(over="ignore", invalid="ignore"):
        recon_centers = dequantize(lattice, stream.geom_grid)
        _check_finite("centers", recon_centers)
        part = partition.kdtree_split(recon_centers, params.max_leaf)
        sizes = Counter(len(leaf) for leaf in part.leaves)
        sigma = spectral.kernel_sigma(recon_centers)
        alphas = {name: params.alpha_for(name) for name in GROUP_NAMES}
        weights = [DECODE_WEIGHT * _level_count(comps, alphas[name], sizes)
                   for name, comps in ATTRIBUTE_GROUPS]
        procs = _process_count(sum(weights) + _spectra_work(sizes))
        calls = [(_decode_payload, (name, stream.attribute_payloads[name],
                                    stream.attr_grids[name], alphas[name], sizes))
                 for name in GROUP_NAMES]
        dequantized = {name: dequantize(levels, stream.attr_grids[name]) for name, levels
                       in zip(GROUP_NAMES, _dispatch(calls, _shares(weights, procs)))}
        signals = _decode_runs(_runs(part.leaves, procs), recon_centers, sigma,
                               dequantized, alphas)

        sh = colorspace.sh_to_flat(colorspace.sh_yuv_to_rgb(
            np.stack([signals["sh_y"], signals["sh_u"], signals["sh_v"]], axis=2)))
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
    return cloud, Internals(part, recon_centers, signals)


def canonical_order(cloud: GaussianCloud, params: CodecParams) -> GaussianCloud:
    """The Morton ordering `encode` applies, for aligning fidelity metrics.

    `decode(encode(cloud, params))` returns primitives in this order, so
    metrics compare the decoded cloud against `canonical_order(cloud,
    params)` row by row.  Both sort with `_morton_sort`.
    """
    *_, perm = _morton_sort(cloud.centers, params.q_geo)
    return cloud.take(perm)
