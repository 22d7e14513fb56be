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
   ceil(alpha * m) coefficients,
6. quantize kept coefficients on one global grid per group and entropy
   code them; geometry travels separately as Morton deltas.

The decoder replays steps 3-5 from the decoded lattice alone, which
reproduces partitions, graphs and bases bit-for-bit -- no basis data is
transmitted.  Bitstream sections: header (parameters + grids + section
table), geometry payload (size B1), six attribute payloads (sum B2).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import colorspace, entropy, geom_codec, partition, spectral
from .entropy import CorruptPayloadError
from .gs_core import Box3, GaussianCloud
from .quantizer import SCALE_MODES, QuantGrid, dequantize, fit_grid, quantize

MAGIC = b"GGSC"
#: Stream format version.  2: leaf bases from the Householder + QL
#: eigensolver (1: cyclic Jacobi, whose bases differ in the last bits).
VERSION = 2

SIGMA_SCOPES = ("global", "leaf")

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

GEOM_INTERNAL = 0
GEOM_EXTERNAL = 1

#: Attribute bit depths share the entropy coder's alphabet ceiling of
#: 2^16; geometry indices never meet the entropy alphabet, so the lattice
#: may go deeper.
MAX_Q_ATTR = 16
MAX_Q_GEO = 31


class CodecError(ValueError):
    """Container-level failure: bad magic, version or section framing."""


@dataclass(frozen=True)
class CodecParams:
    """Everything the encoder is allowed to vary.

    Bit depths `q_*` count quantizer bits (attribute groups 1..16,
    geometry 1..31); `alpha_*` in (0, 1] is the kept fraction of graph
    spectrum per group; `max_leaf` bounds KD-tree leaf size;
    `sigma_scope` picks the graph kernel bandwidth source (whole-cloud
    or per-leaf bounding box); `scale_mode` picks one shared or
    per-component quantizer scale within a group.
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
    sigma_scope: str = "global"
    scale_mode: str = "group"

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
        if not isinstance(self.max_leaf, int) or self.max_leaf < 1:
            raise ValueError("max_leaf must be a positive int")
        if self.sigma_scope not in SIGMA_SCOPES:
            raise ValueError(f"sigma_scope must be one of {SIGMA_SCOPES}")
        if self.scale_mode not in SCALE_MODES:
            raise ValueError(f"scale_mode must be one of {SCALE_MODES}")

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
        """Bytes of header plus section table (everything but payloads)."""
        return len(self._pack_header()) + 4 * (1 + len(GROUP_NAMES))

    def _pack_header(self) -> bytes:
        p = self.params
        out = bytearray()
        out += MAGIC
        out += struct.pack("<H", VERSION)
        out += struct.pack(
            "<BBB",
            SIGMA_SCOPES.index(p.sigma_scope),
            SCALE_MODES.index(p.scale_mode),
            self.geom_backend,
        )
        out += struct.pack("<IIB", self.gs_count, p.max_leaf, p.q_geo)
        for name in GROUP_NAMES:
            out += struct.pack("<B", p.q_for(name))
        for name in GROUP_NAMES:
            out += struct.pack("<d", p.alpha_for(name))
        out += _pack_grid(self.geom_grid)
        for name in GROUP_NAMES:
            out += _pack_grid(self.attr_grids[name])
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "CodedStream":
        cur = _Cursor(data)
        if cur.take(4) != MAGIC:
            raise CodecError("not a coded stream (bad magic)")
        (version,) = cur.unpack("<H")
        if version != VERSION:
            raise CodecError(f"unsupported stream version {version}")
        scope_i, mode_i, backend = cur.unpack("<BBB")
        if scope_i >= len(SIGMA_SCOPES) or mode_i >= len(SCALE_MODES):
            raise CodecError("unknown sigma scope or scale mode flag")
        if backend not in (GEOM_INTERNAL, GEOM_EXTERNAL):
            raise CodecError(f"unknown geometry backend {backend}")
        gs_count, max_leaf, q_geo = cur.unpack("<IIB")
        qs = {name: cur.unpack("<B")[0] for name in GROUP_NAMES}
        alphas = {name: cur.unpack("<d")[0] for name in GROUP_NAMES}
        try:
            params = CodecParams(
                q_geo=q_geo,
                max_leaf=max_leaf,
                sigma_scope=SIGMA_SCOPES[scope_i],
                scale_mode=SCALE_MODES[mode_i],
                **{f"q_{n}": qs[n] for n in GROUP_NAMES},
                **{f"alpha_{n}": alphas[n] for n in GROUP_NAMES},
            )
            params.validate()
            mode = params.scale_mode
            geom_grid = _unpack_grid(cur, 3, q_geo, mode)
            attr_grids = {
                name: _unpack_grid(cur, comps, qs[name], mode)
                for name, comps in ATTRIBUTE_GROUPS
            }
        except ValueError as exc:
            raise CodecError(f"invalid header field: {exc}") from exc
        if gs_count < 1:
            raise CodecError("stream declares zero primitives")

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


def _pack_grid(grid: QuantGrid) -> bytes:
    vals = list(grid.mins)
    if grid.mode == "group":
        vals.append(float(grid.scales[0]))
    else:
        vals.extend(grid.scales)
    return struct.pack(f"<{len(vals)}d", *vals)


def _unpack_grid(cur: _Cursor, comps: int, q: int, mode: str) -> QuantGrid:
    mins = np.array(cur.unpack(f"<{comps}d"))
    if mode == "group":
        scales = np.full(comps, cur.unpack("<d")[0])
    else:
        scales = np.array(cur.unpack(f"<{comps}d"))
    return QuantGrid(mins=mins, scales=scales, q=q, mode=mode)


@dataclass
class EncodeDebug:
    """Encoder internals for mirror-determinism checks and analysis."""

    permutation: np.ndarray
    part: partition.Partition
    spectra: list[spectral.GraphSpectrum]
    recon_centers: np.ndarray
    #: Group name -> (N, C) attribute signals after local decode
    #: (dequantize + zero-pad + inverse transform), i.e. exactly what a
    #: decoder must reproduce.
    local_signals: dict[str, np.ndarray]
    #: Group name -> per-leaf list of (m, C) transform coefficients
    #: before clipping.
    coefficients: dict[str, list[np.ndarray]]


@dataclass
class DecodeDebug:
    """Decoder internals, mirroring `EncodeDebug` fields."""

    part: partition.Partition
    spectra: list[spectral.GraphSpectrum]
    recon_centers: np.ndarray
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


def _box_of(points: np.ndarray) -> Box3:
    return Box3(min=points.min(axis=0), max=points.max(axis=0))


def _leaf_spectra(
    centers: np.ndarray,
    part: partition.Partition,
    params: CodecParams,
    threads: int,
) -> list[spectral.GraphSpectrum]:
    if params.sigma_scope == "global":
        sigmas = [spectral.sigma_from_box(_box_of(centers))] * len(part.leaves)
    else:
        sigmas = [
            spectral.sigma_from_box(_box_of(centers[leaf])) for leaf in part.leaves
        ]
    return spectral.graph_spectra(centers, part.leaves, sigmas, threads=threads)


def _kept_counts(params: CodecParams, part: partition.Partition) -> dict[str, list[int]]:
    """Group name -> coefficients kept per leaf, in leaf order."""
    return {
        name: [spectral.clip_count(params.alpha_for(name), len(leaf))
               for leaf in part.leaves]
        for name in GROUP_NAMES
    }


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
    """Compress a cloud; returns the stream (plus `EncodeDebug` if asked).

    `geometry_command` hands the geometry section to an external lossless
    point-cloud coder: a command template with `{in}` and `{out}`
    placeholders, e.g. "tmc3 --mode=0 ... {in} {out}".  The stream records
    that backend; decoding it needs the matching decode command.
    """
    params.validate()
    if threads < 1:
        raise ValueError("threads must be >= 1")

    geom_grid = fit_grid(cloud.centers, params.q_geo, params.scale_mode)
    lattice = quantize(cloud.centers, geom_grid)
    perm = partition.morton_order(lattice, params.q_geo)
    lattice = lattice[perm]
    ordered = cloud.take(perm)

    recon_centers = dequantize(lattice, geom_grid)
    part = partition.kdtree_split(recon_centers, params.max_leaf)
    spectra = _leaf_spectra(recon_centers, part, params, threads)
    signals = _attribute_signals(ordered)
    counts = _kept_counts(params, part)

    kept: dict[str, list[np.ndarray]] = {name: [] for name in GROUP_NAMES}
    coeffs_dbg: dict[str, list[np.ndarray]] = {name: [] for name in GROUP_NAMES}
    for j, (leaf, spec) in enumerate(zip(part.leaves, spectra)):
        for name in GROUP_NAMES:
            coeffs = spectral.gft(spec, signals[name][leaf])
            kept[name].append(coeffs[: counts[name][j]])
            if collect_debug:
                coeffs_dbg[name].append(coeffs)

    attr_grids: dict[str, QuantGrid] = {}
    payloads: dict[str, bytes] = {}
    levels_by_group: dict[str, np.ndarray] = {}
    for name, comps in ATTRIBUTE_GROUPS:
        blocks = np.concatenate(kept[name], axis=0)
        grid = fit_grid(blocks, params.q_for(name), params.scale_mode)
        attr_grids[name] = grid
        # quantize is elementwise: one call on all leaves, split per leaf.
        levels = quantize(blocks, grid)
        levels_by_group[name] = levels
        symbols = np.concatenate(
            [lv.T.ravel() for lv in np.split(levels, np.cumsum(counts[name])[:-1])]
        )
        payloads[name] = entropy.aac_encode(
            entropy.SymbolStream(1 << params.q_for(name), symbols)
        )

    geometry = geom_codec.QuantizedGeometry(q=params.q_geo, points=lattice)
    if geometry_command:
        geometry_payload = geom_codec.encode_centers_external(
            geometry, geometry_command
        )
        backend = GEOM_EXTERNAL
    else:
        geometry_payload = geom_codec.encode_centers(geometry)
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
    if not collect_debug:
        return stream

    local = _reconstruct_signals(stream, part, spectra, counts, levels_by_group)
    debug = EncodeDebug(
        permutation=perm,
        part=part,
        spectra=spectra,
        recon_centers=recon_centers,
        local_signals=local,
        coefficients=coeffs_dbg,
    )
    return stream, debug


def _reconstruct_signals(
    stream: CodedStream,
    part: partition.Partition,
    spectra: list[spectral.GraphSpectrum],
    counts: dict[str, list[int]],
    levels_by_group: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """Shared inverse path: dequantize, zero-pad, inverse transform.

    `levels_by_group` holds each group's kept levels of every leaf,
    stacked in leaf order, `counts` their rows per leaf.  Used verbatim
    by the decoder and by the encoder's local decode, so both sides
    produce bit-identical attribute signals by construction.
    """
    n = stream.gs_count
    out: dict[str, np.ndarray] = {}
    for name, comps in ATTRIBUTE_GROUPS:
        # dequantize is elementwise: one call on all leaves, split per leaf.
        values = dequantize(levels_by_group[name], stream.attr_grids[name])
        sig = np.empty((n, comps))
        for leaf, spec, kept in zip(
            part.leaves, spectra, np.split(values, np.cumsum(counts[name])[:-1])
        ):
            padded = np.zeros((len(leaf), comps))
            padded[: kept.shape[0]] = kept
            sig[leaf] = spectral.igft(spec, padded)
        out[name] = sig
    return out


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

    `geometry_command` is the external decoder's command template, needed
    only for a stream whose geometry an external coder wrote (see
    `encode`).  Truncated or tampered payloads raise `CorruptPayloadError`;
    container problems raise `CodecError`.
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
        spectra = _leaf_spectra(recon_centers, part, params, threads)
        counts = _kept_counts(params, part)

        levels_by_group: dict[str, np.ndarray] = {}
        for name, comps in ATTRIBUTE_GROUPS:
            ks = counts[name]
            try:
                decoded = entropy.aac_decode(
                    stream.attribute_payloads[name], 1 << params.q_for(name),
                    comps * sum(ks),
                )
            except CorruptPayloadError as exc:
                raise CorruptPayloadError(f"{name}: {exc}") from exc
            blocks = np.split(decoded.symbols, comps * np.cumsum(ks)[:-1])
            levels_by_group[name] = np.concatenate(
                [block.reshape(comps, k).T for block, k in zip(blocks, ks)]
            )

        signals = _reconstruct_signals(stream, part, spectra, counts, levels_by_group)

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
    debug = DecodeDebug(
        part=part,
        spectra=spectra,
        recon_centers=recon_centers,
        signals=signals,
    )
    return cloud, debug


def canonical_order(cloud: GaussianCloud, params: CodecParams) -> GaussianCloud:
    """The Morton ordering `encode` applies, for aligning fidelity metrics.

    `decode(encode(cloud, params))` returns primitives in this order, so
    metrics compare the decoded cloud against `canonical_order(cloud,
    params)` row by row.
    """
    grid = fit_grid(cloud.centers, params.q_geo, params.scale_mode)
    perm = partition.morton_order(quantize(cloud.centers, grid), params.q_geo)
    return cloud.take(perm)
