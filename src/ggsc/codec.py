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
   steps together, as one stack,
6. quantize kept coefficients on one global grid per group and entropy
   code them; geometry travels separately as Morton deltas.  The seven
   payloads are independent, so above `FORK_MIN_SYMBOLS` coded symbols
   they are coded on forked processes, one per further usable CPU
   (`_fork_join`); every byte is the same whatever the worker count.

An attribute payload lists the leaf sizes in order of first appearance
in the partition, each size's leaves in partition order, and each
leaf's kept levels component-major.

The decoder replays steps 3-5 from the decoded lattice alone, which
reproduces partitions, graphs and bases bit-for-bit -- no basis data is
transmitted.  The partition alone fixes each payload's symbol count, so
the six attribute payloads are decoded, forked the same way, before the
graph spectra are built.  Bitstream sections: header (parameters +
grids + section table), geometry payload (size B1), six attribute
payloads (sum B2).
"""

from __future__ import annotations

import os
import pickle
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
#: Stream format version.  4: one flag byte, one scale per grid, colour
#: conversions sum in index order (3: payloads group leaves by size,
#: transforms sum in index order without BLAS; 2: per-leaf order and BLAS
#: products; 1: cyclic Jacobi bases).
VERSION = 4

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
#: Largest KD-tree leaf.  A leaf's eigensolve is O(m^3) in time and its
#: affinity O(m^2) in memory; at m = 512 one solve took 2.7 s and 74 MiB
#: peak RSS on one core of an Intel Xeon.  The bound keeps a hostile
#: header from asking for one leaf over every point.
MAX_LEAF = 512
#: Coded symbols below which `_fork_join` codes every payload in this
#: process.  On a 2-core x86-64 VM a fork plus join costs about 5 ms and
#: a coded symbol about 2 us, but two busy processes there each run about
#: 1.6x slower than one alone.  Forking the encodes of 7,296 and 10,752
#: symbols (the `spectral-m64` and `lossy-rd` benchmark workloads) gained
#: nothing measurable; one of 58,368 (`entropy-q16`) gained 40%.
FORK_MIN_SYMBOLS = 1 << 15


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
        """Bytes of header plus section table (everything but payloads)."""
        return len(self._pack_header()) + 4 * (1 + len(GROUP_NAMES))

    def _pack_header(self) -> bytes:
        p = self.params
        out = bytearray()
        out += MAGIC
        out += struct.pack("<H", VERSION)
        out += struct.pack("<B", self.geom_backend)
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
            geom_grid = _unpack_grid(cur, 3, q_geo)
            attr_grids = {
                name: _unpack_grid(cur, comps, qs[name])
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
    return struct.pack(f"<{grid.components + 1}d", *grid.mins, grid.scale)


def _unpack_grid(cur: _Cursor, comps: int, q: int) -> QuantGrid:
    *mins, scale = cur.unpack(f"<{comps + 1}d")
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


def _run_share(jobs, share: list[int]) -> dict[int, tuple[bool, object]]:
    """Run the share's jobs in order up to the first that raises: a later
    job of the share cannot hold the first error."""
    out = {}
    for i in share:
        _, fn, args = jobs[i]
        try:
            out[i] = (True, fn(*args))
        except Exception as exc:  # noqa: BLE001 - returned to `_fork_join`
            out[i] = (False, exc)
            break
    return out


def _serve(jobs, share: list[int], r: int, w: int) -> None:
    """A forked worker: run its share, pickle the outcomes to `w`, exit."""
    code = 1
    try:
        os.close(r)
        data = pickle.dumps(_run_share(jobs, share), pickle.HIGHEST_PROTOCOL)
        with open(w, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


def _fork_join(jobs: list[tuple[int, object, tuple]]) -> list:
    """Results of independent jobs `(symbols, fn, args)`, in job order.

    The jobs are shared out by symbol count between this process and one
    forked child per further usable CPU; each child sends its outcomes
    back over a pipe.  The jobs run here, one after another, when they
    hold fewer than `FORK_MIN_SYMBOLS` symbols in all, when only one CPU
    is usable, without `os.fork`, or when this process has other threads
    (a fork copies only the calling one).  Either way the exception
    raised is that of the first job in list order that raised.  Every
    child is reaped before this returns or raises.
    """
    workers = min(_usable_cpus(), len(jobs))
    if (workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1
            or sum(n for n, _, _ in jobs) < FORK_MIN_SYMBOLS):
        return [fn(*args) for _, fn, args in jobs]

    shares = _shares([n for n, _, _ in jobs], workers)
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _serve(jobs, share, r, w)
            os.close(w)
            children.append((pid, r))
        outcomes = _run_share(jobs, shares[0])
        while children:
            pid, r = children[0]
            with open(r, "rb", closefd=False) as fh:
                data = fh.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            os.close(r)
            if status != 0:
                raise RuntimeError(f"payload worker {pid} exited with status {status}")
            outcomes.update(pickle.loads(data))
    finally:
        if children:
            import signal

            for pid, r in children:
                os.close(r)
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):  # already reaped
                    pass

    results = []
    for i in range(len(jobs)):
        ok, value = outcomes[i]
        if not ok:
            raise value
        results.append(value)
    return results


def _box_of(points: np.ndarray) -> Box3:
    return Box3(min=points.min(axis=0), max=points.max(axis=0))


def _leaf_spectra(centers: np.ndarray, part: partition.Partition
                  ) -> list[tuple[np.ndarray, spectral.GraphSpectrum]]:
    sigma = spectral.sigma_from_box(_box_of(centers))
    return spectral.graph_spectra(centers, part.leaves, sigma)


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

    `threads` (>= 1) has no effect: payloads are coded on forked processes
    when that pays (see `_fork_join`), and the spectra in this one.
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
    chunks = _leaf_spectra(recon_centers, part)
    signals = _attribute_signals(ordered)

    attr_grids: dict[str, QuantGrid] = {}
    symbols_by_group: dict[str, np.ndarray] = {}
    jobs = []
    for name, comps in ATTRIBUTE_GROUPS:
        alpha = params.alpha_for(name)
        kept = [spectral.gft(spec, signals[name][rows],
                             spectral.clip_count(alpha, rows.shape[1]))
                for rows, spec in chunks]
        samples = np.concatenate([k.reshape(-1, comps) for k in kept])
        grid = attr_grids[name] = fit_grid(samples, params.q_for(name))
        symbols = symbols_by_group[name] = np.concatenate(
            [quantize(k, grid).transpose(0, 2, 1).ravel() for k in kept])
        jobs.append((symbols.size, entropy.aac_encode,
                     (entropy.SymbolStream(1 << params.q_for(name), symbols),)))

    geometry = geom_codec.QuantizedGeometry(q=params.q_geo, points=lattice)
    if not geometry_command:
        jobs.append((len(geometry), geom_codec.encode_centers, (geometry,)))
    coded = _fork_join(jobs)
    payloads = dict(zip(GROUP_NAMES, coded))
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
    if not collect_debug:
        return stream

    local = _reconstruct_signals(stream, chunks, symbols_by_group)
    return stream, Internals(part, chunks, recon_centers, local)


def _reconstruct_signals(
    stream: CodedStream,
    chunks: list[tuple[np.ndarray, spectral.GraphSpectrum]],
    symbols_by_group: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """Shared inverse path from each group's payload symbols: dequantize,
    zero-pad, inverse transform, one chunk at a time.  Used verbatim by the
    decoder and by the encoder's local decode, so both sides produce
    bit-identical attribute signals by construction.
    """
    out: dict[str, np.ndarray] = {}
    for name, comps in ATTRIBUTE_GROUPS:
        symbols = symbols_by_group[name]
        sig = np.empty((stream.gs_count, comps))
        pos = 0
        for rows, spec in chunks:
            nb, m = rows.shape
            k = spectral.clip_count(stream.params.alpha_for(name), m)
            levels = symbols[pos : pos + nb * comps * k].reshape(nb, comps, k)
            pos += levels.size
            padded = np.zeros((nb, m, comps))
            padded[:, :k] = dequantize(levels.transpose(0, 2, 1), stream.attr_grids[name])
            sig[rows] = spectral.igft(spec, padded)
        out[name] = sig
    return out


def _decode_payload(name: str, payload: bytes, alphabet: int, count: int) -> np.ndarray:
    try:
        return entropy.aac_decode(payload, alphabet, count).symbols
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
    effect, as in `encode`.
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
        jobs = []
        for name, comps in ATTRIBUTE_GROUPS:
            alpha = params.alpha_for(name)
            count = comps * sum(n * spectral.clip_count(alpha, m) for m, n in sizes.items())
            jobs.append((count, _decode_payload, (
                name, stream.attribute_payloads[name], 1 << params.q_for(name), count)))
        symbols_by_group = dict(zip(GROUP_NAMES, _fork_join(jobs)))
        chunks = _leaf_spectra(recon_centers, part)

        signals = _reconstruct_signals(stream, chunks, symbols_by_group)

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
