#!/usr/bin/env python3
"""Codec benchmark: one workload, measured in one fresh process.

    python3 codecbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the codec is imported from its
``src/`` and nowhere else.  The process generates the workload's seeded
asset as PLY bytes and repeats two ops until ``--seconds`` is used up:

* encode: ``gs_core.load_ply`` -> ``codec.encode`` -> ``CodedStream.to_bytes``
* decode: ``CodedStream.from_bytes`` -> ``codec.decode`` -> ``gs_core.save_ply``

Every op is checked.  An op that raises or fails a check counts as
failed; ``correct`` is false when any check failed, so an op that raises
makes the run incomplete but not incorrect.

With ``--trace 0`` the ops run untraced and the printed metrics are the
end-to-end ones.  Each untraced op runs between two runs of a fixed
reference loop (`reference_loop`).  Throughput is reported per second
and per reference-loop time (``encode_prims_per_ref``: primitives
encoded in the time one reference loop takes).  A shared host changes
speed by tens of percent within minutes; the ratio to the loop run
around each op cancels most of that drift, so the second form is the
one compared across commits.

With ``--trace 1`` each round runs an untraced encode, a traced encode
and decode, and an encode with ``threads=2``; the printed
metrics are the per-layer ones, taken from spans recorded around the
codec's public functions (see `tracer`).  The printed metrics are those
named in ``BENCHMARK.json``; every metric, the environment, the stream's
SHA-256 and the spans go to ``codecbench/results/``.  The last line of
standard output is the JSON summary.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

from tracer import Tracer, leftover_wrappers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: Untraced rounds per run, at least; more while `--seconds` allows.
MIN_ROUNDS = 2
#: Extra import-time samples, each in its own fresh interpreter.
SETUP_PROBES = 4
#: Iterations of the reference loop; about 0.2 s on a 2-core x86-64 VM.
REFERENCE_ITERATIONS = 80_000
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import ggsc, ggsc.eval; print(time.perf_counter() - t); print(ggsc.__file__)"
)

LAYERS = ("gs_core", "codec", "partition", "quantizer", "colorspace", "spectral",
          "entropy", "geom_codec")

#: Per-layer timings: metric -> (op kind, span name, "self" or "total").
SPAN_METRICS = {
    "gs_core.load_ply_s": ("encode", "gs_core.load_ply", "self"),
    "gs_core.save_ply_s": ("decode", "gs_core.save_ply", "self"),
    "codec.encode_self_s": ("encode", "codec.encode", "self"),
    "codec.decode_self_s": ("decode", "codec.decode", "self"),
    "codec.to_bytes_s": ("encode", "codec.to_bytes", "self"),
    "codec.from_bytes_s": ("decode", "codec.from_bytes", "self"),
    "partition.morton_order_s": ("encode", "partition.morton_order", "self"),
    "partition.kdtree_split_s": ("encode", "partition.kdtree_split", "self"),
    "quantizer.fit_grid_s": ("encode", "quantizer.fit_grid", "self"),
    "quantizer.quantize_s": ("encode", "quantizer.quantize", "self"),
    "quantizer.dequantize_s": ("decode", "quantizer.dequantize", "self"),
    "colorspace.to_yuv_s": ("encode", "colorspace.to_yuv", "self"),
    "colorspace.to_rgb_s": ("decode", "colorspace.to_rgb", "self"),
    "spectral.graph_spectrum_enc_s": ("encode", "spectral.graph_spectrum", "total"),
    "spectral.graph_spectrum_dec_s": ("decode", "spectral.graph_spectrum", "total"),
    "spectral.build_adjacency_s": ("encode", "spectral.build_adjacency", "self"),
    "spectral.laplacian_s": ("encode", "spectral.laplacian", "self"),
    "spectral.eig_sym_s": ("encode", "spectral.eig_sym", "self"),
    "spectral.gft_s": ("encode", "spectral.gft", "self"),
    "spectral.igft_s": ("decode", "spectral.igft", "self"),
    "entropy.aac_encode_s": ("encode", "entropy.aac_encode", "self"),
    "entropy.aac_decode_s": ("decode", "entropy.aac_decode", "self"),
    "entropy.aac_encode_geometry_s": ("encode", "entropy.aac_encode_geometry", "self"),
    "entropy.aac_decode_geometry_s": ("decode", "entropy.aac_decode_geometry", "self"),
    "geom_codec.encode_centers_s": ("encode", "geom_codec.encode_centers", "self"),
    "geom_codec.decode_centers_s": ("decode", "geom_codec.decode_centers", "self"),
}


def _median(values):
    return statistics.median(values) if values else None


def _per(num, den, scale: float = 1.0):
    """scale * num / den, or None when either side is missing or zero."""
    return None if num is None or not den else scale * num / den


# -- environment --------------------------------------------------------


def _cpu_info() -> dict:
    info = {"model": None, "flags": None}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and info["model"] is None:
                    info["model"] = value.strip()
                elif key == "flags" and info["flags"] is None:
                    info["flags"] = value.split()
    except OSError:
        pass
    return info


def environment(ggsc) -> dict:
    import numpy
    import scipy

    cpu = _cpu_info()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu["model"],
        "cpu_flags": cpu["flags"],
        "ggsc_path": str(Path(ggsc.__file__).resolve().parent),
    }


def _from_src(module_file: str) -> bool:
    return Path(module_file).resolve().is_relative_to(SRC.resolve())


def setup_probe() -> float:
    """Import time of ggsc and ggsc.eval in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    ).stdout.split("\n")
    if not _from_src(out[1]):
        raise RuntimeError(f"import probe loaded ggsc from {out[1]}, not {SRC}")
    return float(out[0])


def reference_loop() -> float:
    """Wall time of a fixed piece of interpreter work: the host's speed now.

    The codec's hot loops are interpreted loops over numpy array elements:
    Jacobi rotations in float64 and the arithmetic coder's int64 range
    updates.  This loop does a fixed amount of each kind of work on arrays
    of its own, so no change to the codec changes it, and its time follows
    the host's speed the way the codec's does.
    """
    import numpy as np

    t0 = time.perf_counter()
    a = np.eye(16) + 0.01
    s, tau = 0.3, 0.1
    for i in range(REFERENCE_ITERATIONS):
        p = i & 15
        q = (i >> 4) & 15
        arp = a[p, q]
        arq = a[q, p]
        a[p, q] = arp - s * (arq + tau * arp)
        a[q, p] = arq + s * (arp - tau * arq)
    counts = np.arange(1, 257, dtype=np.int64)
    low, high = 0, 0xFFFFFFFF
    for i in range(REFERENCE_ITERATIONS):
        sym = i & 255
        cum = counts[sym]
        span = high - low + 1
        high = low + (cum + 3) * span // 70_000 - 1
        low = (low + cum * span // 70_000) & 0x7FFFFFFF
        counts[sym] += 1
        if high <= low:
            low, high = 0, 0xFFFFFFFF
    return time.perf_counter() - t0


# -- ops and their checks -----------------------------------------------


class Ops:
    """The benchmark's two ops, their checks and their ledger."""

    def __init__(self, ggsc, n: int, ply: bytes, params):
        self.gs_core = ggsc.gs_core
        self.codec = ggsc.codec
        self.eval = ggsc.eval
        self.n = n
        self.ply = ply
        self.params = params
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.errors: Counter = Counter()
        self.first_error: dict[str, str] = {}
        self.check_failures: list[str] = []
        #: Successful op wall times by series ("encode", "encode_traced", ...).
        self.times: dict[str, list[float]] = {}
        #: (op kind, root span index, succeeded) for every traced op.
        self.traced: list[tuple[str, int, bool]] = []
        self.stream = None
        self.blob: bytes | None = None
        self.decoded_ply: bytes | None = None
        self.fidelity: dict | None = None

    def encode(self, *, threads: int = 1, tracer: Tracer | None = None,
               series: str = "encode") -> float | None:
        def body():
            cloud = self.gs_core.load_ply(self.ply)
            stream = self.codec.encode(cloud, self.params, threads=threads)
            return stream, stream.to_bytes()

        return self._run("encode", body, self._check_encode, tracer, series)

    def decode(self, *, tracer: Tracer | None = None,
               series: str = "decode") -> float | None:
        def body():
            stream = self.codec.CodedStream.from_bytes(self.blob)
            cloud = self.codec.decode(stream, threads=1)
            return cloud, self.gs_core.save_ply(cloud)

        return self._run("decode", body, self._check_decode, tracer, series)

    def _run(self, kind: str, body, check, tracer: Tracer | None,
             series: str) -> float | None:
        """Time one op, then check its output; returns its time, or None if it failed."""
        self.attempted[kind] += 1
        span = None
        t0 = time.perf_counter()
        try:
            with (tracer.op(kind) if tracer else nullcontext()) as span:
                out = body()
            elapsed = time.perf_counter() - t0
        except Exception as exc:  # a raising op is a failed op; the run goes on
            name = type(exc).__name__
            self.errors[f"errors.{name}"] += 1
            self.first_error.setdefault(name, traceback.format_exc(limit=-4))
            ok = False
        else:
            problems = check(*out)
            for problem in problems:
                self.errors[f"check.{kind}"] += 1
                self.check_failures.append(f"{kind}: {problem}")
            ok = not problems
            if ok:
                self.times.setdefault(series, []).append(elapsed)
        if not ok:
            self.failed[kind] += 1
        if span is not None:
            self.traced.append((kind, span, ok))
        return elapsed if ok else None

    def _check_encode(self, stream, blob: bytes) -> list[str]:
        problems = []
        if self.blob is None:
            self.stream, self.blob = stream, blob
        elif blob != self.blob:
            problems.append("stream bytes differ from the run's first encode")
        try:
            if self.codec.CodedStream.from_bytes(blob).to_bytes() != blob:
                problems.append("from_bytes(blob).to_bytes() != blob")
        except Exception as exc:  # a raising parser is a failed check, not a crash
            problems.append(f"from_bytes(blob) raised {type(exc).__name__}: {exc}")
        total = self.codec.bitrate_breakdown(stream).total_bytes
        if total != len(blob):
            problems.append(f"bitrate_breakdown total {total} != stream length {len(blob)}")
        return problems

    def _check_decode(self, cloud, ply: bytes) -> list[str]:
        import numpy as np

        problems = []
        if len(cloud) != self.n:
            problems.append(f"decoded {len(cloud)} primitives, expected {self.n}")
        for field in ("centers", "sh", "opacity", "scale", "rotation"):
            if not np.isfinite(getattr(cloud, field)).all():
                problems.append(f"decoded {field} has non-finite values")
        if self.decoded_ply is None:
            self.decoded_ply = ply
            if not problems:
                self.fidelity = self._fidelity(cloud)
        elif ply != self.decoded_ply:
            problems.append("decoded PLY bytes differ from the run's first decode")
        return problems

    def _fidelity(self, cloud) -> dict:
        ref = self.codec.canonical_order(self.gs_core.load_ply(self.ply), self.params)
        attr = self.eval.attribute_psnr(ref, cloud)
        out = {f"psnr_{axis}_db": attr[axis].psnr_db
               for axis in ("sh", "opacity", "scale", "rotation")}
        out["psnr_d1_db"] = self.eval.geometry_psnr_d1(ref, cloud).psnr_db
        # An exact match has infinite PSNR, which JSON cannot carry.
        return {k: (v if math.isfinite(v) else None) for k, v in out.items()}


# -- tracing ------------------------------------------------------------


def _note_stream(args, kwargs, result):
    stream = args[0]
    return {"symbols": stream.symbols, "alphabet": stream.alphabet_size,
            "bytes": len(result)}


def install_tracer(tracer: Tracer, ggsc) -> None:
    """Wrap every layer boundary the codec crosses through a module attribute.

    `codec` reaches most layers through their modules, but imports the
    quantizer functions by name, and `geom_codec` imports the coder by
    name, so those are wrapped where they are looked up.
    """
    m, wrap = ggsc, tracer.install
    wrap(m.gs_core, "load_ply", "gs_core.load_ply")
    wrap(m.gs_core, "save_ply", "gs_core.save_ply")
    wrap(m.codec, "encode", "codec.encode")
    wrap(m.codec, "decode", "codec.decode")
    wrap(m.codec.CodedStream, "to_bytes", "codec.to_bytes")
    wrap(m.codec.CodedStream, "from_bytes", "codec.from_bytes")
    wrap(m.partition, "morton_order", "partition.morton_order")
    wrap(m.partition, "kdtree_split", "partition.kdtree_split",
         lambda a, k, r: {"leaves": len(r.leaves)})
    wrap(m.codec, "fit_grid", "quantizer.fit_grid")
    wrap(m.codec, "quantize", "quantizer.quantize")
    wrap(m.codec, "dequantize", "quantizer.dequantize")
    for attr in ("sh_from_flat", "sh_rgb_to_yuv"):
        wrap(m.colorspace, attr, "colorspace.to_yuv")
    for attr in ("sh_yuv_to_rgb", "sh_to_flat"):
        wrap(m.colorspace, attr, "colorspace.to_rgb")
    wrap(m.spectral, "graph_spectrum", "spectral.graph_spectrum")
    wrap(m.spectral, "build_adjacency", "spectral.build_adjacency")
    wrap(m.spectral, "laplacian", "spectral.laplacian")
    wrap(m.spectral, "eig_sym", "spectral.eig_sym",
         lambda a, k, r: {"m": int(a[0].shape[0])})
    wrap(m.spectral, "gft", "spectral.gft")
    wrap(m.spectral, "igft", "spectral.igft")
    wrap(m.entropy, "aac_encode", "entropy.aac_encode", _note_stream)
    wrap(m.entropy, "aac_decode", "entropy.aac_decode")
    wrap(m.geom_codec, "encode_centers", "geom_codec.encode_centers")
    wrap(m.geom_codec, "decode_centers", "geom_codec.decode_centers")
    wrap(m.geom_codec, "aac_encode", "entropy.aac_encode_geometry")
    wrap(m.geom_codec, "aac_decode", "entropy.aac_decode_geometry")


def _ggsc_modules(ggsc) -> list:
    return [mod for name, mod in sys.modules.items()
            if name == "ggsc" or name.startswith("ggsc.")]


def layer_metrics(tracer: Tracer, ops: Ops, ggsc) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced ops, plus the trace's own check failures.

    Every timing is the median over successful traced ops of one kind of
    the per-op sum; a kind with no successful op gives None.
    """
    spans = tracer.spans
    self_ns = tracer.self_times_ns()
    per_op: dict[int, dict[str, list[int]]] = {}
    for i, (name, start, end, _, op, _) in enumerate(spans):
        acc = per_op.setdefault(op, {}).setdefault(name, [0, 0])
        acc[0] += self_ns[i]
        acc[1] += end - start
    ok = {kind: [idx for k, idx, good in ops.traced if k == kind and good]
          for kind in ("encode", "decode")}

    def median_over(kind, value_of):
        return _median([value_of(per_op[idx]) for idx in ok[kind]])

    out = {}
    for metric, (kind, span, which) in SPAN_METRICS.items():
        col = 0 if which == "self" else 1
        out[metric] = median_over(kind, lambda d: d.get(span, (0, 0))[col] / 1e9)
    for kind in ("encode", "decode"):
        for layer in LAYERS:
            out[f"{kind}_self_s.{layer}"] = median_over(kind, lambda d: sum(
                v[0] for name, v in d.items() if name.startswith(layer + ".")) / 1e9)

    # Counts recorded at layer boundaries, from the first successful encode.
    first = ok["encode"][0] if ok["encode"] else None
    notes = [(spans[i][0], note) for i, note in tracer.notes.items()
             if spans[i][4] == first]
    leaves = [nt["leaves"] for name, nt in notes if name == "partition.kdtree_split"]
    m3 = sum(nt["m"] ** 3 for name, nt in notes if name == "spectral.eig_sym")
    coded = [nt for name, nt in notes if name == "entropy.aac_encode"]
    symbols = sum(len(nt["symbols"]) for nt in coded)
    h0 = sum(ggsc.entropy.empirical_entropy_bits(nt["symbols"], nt["alphabet"])
             for nt in coded)
    out["partition.leaves"] = leaves[0] if leaves else None
    out["spectral.eig_ns_per_m3"] = _per(out["spectral.eig_sym_s"], m3, 1e9)
    out["entropy.symbols"] = symbols if coded else None
    out["entropy.enc_us_per_symbol"] = _per(out["entropy.aac_encode_s"], symbols, 1e6)
    out["entropy.dec_us_per_symbol"] = _per(out["entropy.aac_decode_s"], symbols, 1e6)
    out["entropy.bits_over_h0"] = _per(sum(8 * nt["bytes"] for nt in coded), h0)

    enc = _median(ops.times.get("encode", []))
    traced_enc = _median(ops.times.get("encode_traced", []))
    out["tracing.overhead_frac"] = (None if traced_enc is None or enc is None
                                    else traced_enc / enc - 1.0)
    out["codec.encode_threads2_speedup"] = _per(enc, _median(ops.times.get("encode_t2", [])))

    problems = []
    overhead = max(out["tracing.overhead_frac"] or 0.0, 0.0)
    unattributed = []
    for kind, idx, good in ops.traced:
        if not good:
            continue
        for i, (name, start, end, parent, op, _) in enumerate(spans):
            if op != idx or parent is None:
                continue
            if not spans[parent][1] <= start <= end <= spans[parent][2]:
                problems.append(f"span {name} lies outside its parent")
            if self_ns[i] < 0:
                problems.append(f"span {name} has negative self time")
        # The layers' self times sum to the op time minus the root's own
        # share, which is the benchmark's glue between calls.
        frac = self_ns[idx] / (spans[idx][2] - spans[idx][1])
        unattributed.append(frac)
        if frac > overhead + 0.01:
            problems.append(f"{kind} op: {frac:.1%} of the op is outside every layer")
    out["tracing.unattributed_frac"] = _median(unattributed)
    leftover = leftover_wrappers(_ggsc_modules(ggsc))
    if leftover:
        problems.append(f"wrappers left installed: {', '.join(leftover)}")
    return out, problems


# -- runs ---------------------------------------------------------------


def run_untraced(ops: Ops, seconds: float) -> None:
    """Rounds of encode then decode, each op between two reference loops.

    An op's time over the mean of the two loops around it goes to the
    series ``<kind>_per_ref``; a decode follows only a successful encode.
    """
    start = time.perf_counter()
    refs = ops.times.setdefault("reference_loop", [reference_loop()])
    rounds = 0
    while True:
        for kind in ("encode", "decode"):
            took = getattr(ops, kind)()
            refs.append(reference_loop())
            if took is None:
                break
            ops.times.setdefault(f"{kind}_per_ref", []).append(
                2 * took / (refs[-2] + refs[-1]))
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
            return


def run_traced(ops: Ops, tracer: Tracer, ggsc, seconds: float) -> None:
    start = time.perf_counter()
    rounds = 0
    while True:
        ops.encode()
        install_tracer(tracer, ggsc)
        try:
            if ops.encode(tracer=tracer, series="encode_traced"):
                ops.decode(tracer=tracer, series="decode_traced")
        finally:
            tracer.remove()
        ops.encode(threads=2, series="encode_t2")
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return


def end_to_end_metrics(ops: Ops, n: int, setup: list[float]) -> dict:
    fidelity = ops.fidelity or {}
    return {
        "encode_prims_per_ref": _per(n, _median(ops.times.get("encode_per_ref", []))),
        "decode_prims_per_ref": _per(n, _median(ops.times.get("decode_per_ref", []))),
        "encode_prims_per_s": _per(n, _median(ops.times.get("encode", []))),
        "decode_prims_per_s": _per(n, _median(ops.times.get("decode", []))),
        "reference_loop_s": _median(ops.times.get("reference_loop", [])),
        "bytes_per_prim": None if ops.blob is None else len(ops.blob) / n,
        **{f"psnr_{a}_db": fidelity.get(f"psnr_{a}_db")
           for a in ("sh", "opacity", "scale", "rotation", "d1")},
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }


def byte_metrics(ops: Ops, n: int) -> dict:
    if ops.stream is None:
        return {}
    report = ops.codec.bitrate_breakdown(ops.stream)
    out = {"bytes.header": report.header_bytes, "bytes.geometry": report.geometry_bytes}
    out.update({f"bytes.{g}": b for g, b in report.attribute_bytes.items()})
    out["geom_codec.bytes_per_prim"] = report.geometry_bytes / n
    return out


def gated_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ggsc" / "__init__.py").is_file():
        print(f"codecbench: no codec sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # setup_s: the import as this fresh process pays it, plus fresh probes.
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import ggsc
    import ggsc.eval
    setup = [time.perf_counter() - t0]
    if not _from_src(ggsc.__file__):
        print(f"codecbench: ggsc imported from {ggsc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    setup += [setup_probe() for _ in range(SETUP_PROBES)]

    from assets import realistic_ply

    workload = WORKLOADS[args.workload]
    ply = realistic_ply(workload.n, args.seed)
    ops = Ops(ggsc, workload.n, ply, ggsc.CodecParams(**workload.params))
    tracer = Tracer()
    if args.trace:
        run_traced(ops, tracer, ggsc, args.seconds)
    else:
        run_untraced(ops, args.seconds)

    metrics = end_to_end_metrics(ops, workload.n, setup)
    metrics.update(byte_metrics(ops, workload.n))
    problems = list(ops.check_failures)
    if args.trace:
        layer, trace_problems = layer_metrics(tracer, ops, ggsc)
        metrics.update(layer)
        problems += trace_problems
    metrics.update(ops.errors)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "n": workload.n,
        "params": workload.params,
        "environment": environment(ggsc),
        "stream_sha256": None if ops.blob is None else hashlib.sha256(ops.blob).hexdigest(),
        "correct": not problems,
        "problems": problems,
        "attempted": dict(ops.attempted),
        "failed": dict(ops.failed),
        "first_error": ops.first_error,
        "setup_samples_s": setup,
        "op_times_s": ops.times,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps({
            "columns": ["name", "start_ns", "end_ns", "parent", "op", "error"],
            "spans": tracer.spans,
        }) + "\n")

    for key in ("attempted", "failed"):
        print(f"{key}: {record[key]}")
    for problem in problems:
        print(f"check failed: {problem}")
    for name, value in metrics.items():
        print(f"{name}: {value}")
    summary = {
        "correct": not problems,
        "attempted": sum(ops.attempted.values()),
        "failed": sum(ops.failed.values()),
        "metrics": {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]}
                    for m in gated_metrics(bool(args.trace))},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
