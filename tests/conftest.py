"""Shared test helpers: synthetic clouds and an independent PLY writer.

The PLY writer here is deliberately *not* built on ggsc.gs_core: it packs
vertices one struct at a time from an explicit field list, so the package
serializer is checked against a second, independent implementation.
"""

from __future__ import annotations

import contextlib
import os
import struct
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ggsc
from ggsc import codec, pool, spectral
from ggsc.entropy import CorruptPayloadError
from ggsc.gs_core import GaussianCloud

# Field order of the common splat exporter, spelled out independently of
# the package's own constant.
PLY_FIELDS = (
    ["x", "y", "z"]
    + [f"f_dc_{i}" for i in range(3)]
    + [f"f_rest_{i}" for i in range(45)]
    + ["opacity"]
    + [f"scale_{i}" for i in range(3)]
    + [f"rot_{i}" for i in range(4)]
)


@pytest.fixture(autouse=True)
def _close_codec_pool():
    """Stop the codec's worker pool after each test: a worker forked under
    one test's monkeypatches must not serve a later test."""
    yield
    pool.close_pool()


@contextlib.contextmanager
def bounded_failure(seconds, bytes_, error=CorruptPayloadError):
    """The block must raise `error` within `seconds`, having allocated at
    most `bytes_` at its peak (as traced by tracemalloc)."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(error):
            yield
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < seconds, elapsed
    assert peak < bytes_, peak


def solved_spectra(monkeypatch, op, *args, **kwargs):
    """`op(*args, **kwargs)` run in this process alone, and every spectrum
    it solved, in call order: one (centers, eigenvalues, basis) per
    `spectral.graph_spectrum` call, of one leaf or a stack of them."""
    calls = []
    solve = spectral.graph_spectrum

    def spy(centers, sigma):
        spec = solve(centers, sigma)
        calls.append((centers, spec.eigenvalues, spec.basis))
        return spec

    with monkeypatch.context() as patch:
        patch.setattr(codec, "_usable_cpus", lambda: 1)
        patch.setattr(spectral, "graph_spectrum", spy)
        return op(*args, **kwargs), calls


def assert_same_spectra(encoded, decoded) -> None:
    """Two `solved_spectra` records agree call by call, bit for bit."""
    assert encoded and len(encoded) == len(decoded)
    for enc, dec in zip(encoded, decoded):
        for a, b in zip(enc, dec):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def as_f32(values) -> np.ndarray:
    """Round-trip through float32 so clouds are exactly representable."""
    return np.asarray(values, dtype=np.float32).astype(np.float64)


def make_cloud(n: int, seed: int = 0, smooth: bool = False) -> GaussianCloud:
    """Random cloud; `smooth=True` ties attributes to position so the
    graph transform has meaningful low-frequency structure."""
    rng = np.random.default_rng(seed)
    centers = as_f32(rng.normal(size=(n, 3)))
    if smooth:
        sh = as_f32(
            np.sin(centers @ rng.normal(size=(3, 48)) * 0.8)
            + 0.1 * rng.normal(size=(n, 48))
        )
        opacity = as_f32(
            np.cos(centers @ rng.normal(size=3)) + 0.1 * rng.normal(size=n)
        )
        scale = as_f32(
            np.sin(centers @ rng.normal(size=(3, 3))) + 0.1 * rng.normal(size=(n, 3))
        )
        rotation = as_f32(
            np.cos(centers @ rng.normal(size=(3, 4))) + 0.1 * rng.normal(size=(n, 4))
        )
    else:
        sh = as_f32(rng.normal(size=(n, 48)))
        opacity = as_f32(rng.normal(size=n))
        scale = as_f32(rng.normal(size=(n, 3)))
        rotation = as_f32(rng.normal(size=(n, 4)))
    return GaussianCloud(centers, sh, opacity, scale, rotation)


def make_realistic_cloud(n: int, seed: int = 0) -> GaussianCloud:
    """Cloud with the statistics of a trained splat export: clustered
    centers, DC-dominant SH with band-decaying rest coefficients,
    positive-skewed opacity logits, small log-scales, near-unit
    quaternions."""
    rng = np.random.default_rng(seed)

    blobs = 40
    weights = rng.dirichlet(np.ones(blobs))
    counts = rng.multinomial(n - n // 10, weights)
    pieces = [
        rng.normal(loc=rng.uniform(-3, 3, 3), scale=rng.uniform(0.05, 0.5), size=(c, 3))
        for c in counts if c
    ]
    pieces.append(rng.uniform(-5, 5, size=(n - sum(counts), 3)))
    centers = as_f32(np.concatenate(pieces, axis=0))
    rng.shuffle(centers)

    basis = rng.normal(size=(3, 3))
    dc = np.tanh(centers @ basis) * 2.0 + 0.05 * rng.normal(size=(n, 3))
    rest = np.empty((n, 45))
    smoothed = np.sin(centers @ rng.normal(size=(3, 15)))
    for c in range(3):
        # coefficients within a channel decay with harmonic band:
        # 3 of band 1, 5 of band 2, 7 of band 3
        mags = np.repeat([0.25, 0.08, 0.03], [3, 5, 7])
        rest[:, c * 15 : (c + 1) * 15] = (
            smoothed * mags + 0.01 * rng.normal(size=(n, 15))
        )
    sh = as_f32(np.concatenate([dc, rest], axis=1))

    opacity = as_f32(rng.normal(loc=2.5, scale=2.0, size=n))
    scale = as_f32(rng.normal(loc=-4.5, scale=0.8, size=(n, 3)))
    quat = rng.normal(size=(n, 4))
    quat /= np.linalg.norm(quat, axis=1, keepdims=True)
    rotation = as_f32(quat + 0.01 * rng.normal(size=(n, 4)))
    return GaussianCloud(centers, sh, opacity, scale, rotation)


def write_ply(columns: dict[str, np.ndarray], *, count: int | None = None,
              field_order: list[str] | None = None,
              extra_header: list[str] | None = None) -> bytes:
    """Independent binary PLY writer (per-vertex struct packing)."""
    fields = field_order if field_order is not None else list(PLY_FIELDS)
    n = count if count is not None else len(next(iter(columns.values())))
    lines = ["ply", "format binary_little_endian 1.0", f"element vertex {n}"]
    lines += [f"property float {name}" for name in fields]
    if extra_header:
        lines += extra_header
    lines.append("end_header")
    header = ("\n".join(lines) + "\n").encode("ascii")

    body = bytearray()
    for i in range(n):
        row = [float(columns[name][i]) for name in fields]
        body += struct.pack(f"<{len(fields)}f", *row)
    return header + bytes(body)


def cloud_columns(cloud: GaussianCloud) -> dict[str, np.ndarray]:
    """Explode a cloud into named per-field columns for `write_ply`."""
    cols: dict[str, np.ndarray] = {
        "x": cloud.centers[:, 0],
        "y": cloud.centers[:, 1],
        "z": cloud.centers[:, 2],
        "opacity": cloud.opacity,
    }
    for i in range(3):
        cols[f"f_dc_{i}"] = cloud.sh[:, i]
        cols[f"scale_{i}"] = cloud.scale[:, i]
    for i in range(45):
        cols[f"f_rest_{i}"] = cloud.sh[:, 3 + i]
    for i in range(4):
        cols[f"rot_{i}"] = cloud.rotation[:, i]
    return cols


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that imports this same ggsc."""
    env = dict(os.environ)
    paths = [str(Path(ggsc.__file__).parent.parent), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env
