"""Seeded synthetic splat assets, serialized as binary PLY bytes.

The generator follows the realistic-cloud helper of the test suite but
is the benchmark's own, so that a change to the tests cannot silently
change what the benchmark measures.  It builds the PLY buffer itself:
the codec receives only these bytes.
"""

from __future__ import annotations

import numpy as np

PLY_FIELDS = (
    ["x", "y", "z"]
    + [f"f_dc_{i}" for i in range(3)]
    + [f"f_rest_{i}" for i in range(45)]
    + ["opacity"]
    + [f"scale_{i}" for i in range(3)]
    + [f"rot_{i}" for i in range(4)]
)

#: Seed of the scene, fixed so that `--seed` varies only the attributes.
SCENE_SEED = 0


def realistic_cloud_columns(n: int, seed: int) -> np.ndarray:
    """(n, 62) float32 table in `PLY_FIELDS` order.

    Clustered centers, DC-dominant SH with band-decaying rest
    coefficients, positive-skewed opacity logits, small log-scales and
    near-unit quaternions: the statistics of a trained splat export.

    The scene -- the centers, the colour basis and the SH smoothing
    field -- is the same for every seed; `seed` draws the attributes on
    it.  Everything the geometry decides (the partition, every leaf's
    graph and eigensolve, the geometry section) is thus the same work for
    every seed, while the coded attribute symbols differ.  With seeded
    centers the eigensolve cost of 512 primitives in leaves of 64 varies
    by about a third from seed to seed, which would hide any smaller
    change in the benchmark's spread.
    """
    scene = np.random.default_rng(SCENE_SEED)
    blobs = 40
    weights = scene.dirichlet(np.ones(blobs))
    counts = scene.multinomial(n - n // 10, weights)
    pieces = [
        scene.normal(loc=scene.uniform(-3, 3, 3), scale=scene.uniform(0.05, 0.5), size=(c, 3))
        for c in counts if c
    ]
    pieces.append(scene.uniform(-5, 5, size=(n - sum(counts), 3)))
    centers = np.concatenate(pieces, axis=0).astype(np.float32).astype(np.float64)
    scene.shuffle(centers)
    basis = scene.normal(size=(3, 3))
    field = scene.normal(size=(3, 15))

    rng = np.random.default_rng(seed)
    dc = np.tanh(centers @ basis) * 2.0 + 0.05 * rng.normal(size=(n, 3))
    rest = np.empty((n, 45))
    smoothed = np.sin(centers @ field)
    # Within a colour channel, magnitudes decay with harmonic band:
    # 3 coefficients of band 1, 5 of band 2, 7 of band 3.
    mags = np.repeat([0.25, 0.08, 0.03], [3, 5, 7])
    for c in range(3):
        rest[:, c * 15 : (c + 1) * 15] = smoothed * mags + 0.01 * rng.normal(size=(n, 15))

    opacity = rng.normal(loc=2.5, scale=2.0, size=n)
    scale = rng.normal(loc=-4.5, scale=0.8, size=(n, 3))
    quat = rng.normal(size=(n, 4))
    quat /= np.linalg.norm(quat, axis=1, keepdims=True)
    rotation = quat + 0.01 * rng.normal(size=(n, 4))

    table = np.concatenate(
        [centers, dc, rest, opacity[:, None], scale, rotation], axis=1
    )
    return table.astype(np.float32)


def ply_bytes(table: np.ndarray) -> bytes:
    """Binary little-endian PLY of a float32 table in `PLY_FIELDS` order."""
    if table.ndim != 2 or table.shape[1] != len(PLY_FIELDS):
        raise ValueError(f"table must be (N, {len(PLY_FIELDS)}), got {table.shape}")
    lines = ["ply", "format binary_little_endian 1.0", f"element vertex {table.shape[0]}"]
    lines += [f"property float {name}" for name in PLY_FIELDS]
    lines.append("end_header")
    header = ("\n".join(lines) + "\n").encode("ascii")
    return header + np.ascontiguousarray(table, dtype="<f4").tobytes()


def realistic_ply(n: int, seed: int) -> bytes:
    return ply_bytes(realistic_cloud_columns(n, seed))
