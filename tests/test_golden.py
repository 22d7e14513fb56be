"""Golden `.ggsc` streams: the encoder's bytes, the decoder's PLY and one
leaf's spectrum, pinned by SHA-256.

The streams under `tests/golden/` were written by the codec when these
pins were recorded.  Every test here reads or rebuilds them unchanged, so
a drift anywhere in the pipeline -- the eigensolve's last bits included,
which a float32 PLY can hide -- fails a test instead of passing silently.
A deliberate format change bumps `codec.VERSION` and records them again:

    PYTHONPATH=src:tests python tests/test_golden.py

rewrites the streams and prints the digests to paste into `CASES`.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from conftest import as_f32, make_cloud, make_realistic_cloud
from ggsc import codec, spectral
from ggsc.codec import CodecParams, CodedStream
from ggsc.gs_core import GaussianCloud, save_ply

GOLDEN = Path(__file__).with_name("golden")


def _isolated_cloud() -> GaussianCloud:
    """A 45-point cluster plus three points far out along x.

    The x extent is about 60 and the y/z extents about 5, so sigma^2 is
    about 1/4 and the far points' Gaussian weights underflow to exactly
    zero: each is an isolated vertex of its leaf's graph, and the
    Householder reduction meets columns that are already zero below the
    subdiagonal.
    """
    base = make_cloud(48, seed=33, smooth=True)
    centers = base.centers.copy()
    centers[45:] = as_f32([[30.0, 0.0, 0.0], [45.0, 0.5, 0.0], [60.0, 0.0, 0.5]])
    return GaussianCloud(centers, base.sh, base.opacity, base.scale, base.rotation)


@dataclass(frozen=True)
class Case:
    name: str
    cloud: Callable[[], GaussianCloud]
    params: CodecParams
    #: Leaf whose spectrum is pinned, by index in partition order.
    leaf: int
    stream_sha: str
    ply_sha: str
    eigenvalues_sha: str
    basis_sha: str

    @property
    def path(self) -> Path:
        return GOLDEN / f"{self.name}.ggsc"


_SMALL_Q = dict(q_sh_y=8, q_sh_u=6, q_sh_v=6, q_opacity=8, q_scale=8, q_rotation=8)

CASES = [
    # 100 primitives split into leaves of 12 and 13.
    Case("mixed", lambda: make_cloud(100, seed=31, smooth=True),
         CodecParams(max_leaf=16, **_SMALL_Q), leaf=0,
         stream_sha="c523bf41a47d311be5bf76d5633e2d5cf84f770a52c09170a4db51ea0b07681b",
         ply_sha="e9ed83fb1d8945dcf755f97fb3992291b88c0b3360bf93a16e5931f79dad020e",
         eigenvalues_sha="e67488e309293140dc75e2a7a2f8261030cd0615d88bf5cf811ccef5e22667e2",
         basis_sha="ca8b3dfe30c1c19961e309afd0beb3a17488ebc58488e1cc764c69a4693475da"),
    # A clipped lossy point: most high-frequency coefficients dropped.
    Case("lossy", lambda: make_realistic_cloud(96, seed=32),
         CodecParams(max_leaf=32, q_geo=16, alpha_sh_y=0.5, alpha_sh_u=0.25,
                     alpha_sh_v=0.25, alpha_opacity=0.5, alpha_scale=0.5,
                     alpha_rotation=0.5, **_SMALL_Q), leaf=1,
         stream_sha="f4a59dbd0855f667792661fd2423f06927db6d13c6f6e66c7a3acb62d26e0b1e",
         ply_sha="ca7c6ed8a0a8f55f5f9843dfb62f9462d9e594ce99c69111479b83f99fafc063",
         eigenvalues_sha="c1e1318bc6e4b65d18e1bea7ce22ee0058a0ab3e3fa0b30e66e96fd0776aa219",
         basis_sha="605642bbc4fb39c06fa91099c3813bc66579f396a38558d119e25cea2e84a3af"),
    # Isolated points: the pinned leaf holds all three far points.
    Case("isolated", _isolated_cloud,
         CodecParams(max_leaf=16, **_SMALL_Q), leaf=3,
         stream_sha="c4d54df2e4a183777b74dfeb875aecb3adaf7995de5ec55d4ad6b41374023b40",
         ply_sha="0afb608044a534b184f00a603d75b16eb8703ab56d904edd76665ad85cf11d31",
         eigenvalues_sha="65ea6dfb949fd7cab6b07246f0900d76482731ebbee8383d98a62fa19614c192",
         basis_sha="af699c78e00ddcca51b75c6ac947e90ffe79e337d00012907d1afe5e41f79c4a"),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(blob: bytes, leaf: int) -> dict[str, str]:
    cloud, debug = codec.decode(CodedStream.from_bytes(blob), collect_debug=True)
    # leaves are disjoint, so the leaf's row in its chunk holds its first point
    first = debug.part.leaves[leaf][0]
    [(spec, b)] = [(spec, b) for rows, spec in debug.chunks
                   for b in np.flatnonzero(rows[:, 0] == first)]
    return {
        "stream_sha": _sha(blob),
        "ply_sha": _sha(save_ply(cloud)),
        "eigenvalues_sha": _sha(spec.eigenvalues[b].tobytes()),
        "basis_sha": _sha(spec.basis[b].tobytes()),
    }


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
class TestGoldenStreams:
    def test_stream_file_is_pinned(self, case):
        assert _sha(case.path.read_bytes()) == case.stream_sha

    def test_encoder_reproduces_stream(self, case):
        blob = codec.encode(case.cloud(), case.params).to_bytes()
        assert _sha(blob) == case.stream_sha

    def test_decoded_ply_and_leaf_spectrum(self, case):
        got = _digests(case.path.read_bytes(), case.leaf)
        want = {k: getattr(case, k) for k in got}
        assert got == want


def test_isolated_case_skips_a_reflector():
    """The pinned leaf of `isolated` has a vertex with no nonzero weight
    before its last two rows, so its reduction skips a Householder step."""
    case = CASES[2]
    _, debug = codec.encode(case.cloud(), case.params, collect_debug=True)
    leaf = debug.part.leaves[case.leaf]
    sigma = codec._sigma(debug.recon_centers)
    w = spectral.build_adjacency(debug.recon_centers[leaf], sigma)
    isolated = np.flatnonzero(~w.any(axis=1))
    assert isolated.size and isolated.min() <= len(leaf) - 3


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        cloud = case.cloud()
        blob = codec.encode(cloud, case.params).to_bytes()
        case.path.write_bytes(blob)
        _, debug = codec.encode(cloud, case.params, collect_debug=True)
        sizes = [len(leaf) for leaf in debug.part.leaves]
        print(f"{case.name}: {len(blob)} bytes, leaf sizes {sizes}")
        for key, value in _digests(blob, case.leaf).items():
            print(f'    {key}="{value}",')


if __name__ == "__main__":
    _record()
