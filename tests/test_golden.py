"""Every stream-format pin: golden `.ggsc` streams (the encoder's bytes,
the decoder's PLY and one leaf's spectrum) and attribute payloads written
by `codec.encode_levels`, pinned by SHA-256.

The streams under `tests/golden/` were written by the codec when these
pins were recorded; those under `tests/golden/unaligned/` are decode-only
vectors that an earlier encoder wrote in the same format.  Every test
here reads or rebuilds them unchanged, so a drift anywhere in the
pipeline -- the eigensolve's last bits included, which a float32 PLY can
hide -- fails a test instead of passing silently.
A deliberate format change bumps `codec.VERSION` and records them again:

    PYTHONPATH=src:tests python tests/test_golden.py

rewrites the streams and prints the digests to paste into `CASES` and
the sizes and digests to paste into `PAYLOAD_CASES`.
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
from ggsc.quantizer import QuantGrid, quantize

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
         stream_sha="63d799f327c4b6ce54184f3540506d21ff865db5407cc53b3a1e01a1c8fef377",
         ply_sha="ba8be9667272409b0ee87e150ba9ac35c8abd9739e9556747ec6c911225abc5d",
         eigenvalues_sha="e67488e309293140dc75e2a7a2f8261030cd0615d88bf5cf811ccef5e22667e2",
         basis_sha="ca8b3dfe30c1c19961e309afd0beb3a17488ebc58488e1cc764c69a4693475da"),
    # A clipped lossy point: most high-frequency coefficients dropped.
    Case("lossy", lambda: make_realistic_cloud(96, seed=32),
         CodecParams(max_leaf=32, q_geo=16, alpha_sh_y=0.5, alpha_sh_u=0.25,
                     alpha_sh_v=0.25, alpha_opacity=0.5, alpha_scale=0.5,
                     alpha_rotation=0.5, **_SMALL_Q), leaf=1,
         stream_sha="1ce5fd0c7f21f89681907f70e84791efa9c260b5631f8aa8efa4e77be3f9855d",
         ply_sha="13954feccb077291f900f6b0dabaf13e947091ac48155d01a6d250337739c5fb",
         eigenvalues_sha="c1e1318bc6e4b65d18e1bea7ce22ee0058a0ab3e3fa0b30e66e96fd0776aa219",
         basis_sha="605642bbc4fb39c06fa91099c3813bc66579f396a38558d119e25cea2e84a3af"),
    # Isolated points: the pinned leaf holds all three far points.
    Case("isolated", _isolated_cloud,
         CodecParams(max_leaf=16, **_SMALL_Q), leaf=3,
         stream_sha="6c9f5cdf1f60b35eb7a87d8d7810736421ce53fb29087d56300e3349251f3d88",
         ply_sha="4c96e4030f49e2dcc2a3dd13486a3b32354907ae5628166130e9b485a89baa35",
         eigenvalues_sha="65ea6dfb949fd7cab6b07246f0900d76482731ebbee8383d98a62fa19614c192",
         basis_sha="af699c78e00ddcca51b75c6ac947e90ffe79e337d00012907d1afe5e41f79c4a"),
]


#: Each case's stream as the encoder wrote it before its attribute grids
#: were zero-aligned (`golden/unaligned/`), and the PLY it decodes to:
#: (stream_sha, ply_sha).  The format did not change with the grids, so
#: these streams still decode, and to the same PLY.
UNALIGNED = {
    "mixed": ("ab99570ff541ea4375eaf40892bf0e672b121c1ffffa9b1686dd4d11cd4fef82",
              "e9ed83fb1d8945dcf755f97fb3992291b88c0b3360bf93a16e5931f79dad020e"),
    "lossy": ("1e76168fe972aaff0aa41f8479f8326f686e8be70f6f3afa27c52f689be02ed5",
              "ca7c6ed8a0a8f55f5f9843dfb62f9462d9e594ce99c69111479b83f99fafc063"),
    "isolated": ("5828a6ed054f73be1f74e32b7528f387f9b800629047588a6c40a1645813e93b",
                 "0afb608044a534b184f00a603d75b16eb8703ab56d904edd76665ad85cf11d31"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(blob: bytes, leaf: int) -> dict[str, str]:
    cloud, debug = codec.decode(CodedStream.from_bytes(blob), collect_debug=True)
    # the decoder solved this leaf from these centers, bit for bit alike
    centers = debug.recon_centers
    spec = spectral.graph_spectrum(centers[debug.part.leaves[leaf]],
                                   spectral.kernel_sigma(centers))
    return {
        "stream_sha": _sha(blob),
        "ply_sha": _sha(save_ply(cloud)),
        "eigenvalues_sha": _sha(spec.eigenvalues.tobytes()),
        "basis_sha": _sha(spec.basis.tobytes()),
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

    def test_unaligned_stream_decodes_unchanged(self, case):
        """A stream on the earlier, unaligned grids decodes as it did."""
        stream_sha, ply_sha = UNALIGNED[case.name]
        got = _digests((GOLDEN / "unaligned" / case.path.name).read_bytes(), case.leaf)
        assert got == {"stream_sha": stream_sha, "ply_sha": ply_sha,
                       "eigenvalues_sha": case.eigenvalues_sha, "basis_sha": case.basis_sha}


def test_isolated_case_skips_a_reflector():
    """The pinned leaf of `isolated` has a vertex with no nonzero weight
    before its last two rows, so its reduction skips a Householder step."""
    case = CASES[2]
    _, debug = codec.encode(case.cloud(), case.params, collect_debug=True)
    leaf = debug.part.leaves[case.leaf]
    sigma = spectral.kernel_sigma(debug.recon_centers)
    w = spectral.build_adjacency(debug.recon_centers[leaf], sigma)
    isolated = np.flatnonzero(~w.any(axis=1))
    assert isolated.size and isolated.min() <= len(leaf) - 3


def _spectrum_levels(grid, alpha, sizes, seed):
    """Levels in payload order of Laplace-shaped coefficients that shrink
    with their index, quantized on `grid`."""
    rng = np.random.default_rng(seed)
    parts = []
    for m, n in sizes.items():
        k = spectral.clip_count(alpha, m)
        values = rng.laplace(size=(n, k, grid.components)) / (1.0 + np.arange(k))[:, None]
        parts.append(quantize(values, grid).ravel())
    return np.concatenate(parts)


def _level_payload(q, comps, alpha, sizes):
    """A grid, levels on it and their payload, for one `PAYLOAD_CASES` case."""
    grid = QuantGrid(mins=np.full(comps, -2.0), scale=4.5, q=q)
    levels = _spectrum_levels(grid, alpha, sizes, seed=q)
    return grid, levels, codec.encode_levels(levels, grid, alpha, sizes)


#: (q, comps, alpha, sizes, size, digest) of `encode_levels` payloads.  The
#: leaves reach coefficient 16 and past, so every band is pinned, and the
#: 16-component case pins every SH degree.  Each case keeps the id it was
#: first recorded under, which ends in that recording's size and digest,
#: so a new recording renames no case.
PAYLOAD_CASES = [
    pytest.param(8, 3, 1.0, {40: 2, 37: 1}, 214,
        "d8806a3487e3473c7ba6ab160cc97fe45bbeb008ee2615ba920275ebbe53a499",
        id="8-3-1.0-sizes0-218-b9b3b182b0bdc3d5c872186c2ffae03a15785b00a4d719fc80380e810fcdf9d4"),
    pytest.param(16, 1, 0.5, {64: 3}, 173,
        "e1806f41ee91353a8d27b696d422410313486e165ade15b032aeee3c08dda56d",
        id="16-1-0.5-sizes1-177-96976c7a9952809296cc442b245cccf5841edb5f30584a3fad824595ab3c57ad"),
    pytest.param(1, 4, 1.0, {20: 2}, 18,
        "35369d19bc024ca87f5ead722ddb5e0ec68def23f6121248ce4a9c73e98202fe",
        id="1-4-1.0-sizes2-21-eea53d8bb727f5d808aa31ffb1ad080dc8090f7886f4054b626439895c8ad6e6"),
    # 16 components: an SH colour channel, every degree context
    pytest.param(10, 16, 1.0, {20: 2}, 650,
        "1682fe2720b45bc72958d5d013b022fed5e84e60556ed3c0bb99eda4d057c046",
        id="10-16-1.0-sizes3-650-5f89dced7229efab6a9d9f842c8d07ead22a79050dad0dfbd8983ea689fea884"),
]


class TestLevelPayloadBytes:
    """SHA-256 of attribute payloads written by `encode_levels` when these
    pins were recorded (`PAYLOAD_CASES`); each round-trips through
    `decode_levels`.  A change to any of them is a stream format change:
    bump `codec.VERSION` and record them again (module docstring)."""

    @pytest.mark.parametrize("q, comps, alpha, sizes, size, digest", PAYLOAD_CASES)
    def test_payload_hash(self, q, comps, alpha, sizes, size, digest):
        grid, levels, payload = _level_payload(q, comps, alpha, sizes)
        np.testing.assert_array_equal(codec.decode_levels(payload, grid, alpha, sizes), levels)
        assert len(payload) == size
        assert _sha(payload) == digest


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
    for case in PAYLOAD_CASES:
        q, comps, alpha, sizes, _, _ = case.values
        payload = _level_payload(q, comps, alpha, sizes)[2]
        print(f'payload {case.id}:\n    {len(payload)}, "{_sha(payload)}",')


if __name__ == "__main__":
    _record()
