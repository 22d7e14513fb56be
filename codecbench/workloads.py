"""Benchmark workloads: one synthetic asset and one parameter set each.

Each workload is sized so that one layer does most of the encode work
and other layers little, so a change to one layer shows on one workload
and not on another:

* ``spectral-m64``: two leaves of 64 primitives at the default bit depths.
  The O(m^3) per-leaf eigensolve is nearly all of encode; the entropy
  coder is about 2%.
* ``entropy-q16``: many 8-primitive leaves, every attribute at 16 bits
  and geometry at the deepest 63-bit Morton lattice.  The adaptive
  arithmetic coder over 2^16-symbol alphabets is most of encode; the
  eigensolve is trivial per leaf, so per-leaf orchestration is loaded.
* ``lossy-rd``: the paper's lossy operating point.  Clipping keeps only
  the lowest eigenvectors, alphabets are small and geometry is about a
  third of the bytes.

The assets are small, so that one op takes a few seconds with the
interpreted eigensolver and coder and a run repeats it several times.

``tiny`` exercises the runner, checks and tracer in seconds; it is not
a measured workload.
"""

from __future__ import annotations

from dataclasses import dataclass

_GROUPS = ("sh_y", "sh_u", "sh_v", "opacity", "scale", "rotation")


@dataclass(frozen=True)
class Workload:
    #: Primitives in the synthetic asset.
    n: int
    #: Keyword arguments of `ggsc.CodecParams`.
    params: dict


WORKLOADS = {
    "spectral-m64": Workload(n=128, params=dict(max_leaf=64)),
    "entropy-q16": Workload(
        n=1024,
        params=dict(max_leaf=8, q_geo=21, **{f"q_{g}": 16 for g in _GROUPS}),
    ),
    "lossy-rd": Workload(
        n=512,
        params=dict(
            max_leaf=32,
            q_geo=16,
            q_sh_y=8,
            q_sh_u=6,
            q_sh_v=6,
            q_opacity=8,
            q_scale=8,
            q_rotation=8,
            alpha_sh_y=0.5,
            alpha_sh_u=0.25,
            alpha_sh_v=0.25,
            alpha_opacity=0.5,
            alpha_scale=0.5,
            alpha_rotation=0.5,
        ),
    ),
    "tiny": Workload(n=64, params=dict(max_leaf=8)),
}
