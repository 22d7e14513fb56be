"""RGB <-> YUV conversion of spherical-harmonics coefficient triples.

Color decorrelation happens before the transform stage: every SH
coefficient index (the DC term and all 15 higher-order terms) carries an
(R, G, B) triple that is rotated into (Y, U, V) with the classic
luma/chroma weights.  The luma channel then concentrates most of the
signal energy, letting the chroma channels survive coarser quantization.

The conversion is linear and is applied per primitive per coefficient,
so it commutes with any per-channel linear transform downstream.  It is
three elementwise products summed in channel order rather than a matrix
product, which numpy would hand to a BLAS kernel chosen per CPU: the
decoder's SH must not depend on the machine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gs_core import SH_COEFFS, SH_DC, SH_REST

#: Coefficient triples per primitive: DC plus 15 per-channel harmonics.
SH_TRIPLES = 1 + SH_REST // 3

RGB_TO_YUV = np.array(
    [
        [0.299, 0.587, 0.114],
        [-0.169, -0.331, 0.500],
        [0.500, -0.419, -0.081],
    ]
)

#: Frozen inverse of RGB_TO_YUV (np.linalg.inv evaluated once and pinned,
#: so both codec sides multiply by the same constants; the first column is
#: exactly 1.0 because the luma row sums to one).
YUV_TO_RGB = np.array(
    [
        [1.0, -0.0009267448404856213, 1.4016867602439158],
        [1.0, -0.3436953844721575, -0.7141690399515892],
        [1.0, 1.7721604157233477, 0.0009902205144916019],
    ]
)


@dataclass
class ShTriple:
    """SH coefficients grouped as per-index color triples.

    coeffs: (N, 16, 3); axis 1 is the coefficient index (0 = DC), axis 2
            the color channel -- (R, G, B) or (Y, U, V) depending on tag.
    space:  "rgb" or "yuv".
    """

    coeffs: np.ndarray
    space: str

    def __post_init__(self) -> None:
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if self.coeffs.ndim != 3 or self.coeffs.shape[1:] != (SH_TRIPLES, 3):
            raise ValueError(
                f"coeffs must be (N, {SH_TRIPLES}, 3), got {self.coeffs.shape}"
            )
        if self.space not in ("rgb", "yuv"):
            raise ValueError(f"unknown color space tag {self.space!r}")


def sh_from_flat(sh: np.ndarray) -> ShTriple:
    """Regroup stored-order SH rows (N, 48) into RGB triples (N, 16, 3).

    Stored order is f_dc_0..2 then f_rest channel-major (15 consecutive
    coefficients per channel), so triple j > 0 of channel c comes from
    column 3 + c * 15 + (j - 1).
    """
    flat = np.asarray(sh, dtype=np.float64)
    if flat.ndim != 2 or flat.shape[1] != SH_COEFFS:
        raise ValueError(f"sh must be (N, {SH_COEFFS}), got {flat.shape}")
    n = flat.shape[0]
    out = np.empty((n, SH_TRIPLES, 3))
    out[:, 0, :] = flat[:, :SH_DC]
    rest = flat[:, SH_DC:].reshape(n, 3, SH_REST // 3)
    out[:, 1:, :] = rest.transpose(0, 2, 1)
    return ShTriple(coeffs=out, space="rgb")


def sh_to_flat(triple: ShTriple) -> np.ndarray:
    """Inverse of `sh_from_flat`; requires the RGB tag."""
    if triple.space != "rgb":
        raise ValueError("stored SH layout is defined for RGB coefficients")
    n = triple.coeffs.shape[0]
    flat = np.empty((n, SH_COEFFS))
    flat[:, :SH_DC] = triple.coeffs[:, 0, :]
    flat[:, SH_DC:] = triple.coeffs[:, 1:, :].transpose(0, 2, 1).reshape(n, SH_REST)
    return flat


def _mix(coeffs: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """out[..., i] = x0 * M[i, 0] + x1 * M[i, 1] + x2 * M[i, 2], added
    left to right."""
    x, m = coeffs, matrix
    return x[..., 0:1] * m[:, 0] + x[..., 1:2] * m[:, 1] + x[..., 2:3] * m[:, 2]


def sh_rgb_to_yuv(triple: ShTriple) -> ShTriple:
    if triple.space != "rgb":
        raise ValueError(f"expected rgb input, got {triple.space!r}")
    return ShTriple(coeffs=_mix(triple.coeffs, RGB_TO_YUV), space="yuv")


def sh_yuv_to_rgb(triple: ShTriple) -> ShTriple:
    if triple.space != "yuv":
        raise ValueError(f"expected yuv input, got {triple.space!r}")
    return ShTriple(coeffs=_mix(triple.coeffs, YUV_TO_RGB), space="rgb")
