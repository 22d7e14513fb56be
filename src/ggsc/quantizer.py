"""Uniform scalar quantization of attribute groups.

Values are mapped onto a 2^q-level integer grid that starts at a
per-component minimum a_min:

    b = floor((a - a_min) * (2^q - 1) / s + 1/2)

The scale `s` is shared by every component of a group: one step per
attribute keeps the index stream friendlier to the entropy coder.  A
grid is fitted once over all values an attribute contributes across
every leaf, travels in the stream header, and is the only thing the
decoder needs to invert the mapping:

    a_hat = a_min + b * s / (2^q - 1)

so the round-trip error is bounded by half a step, 0.5 * s / (2^q - 1).

A float64 grid starts at each component's minimum, and its scale is the
widest component range.  A float32 grid, which the attribute groups use,
is zero-aligned: its scale is one step wider, and each a_min sits on a
multiple of the step at or below the component's minimum, so that 0 is
a level (to within float32 rounding).  Transform coefficients cluster
at 0, and there they quantize without bias, at the level the codec
codes most cheaply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuantGrid:
    """Fitted quantization grid for one attribute group.

    mins:  (C,) per-component minima.
    scale: shared by every component: the widest component range, or for
           a zero-aligned float32 grid (`fit_grid`) one step wider.
    q:     bit depth, 1..31.
    """

    mins: np.ndarray
    scale: float
    q: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "mins", np.asarray(self.mins, dtype=np.float64))
        object.__setattr__(self, "scale", float(self.scale))
        if self.mins.ndim != 1:
            raise ValueError("mins must be a 1-D array")
        if not (np.isfinite(self.mins).all() and math.isfinite(self.scale)):
            raise ValueError("grid parameters must be finite")
        if self.scale < 0.0:
            raise ValueError("scale must be non-negative")
        if not 1 <= self.q <= 31:
            raise ValueError(f"q must be in [1, 31], got {self.q}")

    @property
    def components(self) -> int:
        return self.mins.shape[0]

    @property
    def levels(self) -> int:
        return (1 << self.q) - 1

    @property
    def step(self) -> float:
        """Reconstruction spacing, s / (2^q - 1)."""
        return self.scale / self.levels


def fit_grid(values: np.ndarray, q: int, dtype=np.float64) -> QuantGrid:
    """Fit a grid over samples shaped (S, C) (or (S,) for C = 1).

    With `dtype=np.float32` every grid field is a float32 value, so the
    grid can travel in single precision: each minimum is rounded down and
    the shared scale up, far enough that every sample v still satisfies
    mins <= v <= mins + scale and v - mins <= scale in float64, so
    `quantize` clips none.  Samples beyond float32's range raise.

    The float32 grid is also zero-aligned (`_align_zero`): for q >= 2 and a
    nonzero scale, zero lies on a level of each component's grid, to
    within float32 rounding, so a zero value quantizes without bias.
    """
    vals = _as_samples(values)
    if vals.shape[0] < 1:
        raise ValueError("cannot fit a grid on zero samples")
    if not np.isfinite(vals).all():
        raise ValueError("samples must be finite")
    mins, maxs = vals.min(axis=0), vals.max(axis=0)
    dtype = np.dtype(dtype)
    if dtype == np.float64:
        return QuantGrid(mins=mins, scale=(maxs - mins).max(), q=q)
    if dtype != np.float32:
        raise ValueError(f"grids are float64 or float32, not {dtype}")
    with np.errstate(over="ignore", invalid="ignore"):
        mins = _round_f32(mins, -np.inf)
        scale = _round_f32((maxs - mins).max(), np.inf)
        if q > 1 and scale > 0.0:
            mins, scale = _align_zero(mins, maxs, scale, (1 << q) - 1)
        # mins + scale rounds in float64; one float32 step past it is far
        # more than that rounding can take away.
        if (mins + scale < maxs).any():
            scale = _round_f32(np.nextafter(scale, np.inf), np.inf)
    if not (np.isfinite(mins).all() and np.isfinite(scale)):
        raise ValueError("samples lie outside float32's range")
    return QuantGrid(mins=mins, scale=scale, q=q)


def _align_zero(mins: np.ndarray, maxs: np.ndarray, scale: float,
                levels: int) -> tuple[np.ndarray, float]:
    """Float32 minima on multiples of the step, and the scale widened by
    one step to make room: scale * levels / (levels - 1), rounded up.

    Moving a minimum down to a multiple of the new step costs less than
    that step, so the widened grid still reaches each maximum.  A
    component whose aligned grid does not cover its samples in float64
    (its step below float32's spacing at the minimum's magnitude) keeps
    its minimum, which the wider scale covers too; so do all of them when
    the wider scale would pass float32's range.
    """
    wide = _round_f32(scale * levels / (levels - 1), np.inf)
    if not np.isfinite(wide):
        return mins, scale
    scale, step = wide, wide / levels
    aligned = _round_f32(np.floor(mins / step) * step, -np.inf)
    fits = (aligned <= mins) & (aligned + scale >= maxs) & (maxs - aligned <= scale)
    return np.where(fits, aligned, mins), scale


def _round_f32(x, toward: float) -> np.ndarray:
    """The float32 value nearest `x` on the side of `toward` (-inf or
    +inf), as float64."""
    x = np.asarray(x, dtype=np.float64)
    out = x.astype(np.float32)
    past = out > x if toward < 0 else out < x
    return np.where(past, np.nextafter(out, np.float32(toward)), out).astype(np.float64)


def quantize(values: np.ndarray, grid: QuantGrid) -> np.ndarray:
    """Map values (..., C) to integer levels (int64, same leading shape).

    A constant group (scale 0) maps to level 0.  Inputs are expected to
    lie inside the fitted range; a half-ulp excursion past either end is
    clamped rather than wrapped.
    """
    vals, squeeze = _align(values, grid)
    if grid.scale > 0.0:
        scaled = (vals - grid.mins) * grid.levels
        # Clipped before the cast: an overflow to +-inf has no int64 value.
        out = np.clip(np.floor(scaled / grid.scale + 0.5), 0, grid.levels)
        out = out.astype(np.int64)
    else:
        out = np.zeros(vals.shape, dtype=np.int64)
    return out[..., 0] if squeeze else out


def dequantize(levels: np.ndarray, grid: QuantGrid) -> np.ndarray:
    """Invert `quantize` onto grid points; levels outside [0, 2^q-1] raise."""
    lev, squeeze = _align(levels, grid)
    if not np.issubdtype(lev.dtype, np.integer):
        if not np.equal(np.mod(lev, 1), 0).all():
            raise ValueError("levels must be integers")
        lev = lev.astype(np.int64)
    if lev.size and (lev.min() < 0 or lev.max() > grid.levels):
        raise ValueError(f"levels must lie in [0, {grid.levels}]")
    return grid.mins + lev * grid.scale / grid.levels


def _as_samples(values) -> np.ndarray:
    vals = np.asarray(values)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.ndim != 2:
        raise ValueError(f"expected (S, C) samples, got shape {vals.shape}")
    return vals.astype(np.float64, copy=False)


def _align(values, grid: QuantGrid):
    """Broadcast-check trailing dim against the grid; C=1 accepts (...,)."""
    vals = np.asarray(values)
    squeeze = False
    if grid.components == 1 and (vals.ndim == 0 or vals.shape[-1] != 1):
        vals = vals[..., None]
        squeeze = True
    if vals.ndim < 1 or vals.shape[-1] != grid.components:
        raise ValueError(
            f"trailing dimension must be {grid.components}, got {vals.shape}"
        )
    return vals, squeeze
