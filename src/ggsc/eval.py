"""Rate-distortion evaluation and objective/subjective correlation tools.

Fidelity is reported as PSNR per attribute (peak = the reference
attribute's value range) and as point-to-point D1 geometry PSNR (peak =
the reference bounding-box diagonal, symmetrized over both nearest-
neighbor directions).  For correlation studies against subjective
scores, objective values are first mapped through the standard
five-parameter logistic

    Q(x) = b1 * (0.5 - 1 / (1 + exp(b2 * (x - b3)))) + b4 * x + b5

fitted by least squares; PLCC and RMSE are computed on the mapped
values, SRCC on the raw ones (rank correlation is invariant to the
monotone map).  Ties get average ranks.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, fields as dc_fields

import numpy as np

from . import codec as codec_mod
from .codec import CodecParams, bitrate_breakdown
from .gs_core import GaussianCloud, bounding_box

#: Attribute axes reported by `attribute_psnr`.
PSNR_AXES = ("sh", "sh_y", "sh_u", "sh_v", "opacity", "scale", "rotation")


@dataclass(frozen=True)
class PsnrStats:
    """One distortion measurement; `psnr_db` is +inf for exact matches."""

    mse: float
    peak: float
    psnr_db: float

    @property
    def infinite(self) -> bool:
        return np.isinf(self.psnr_db)


def _psnr(mse: float, peak: float) -> PsnrStats:
    if mse == 0.0:
        db = float("inf")
    elif peak == 0.0:
        db = float("-inf")
    else:
        db = float(10.0 * np.log10(peak * peak / mse))
    return PsnrStats(mse=float(mse), peak=float(peak), psnr_db=db)


def attribute_psnr(ref: GaussianCloud, dist: GaussianCloud) -> dict[str, PsnrStats]:
    """Per-attribute PSNR between aligned clouds (same primitive order).

    Both clouds must already be in the same (canonical Morton) order and
    equally sized; there is no correspondence search here.
    """
    if len(ref) != len(dist):
        raise ValueError(
            f"clouds disagree in size: {len(ref)} vs {len(dist)} primitives"
        )

    def stats(a: np.ndarray, b: np.ndarray) -> PsnrStats:
        mse = float(np.mean((a - b) ** 2))
        peak = float(a.max() - a.min())
        return _psnr(mse, peak)

    # The flat SH, then each group's signal as the codec splits it.
    ref_signals = codec_mod.attribute_signals(ref)
    dist_signals = codec_mod.attribute_signals(dist)
    out = {"sh": stats(ref.sh, dist.sh)}
    for name in codec_mod.GROUP_NAMES:
        out[name] = stats(ref_signals[name], dist_signals[name])
    return out


def geometry_psnr_d1(ref: GaussianCloud, dist: GaussianCloud) -> PsnrStats:
    """Symmetric point-to-point (D1) PSNR over nearest-neighbor distances.

    MSE is the larger of the two directional means -- the usual
    conservative symmetrization -- and the peak is the reference bbox
    diagonal.
    """
    from .nearest import nearest_distances  # compiled only once a call needs it

    d_ab = nearest_distances(ref.centers, dist.centers)
    d_ba = nearest_distances(dist.centers, ref.centers)
    mse = max(float(np.mean(d_ab**2)), float(np.mean(d_ba**2)))
    peak = bounding_box(ref).diagonal
    return _psnr(mse, peak)


def bd_rate(rate_a, psnr_a, rate_b, psnr_b) -> float:
    """Bjontegaard delta rate (VCEG-M33) of curve b against curve a: the
    mean rate change, as a fraction, at equal PSNR (-0.1: b needs 10%
    fewer bits).

    Each side's log rate is fitted by a cubic in PSNR, and both cubics are
    averaged over the PSNR range the two curves share.  Each side needs
    at least four points, and the ranges must overlap.
    """
    fits, ranges = [], []
    for rate, psnr in ((rate_a, psnr_a), (rate_b, psnr_b)):
        rate = np.asarray(rate, dtype=np.float64)
        psnr = np.asarray(psnr, dtype=np.float64)
        if rate.ndim != 1 or rate.shape != psnr.shape:
            raise ValueError("each curve needs equal-length 1-D rates and PSNRs")
        if rate.shape[0] < 4:
            raise ValueError("each curve needs at least 4 points for a cubic fit")
        if not (np.isfinite(psnr).all() and np.isfinite(rate).all() and (rate > 0).all()):
            raise ValueError("rates must be positive and PSNRs finite")
        fits.append(np.polyint(np.polyfit(psnr, np.log(rate), 3)))
        ranges.append((psnr.min(), psnr.max()))
    lo = max(r[0] for r in ranges)
    hi = min(r[1] for r in ranges)
    if not lo < hi:
        raise ValueError("the curves share no PSNR range")
    area_a, area_b = (np.polyval(f, hi) - np.polyval(f, lo) for f in fits)
    return float(np.expm1((area_b - area_a) / (hi - lo)))


def _logistic5(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    b1, b2, b3, b4, b5 = p
    z = np.clip(b2 * (x - b3), -500.0, 500.0)
    return b1 * (0.5 - 1.0 / (1.0 + np.exp(z))) + b4 * x + b5


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    am = a - a.mean()
    bm = b - b.mean()
    den = float(np.sqrt((am * am).sum() * (bm * bm).sum()))
    if den == 0.0:
        return 0.0
    return float((am * bm).sum() / den)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    sx = x[order]
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Rank correlation with average ranks on ties."""
    return _pearson(_average_ranks(np.asarray(a)), _average_ranks(np.asarray(b)))


@dataclass(frozen=True)
class CorrelationReport:
    plcc: float
    srcc: float
    rmse: float
    logistic_params: tuple[float, float, float, float, float]


def fit_logistic5(objective: np.ndarray, mos: np.ndarray) -> CorrelationReport:
    """Fit the 5-parameter logistic and report PLCC/SRCC/RMSE.

    Needs at least five pairs (five free parameters) and variation on
    both sides; a constant column is a caller error worth naming.
    """
    x = np.asarray(objective, dtype=np.float64)
    y = np.asarray(mos, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise ValueError("objective and mos must be equal-length 1-D arrays")
    if x.shape[0] < 5:
        raise ValueError("need at least 5 pairs to fit 5 parameters")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("objective and mos must be finite")
    if x.max() == x.min():
        raise ValueError("objective values are constant; nothing to fit")
    if y.max() == y.min():
        raise ValueError("mos values are constant; nothing to fit")

    yspan = y.max() - y.min()
    xspan = x.max() - x.min()
    slope = np.polyfit(x, y, 1)[0]
    # Two logistic orientations plus a plain linear start; the logistic
    # term of the best candidate may legitimately end up flat.
    starts = [
        np.array([yspan, 4.0 / xspan, float(np.median(x)), 0.0, float(y.mean())]),
        np.array([-yspan, 4.0 / xspan, float(np.median(x)), 0.0, float(y.mean())]),
        np.array([0.0, 1.0 / xspan, float(np.median(x)), slope,
                  float(y.mean() - slope * x.mean())]),
    ]
    from scipy.optimize import least_squares  # the one use of scipy; loads on first fit

    best = None
    for p0 in starts:
        res = least_squares(
            lambda p: _logistic5(x, p) - y,
            p0,
            method="lm",
            xtol=1e-8,
            max_nfev=500 * (len(p0) + 1),
        )
        if best is None or res.cost < best.cost:
            best = res
    params = best.x
    mapped = _logistic5(x, params)
    return CorrelationReport(
        plcc=_pearson(mapped, y),
        srcc=spearman(x, y),
        rmse=float(np.sqrt(np.mean((mapped - y) ** 2))),
        logistic_params=tuple(float(v) for v in params),
    )


def read_pairs_csv(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse (objective, mos) pairs from CSV text with a header row."""
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2:
        raise ValueError("CSV needs a header row and at least one data row")
    data = []
    for i, row in enumerate(rows[1:], start=2):
        if not row or not any(cell.strip() for cell in row):
            continue
        if len(row) < 2:
            raise ValueError(f"CSV line {i}: expected two columns")
        try:
            data.append((float(row[0]), float(row[1])))
        except ValueError as exc:
            raise ValueError(f"CSV line {i}: non-numeric value") from exc
    if not data:
        raise ValueError("CSV carries no data rows")
    arr = np.asarray(data)
    return arr[:, 0], arr[:, 1]


@dataclass
class RdPoint:
    """One rate-distortion measurement (or a recorded failure)."""

    params: CodecParams
    status: str = "ok"
    header_bytes: int = 0
    b1_bytes: int = 0
    b2_bytes: int = 0
    #: Group name -> bytes of its attribute payload; they sum to b2_bytes.
    group_bytes: dict[str, int] = field(default_factory=dict)
    total_bytes: int = 0
    attr_psnr: dict[str, PsnrStats] | None = None
    d1_psnr: PsnrStats | None = None


#: Column order of `write_sweep_csv`.
SWEEP_COLUMNS = (
    [f.name for f in dc_fields(CodecParams)]
    + ["header_bytes", "b1_bytes", "b2_bytes"]
    + [f"b2_{name}_bytes" for name in codec_mod.GROUP_NAMES]
    + ["total_bytes"]
    + [f"psnr_{axis}" for axis in PSNR_AXES]
    + ["psnr_d1", "status"]
)


def rd_sweep(
    cloud: GaussianCloud,
    grid: list[CodecParams],
) -> list[RdPoint]:
    """Encode/decode/measure the cloud at every parameter point.

    A failing point (e.g. invalid parameters) is recorded with its error
    message in `status`; the sweep continues.
    """
    points: list[RdPoint] = []
    for params in grid:
        try:
            stream = codec_mod.encode(cloud, params)
            decoded = codec_mod.decode(stream)
            ref = codec_mod.canonical_order(cloud, params)
            report = bitrate_breakdown(stream)
            points.append(
                RdPoint(
                    params=params,
                    status="ok",
                    header_bytes=report.header_bytes,
                    b1_bytes=report.b1,
                    b2_bytes=report.b2,
                    group_bytes=report.attribute_bytes,
                    total_bytes=report.total_bytes,
                    attr_psnr=attribute_psnr(ref, decoded),
                    d1_psnr=geometry_psnr_d1(ref, decoded),
                )
            )
        except Exception as exc:  # noqa: BLE001 - sweep must survive bad points
            points.append(RdPoint(params=params, status=f"failed: {exc}"))
    return points


def write_sweep_csv(points: list[RdPoint], fh) -> None:
    """Write sweep results as CSV (one row per point, fixed column set)."""
    writer = csv.writer(fh)
    writer.writerow(SWEEP_COLUMNS)
    for pt in points:
        row = [getattr(pt.params, f.name) for f in dc_fields(CodecParams)]
        row += [pt.header_bytes, pt.b1_bytes, pt.b2_bytes]
        row += [pt.group_bytes.get(name, 0) for name in codec_mod.GROUP_NAMES]
        row.append(pt.total_bytes)
        for axis in PSNR_AXES:
            stats = (pt.attr_psnr or {}).get(axis)
            row.append("" if stats is None else repr(stats.psnr_db))
        row.append("" if pt.d1_psnr is None else repr(pt.d1_psnr.psnr_db))
        row.append(pt.status)
        writer.writerow(row)
