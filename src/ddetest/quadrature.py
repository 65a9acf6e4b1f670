"""Adaptive one-dimensional quadrature and the entropy integration-range rule.

The integrator pairs the 7-point Gauss rule with its 15-point Kronrod
extension on each panel and bisects panels whose |K15 - G7| discrepancy
exceeds their width-share of the tolerance.  All panels pending in a round
are evaluated in one vectorized call.  It serves the model-density entropy
oracle ``entropy._de_ml_quadrature`` and the tests; the KDE entropy uses a
fixed Gauss–Legendre rule of its own (``entropy._kde_entropy``).

Integration ranges for entropy functionals follow the quantile rule: the
0.001 and 0.999 sample quantiles, pushed out by a fixed multiple of the
bandwidth, on the raw scale for real-supported data and on the ln scale for
positive-supported data.  ``range_bounds`` is that rule for the rows of a
(rows, n) array, as ``entropy._kde_entropy`` applies it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import DegenerateDataError, InvalidParameterError, QuadratureError, SupportError
from .families import Support


class Scale(str, Enum):
    RAW = "raw"
    LN = "ln"


@dataclass(frozen=True)
class IntegrationRange:
    lower: float
    upper: float
    scale: Scale = Scale.RAW

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise InvalidParameterError("integration limits must be finite")
        if not self.lower < self.upper:
            raise InvalidParameterError(
                f"integration range requires lower < upper, got [{self.lower}, {self.upper}]"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower


# 15-point Kronrod nodes on [-1, 1] with Kronrod weights and the embedded
# 7-point Gauss weights (zero at Kronrod-only nodes).  QUADPACK dqk15 values.
_NODES = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993945, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0,
    0.2077849550078985, 0.4058451513773972, 0.5860872354676911,
    0.7415311855993945, 0.8648644233597691, 0.9491079123427585,
    0.9914553711208126,
])
_W_KRONROD = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
    0.2044329400752989, 0.1903505780647854, 0.1690047266392679,
    0.1406532597155259, 0.1047900103222502, 0.0630920926299786,
    0.0229353220105292,
])
_W_GAUSS = np.array([
    0.0, 0.1294849661688697, 0.0,
    0.2797053914892767, 0.0, 0.3818300505051189,
    0.0, 0.4179591836734694,
    0.0, 0.3818300505051189, 0.0,
    0.2797053914892767, 0.0, 0.1294849661688697,
    0.0,
])


def _eval_panels(f: Callable, lo: np.ndarray, hi: np.ndarray):
    """Kronrod value and |K15 - G7| error estimate for each [lo_i, hi_i]."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts = mid[:, None] + half[:, None] * _NODES[None, :]
    fv = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
    if not np.all(np.isfinite(fv)):
        raise QuadratureError(
            "integrand returned a non-finite value inside the range",
            value=float("nan"), error_estimate=float("inf"),
        )
    vals = half * (fv @ _W_KRONROD)
    errs = np.abs(vals - half * (fv @ _W_GAUSS))
    return vals, errs


def integrate_with_error(
    f: Callable,
    rng: IntegrationRange,
    tol: float = 1e-8,
    *,
    min_intervals: int = 8,
    max_intervals: int = 2**15,
    edges=None,
) -> tuple[float, float, int]:
    """Adaptive integral of ``f`` over ``rng``; returns (value, error, panels).

    ``f`` must accept a 1-d ndarray of evaluation points and return a same-
    shaped ndarray.  ``edges`` overrides the equally spaced initial panels;
    callers integrating multi-scale integrands (e.g., ln-scale structure on a
    raw axis) should seed panels on the matching scale, since the embedded
    error estimate cannot see structure far below a panel's node spacing.
    Raises :class:`QuadratureError` if the subdivision cap is reached before
    the estimated absolute error falls below ``tol``.
    """
    if tol <= 0.0:
        raise InvalidParameterError(f"tolerance must be > 0, got {tol}")
    if edges is None:
        edges = np.linspace(rng.lower, rng.upper, min_intervals + 1)
    else:
        edges = np.asarray(edges, dtype=float)
        if edges.size < 2 or np.any(np.diff(edges) <= 0) or \
                edges[0] != rng.lower or edges[-1] != rng.upper:
            raise InvalidParameterError("edges must increase from lower to upper")
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _eval_panels(f, lo, hi)

    while True:
        total_err = float(errs.sum())
        if total_err <= tol:
            return float(vals.sum()), total_err, lo.size
        if lo.size >= max_intervals:
            raise QuadratureError(
                f"quadrature did not reach tol={tol:g} within {max_intervals} "
                f"panels (achieved error {total_err:.3e})",
                value=float(vals.sum()), error_estimate=total_err,
            )
        # split every panel holding more than its width-share of the budget;
        # always split at least the worst offender
        share = tol * (hi - lo) / rng.width
        bad = errs > share
        if not bad.any():
            bad[int(np.argmax(errs))] = True
        mid = 0.5 * (lo[bad] + hi[bad])
        new_lo = np.concatenate([lo[bad], mid])
        new_hi = np.concatenate([mid, hi[bad]])
        new_vals, new_errs = _eval_panels(f, new_lo, new_hi)
        lo = np.concatenate([lo[~bad], new_lo])
        hi = np.concatenate([hi[~bad], new_hi])
        vals = np.concatenate([vals[~bad], new_vals])
        errs = np.concatenate([errs[~bad], new_errs])


def integrate(f: Callable, rng: IntegrationRange, tol: float = 1e-8, **kwargs) -> float:
    """Adaptive integral of ``f`` over ``rng`` with absolute error <= tol."""
    value, _, _ = integrate_with_error(f, rng, tol, **kwargs)
    return value


RANGE_BANDWIDTH_MULTIPLE = 5.0


def entropy_range(
    data,
    h: float,
    support: Support,
    *,
    m: float = RANGE_BANDWIDTH_MULTIPLE,
) -> IntegrationRange:
    """Quantile-based integration range for entropy integrals.

    [q(.001) - m h, q(.999) + m h] on the raw scale for real support, and the
    same construction on ln(data) for positive support.  m = 5 covers
    essentially all Gaussian-kernel mass beyond the extreme quantiles.
    """
    data = np.asarray(data, dtype=float)
    if data.size < 2:
        raise DegenerateDataError("need at least 2 observations for an integration range")
    if h <= 0.0:
        raise InvalidParameterError(f"bandwidth must be > 0, got {h}")
    if support is Support.POSITIVE:
        if np.min(data) <= 0.0:
            raise SupportError("positive-support range requested for data with values <= 0")
        working = np.log(data)
        scale = Scale.LN
    else:
        working = data
        scale = Scale.RAW
    if np.min(working) == np.max(working):
        raise DegenerateDataError("all observations are identical")
    lower, upper = range_bounds(working, h, m)
    return IntegrationRange(float(lower), float(upper), scale)


def range_bounds(working, h, m: float = RANGE_BANDWIDTH_MULTIPLE):
    """(q(.001) - m h, q(.999) + m h) along the last axis of ``working``.

    The rule of ``entropy_range`` without its checks, for one sample or for
    the rows of a (rows, n) array with one bandwidth per row.
    """
    q_low, q_high = np.quantile(working, [0.001, 0.999], axis=-1, method="linear")
    return q_low - m * h, q_high + m * h
