"""Shape-adaptive KDE bandwidth selection: h = k(n) · c · σ̂ · n^(-1/5).

The shape multiplier c is 1 for Gaussian and near-Gaussian nulls and
kurtosis-adaptive otherwise: c = 1 + 0.1 log2(κ0 / τ(κ̂)), clamped to
[0.85, 1.15], where κ0 is the kurtosis implied by the fitted null and
τ(κ̂) = min{max(κ̂, 2), 10} truncates the sample kurtosis.  k(n) inflates
small-sample bandwidths (1.25 at n=50, linearly down to 1.00 at n=100).
All shape statistics use the biased divisor-n moment estimators, computed
on the raw scale for real-supported nulls and on ln(data) for
positive-supported nulls.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DataError, DegenerateDataError, RowFailures, SupportError,
    first_failures, raise_row_failure, row_failures,
)
from .families import FamilyId, FittedModel, Support, _mean, get_family, null_kurtosis
from .quadrature import Scale

C_BOUNDS = (0.85, 1.15)
KURTOSIS_TRUNCATION = (2.0, 10.0)
MIN_SIZE = 4  # the smallest sample the rule takes


class Regime(str, Enum):
    GAUSSIAN = "gaussian"
    NEAR_GAUSSIAN = "near_gaussian"
    NON_GAUSSIAN_REAL = "non_gaussian_real"
    RIGHT_SKEWED_POSITIVE = "right_skewed_positive"


@dataclass(frozen=True)
class ShapeStats:
    """Sample shape statistics on the working scale, plus the null anchor."""

    kappa_hat: float
    skew_hat: float
    kappa0: float
    tau: float
    gamma_kurt: float
    sigma_hat: float


@dataclass(frozen=True)
class BandwidthSpec:
    """h together with its full decomposition, so any run is auditable."""

    h: float
    c: float
    k_n: float
    n: int
    scale: Scale
    shape: ShapeStats
    regime: Regime


def small_sample_inflation(n: int) -> float:
    """k(n): 1 for n >= 100, 1.25 - 0.25 (n-50)/50 below, floored at k(30)."""
    if n >= 100:
        return 1.0
    return min(1.25 - 0.25 * (n - 50.0) / 50.0, 1.35)


def truncate_kurtosis(kappa_hat):
    """τ(κ̂) = min{max(κ̂, 2), 10}, elementwise."""
    return np.clip(kappa_hat, *KURTOSIS_TRUNCATION)


def _shape_rows(x: np.ndarray) -> tuple[tuple, RowFailures]:
    """(sigma, skewness, kurtosis) of each row, with divisor-n moments.

    The third and fourth moments are taken on the standardized sample, so
    they cannot overflow where the variance does not.  A row fails when its
    variance is not finite or not > 0.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u = x - _mean(x)[:, None]
        m2 = _mean(u * u)
        failures = first_failures(
            row_failures(~np.isfinite(m2),
                         lambda i: DataError("variance on the working scale is not finite")),
            row_failures(m2 <= 0.0,
                         lambda i: DegenerateDataError("zero variance on the working scale")),
        )
        sigma = np.sqrt(m2)
        u /= sigma[:, None]
        u2 = u * u
        skew = _mean(np.multiply(u2, u, out=u))
        kurt = _mean(np.multiply(u2, u2, out=u2))
    return (sigma, skew, kurt), failures


def _working_rows(null_family: FamilyId, rows: np.ndarray) -> tuple[np.ndarray, RowFailures]:
    """The rows on the scale the KDE smooths (ln x on positive support), and
    the rows the bandwidth rule refuses: all of them, left as they are, if
    they hold fewer than ``MIN_SIZE`` values, else those with values outside
    the null's support."""
    fam = get_family(null_family)
    if rows.shape[1] < MIN_SIZE:
        return rows, row_failures(np.ones(len(rows), dtype=bool), lambda i: DataError(
            f"bandwidth selection needs at least {MIN_SIZE} observations"))
    if fam.support is not Support.POSITIVE:
        return rows, {}
    failures = row_failures(rows.min(axis=1) <= 0.0, lambda i: SupportError(
        f"{fam.family_id.value} null has positive support; data contain values <= 0"
    ))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(rows), failures


def _near_gaussian(skew, kurt):
    return (np.abs(skew) <= 0.5) & (2.0 <= kurt) & (kurt <= 4.0)


def _regime(null_family: FamilyId, shape: tuple[float, float, float]) -> Regime:
    """The regime given the (sigma, skewness, kurtosis) of the working data,
    which only real-support nulls other than the normal read."""
    if null_family is FamilyId.NORMAL:
        return Regime.GAUSSIAN
    if get_family(null_family).support is Support.POSITIVE:
        return Regime.RIGHT_SKEWED_POSITIVE
    _, skew, kurt = shape
    return Regime.NEAR_GAUSSIAN if _near_gaussian(skew, kurt) else Regime.NON_GAUSSIAN_REAL


def _multiplier(neutral, kappa0, kappa_hat):
    """c, elementwise: 1 where ``neutral``, else 1 + 0.1 log2(κ0 / τ(κ̂))
    clamped to C_BOUNDS."""
    c = 1.0 + 0.1 * np.log2(kappa0 / truncate_kurtosis(kappa_hat))
    return np.where(neutral, 1.0, np.clip(c, *C_BOUNDS))


def shape_multiplier(regime: Regime, kappa0: float, kappa_hat: float) -> float:
    """The multiplier c for the given regime; clamped to [0.85, 1.15]."""
    return float(_multiplier(regime in (Regime.GAUSSIAN, Regime.NEAR_GAUSSIAN),
                             kappa0, kappa_hat))


def _bandwidth_rows(null_family: FamilyId, kappa0, working: np.ndarray):
    """h = k(n) c σ̂ n^(-1/5) for each row of a (rows, n) working-scale array.

    ``kappa0`` is the null-implied kurtosis of each row's fit (or one value
    for all rows).  Rows must hold at least ``MIN_SIZE`` values.  Returns
    (h, c, the ``_shape_rows`` statistics, failures).
    """
    fam = get_family(null_family)
    n = working.shape[1]
    shape, failures = _shape_rows(working)
    _, skew, kurt = shape
    if fam.family_id is FamilyId.NORMAL:
        neutral = True
    elif fam.support is Support.POSITIVE:
        neutral = False
    else:
        neutral = _near_gaussian(skew, kurt)
    c = _multiplier(neutral, kappa0, kurt)
    h = small_sample_inflation(n) * c * shape[0] * n ** (-0.2)
    return h, c, shape, failures


def _bandwidth_spec(null_family: FamilyId, n: int, kappa0, h, c, shape) -> BandwidthSpec:
    """The ``BandwidthSpec`` of row 0 of a ``_bandwidth_rows`` call on n
    values per row, with its ``kappa0`` (one value, or one per row)."""
    fam = get_family(null_family)
    sigma, skew, kurt = (float(v[0]) for v in shape)
    kappa0, tau = float(np.ravel(kappa0)[0]), float(truncate_kurtosis(kurt))
    stats = ShapeStats(
        kappa_hat=kurt, skew_hat=skew, kappa0=kappa0, tau=tau, gamma_kurt=kappa0 / tau,
        sigma_hat=sigma,
    )
    return BandwidthSpec(h=float(h[0]), c=float(c[0]), k_n=small_sample_inflation(n), n=n,
                         scale=Scale.LN if fam.support is Support.POSITIVE else Scale.RAW,
                         shape=stats, regime=_regime(fam.family_id, (sigma, skew, kurt)))


def select_bandwidth(fitted: FittedModel, data) -> BandwidthSpec:
    """Assemble the full bandwidth for testing ``fitted``'s null family on
    ``data``.

    The identical rule is applied to bootstrap samples (with the bootstrap
    refit supplying κ0), so the smoothing regime is anchored to the null in
    both the observed and resampled worlds.  The one-row call of
    ``_bandwidth_rows``.  A family without a null-implied kurtosis (not a
    testable null) raises InvalidParameterError.
    """
    fam = get_family(fitted.family)
    data = np.asarray(data, dtype=float).reshape(1, -1)
    working, failures = _working_rows(fam.family_id, data)
    raise_row_failure(failures)
    kappa0 = null_kurtosis(fitted)
    h, c, shape, failures = _bandwidth_rows(fam.family_id, kappa0, working)
    raise_row_failure(failures)
    return _bandwidth_spec(fam.family_id, int(data.size), kappa0, h, c, shape)
