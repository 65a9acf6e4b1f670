"""The entropy integration-range rule and the scale it applies on.

Integration ranges for entropy functionals follow the quantile rule: the
0.001 and 0.999 sample quantiles, pushed out by a fixed multiple of the
bandwidth, on the raw scale for real-supported data and on the ln scale for
positive-supported data.  ``range_bounds`` is that rule for the rows of a
(rows, n) array, as ``entropy._kde_entropy`` applies it; the KDE entropy
integrates over that range by a fixed rule (``entropy._kde_entropy_rows``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateDataError, InvalidParameterError, SupportError
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
