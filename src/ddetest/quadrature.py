"""The entropy integration-range rule and the scale it applies on.

Integration ranges for entropy functionals follow the quantile rule: the
0.001 and 0.999 sample quantiles, pushed out by ``RANGE_BANDWIDTH_MULTIPLE``
bandwidths, on the working scale of the bandwidth: raw for real-supported
data and ln for positive-supported data (``Scale``).  The quantiles are
type 7 of Hyndman & Fan (1996), numpy's "linear" method.  ``range_bounds``
is that rule for one sorted sample or for the sorted rows of a (rows, n)
array, as ``entropy._kde_entropy`` applies it after the one sort of each
row that the KDE needs anyway; the KDE entropy integrates over that range
by a fixed rule (``entropy._kde_entropy_rows``).
"""
from __future__ import annotations

import math
from enum import Enum


class Scale(str, Enum):
    RAW = "raw"
    LN = "ln"


# m = 5 covers essentially all Gaussian-kernel mass beyond the extreme quantiles
RANGE_BANDWIDTH_MULTIPLE = 5.0


def _sorted_quantile(ordered, q: float):
    """The q sample quantile along the last axis of ``ordered``, sorted
    ascending, with the bits of ``np.quantile(..., method="linear")``:
    order statistics i = ⌊(n - 1) q⌋ and i + 1, interpolated as numpy's
    ``_lerp`` does, a + (b - a) t, or b - (b - a)(1 - t) where t ≥ 0.5."""
    n = ordered.shape[-1]
    virtual = (n - 1) * q
    i = math.floor(virtual)
    t = virtual - i
    a, b = ordered[..., i], ordered[..., min(i + 1, n - 1)]
    diff = b - a
    return b - diff * (1.0 - t) if t >= 0.5 else a + diff * t


def range_bounds(ordered, h):
    """(q(.001) - m h, q(.999) + m h) along the last axis of ``ordered``,
    m = ``RANGE_BANDWIDTH_MULTIPLE``: for one sample, or for the rows of a
    (rows, n) array with one bandwidth per row.  Each sample or row must be
    sorted ascending; the quantiles are read from its order statistics.
    Nothing checks the input.
    """
    q_low, q_high = _sorted_quantile(ordered, 0.001), _sorted_quantile(ordered, 0.999)
    return q_low - RANGE_BANDWIDTH_MULTIPLE * h, q_high + RANGE_BANDWIDTH_MULTIPLE * h
