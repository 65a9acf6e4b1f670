"""The entropy integration-range rule and the scale it applies on.

Integration ranges for entropy functionals follow the quantile rule: the
0.001 and 0.999 sample quantiles, pushed out by ``RANGE_BANDWIDTH_MULTIPLE``
bandwidths, on the working scale of the bandwidth: raw for real-supported
data and ln for positive-supported data (``Scale``).  ``range_bounds`` is
that rule for one sample or for the rows of a (rows, n) array, as
``entropy._kde_entropy`` applies it; the KDE entropy integrates over that
range by a fixed rule (``entropy._kde_entropy_rows``).
"""
from __future__ import annotations

from enum import Enum

import numpy as np


class Scale(str, Enum):
    RAW = "raw"
    LN = "ln"


# m = 5 covers essentially all Gaussian-kernel mass beyond the extreme quantiles
RANGE_BANDWIDTH_MULTIPLE = 5.0


def range_bounds(working, h):
    """(q(.001) - m h, q(.999) + m h) along the last axis of ``working``,
    m = ``RANGE_BANDWIDTH_MULTIPLE``: for one sample, or for the rows of a
    (rows, n) array with one bandwidth per row.  Nothing checks the input.
    """
    q_low, q_high = np.quantile(working, [0.001, 0.999], axis=-1, method="linear")
    return q_low - RANGE_BANDWIDTH_MULTIPLE * h, q_high + RANGE_BANDWIDTH_MULTIPLE * h
