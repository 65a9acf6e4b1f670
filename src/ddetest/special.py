"""Special functions used by the entropy formulas and bias diagnostics."""
from __future__ import annotations

import numpy as np
from scipy import special as _sp

EULER_GAMMA = float(np.euler_gamma)

log_gamma = _sp.gammaln
digamma = _sp.digamma


def trigamma(x):
    return _sp.polygamma(1, x)


def polygamma(n: int, x):
    return _sp.polygamma(n, x)

