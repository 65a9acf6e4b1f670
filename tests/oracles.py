"""Reference computations the tests compare the program against.

``integrate`` is QUADPACK's adaptive Gauss–Kronrod integrator
(``scipy.integrate.quad``, Piessens et al. 1983) over the tests' vectorized
integrands.  ``_de_ml_quadrature`` integrates a fitted model's own density:
the oracle the closed-form entropies are checked against.
"""
from __future__ import annotations

import numpy as np
from scipy.integrate import quad

from ddetest.errors import InvalidParameterError
from ddetest.families import FittedModel, Support, get_family, log_pdf
from ddetest.quadrature import IntegrationRange

DEFAULT_TOL = 1e-8


def integrate(f, rng: IntegrationRange, tol: float, edges=None) -> float:
    """∫ f over ``rng`` with absolute error at most ``tol``.

    ``f`` maps a 1-d array of points to an array of values.  ``edges``, an
    increasing array from ``rng.lower`` to ``rng.upper``, puts breakpoints
    at its interior points: an integrand whose structure lives on another
    scale (ln x on a raw axis) needs them, since the error estimate cannot
    see structure far below a subinterval's node spacing.
    """
    points = None if edges is None else np.asarray(edges, dtype=float)[1:-1]
    value, _ = quad(lambda x: f(np.array([x]))[0], rng.lower, rng.upper,
                    epsabs=tol, epsrel=0.0, limit=4000, points=points)
    return value


def _de_ml_quadrature(fitted: FittedModel, tol: float) -> float:
    """-∫ f ln f via quadrature on the model's working scale."""
    fam = get_family(fitted.family)
    if fam.working_moments is None:
        raise InvalidParameterError(f"no quadrature entropy path for {fam.family_id.value}")
    mean, sd = fam.working_moments(fitted.theta)
    rng = IntegrationRange(mean - 45.0 * sd, mean + 45.0 * sd)
    if fitted.support is Support.POSITIVE:
        def integrand(y):
            # -f(x) ln f(x) dx with x = e^y
            lp = log_pdf(fitted, np.exp(y))
            return -np.exp(lp + y) * np.where(np.isfinite(lp), lp, 0.0)
    else:
        def integrand(y):
            lp = log_pdf(fitted, y)
            return -np.exp(lp) * np.where(np.isfinite(lp), lp, 0.0)
    return integrate(integrand, rng, tol)
