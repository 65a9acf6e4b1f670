"""Reference computations the tests compare the program against.

``integrate`` is QUADPACK's adaptive Gauss–Kronrod integrator
(``scipy.integrate.quad``, Piessens et al. 1983) over the tests' vectorized
integrands.  ``_de_ml_quadrature`` integrates a fitted model's own density:
the oracle the closed-form entropies are checked against, over a range that
``WORKING_MOMENTS`` places.  ``kde_pdf`` is the Gaussian KDE summed over
every sample, and ``mean_log_likelihood`` the mean log-density of a sample
under a model, which the fit tests maximize.  ``gamma_shape`` and
``gamma_profile`` solve the gamma shape equation with scipy's root finder
and special functions, the oracle of the generalized-gamma fit's table, and
``profile_slopes`` gives that fit's score and curvature in ln p from an
exactly solved shape.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import digamma, gammaln, polygamma

from ddetest.errors import InvalidParameterError
from ddetest.families import FamilyId, FittedModel, Support, log_pdf

DEFAULT_TOL = 1e-8


def integrate(f, lower: float, upper: float, tol: float, edges=None) -> float:
    """∫ f over [lower, upper] with absolute error at most ``tol``.

    ``f`` maps a 1-d array of points to an array of values.  ``edges``, an
    increasing array from ``lower`` to ``upper``, puts breakpoints
    at its interior points: an integrand whose structure lives on another
    scale (ln x on a raw axis) needs them, since the error estimate cannot
    see structure far below a subinterval's node spacing.
    """
    points = None if edges is None else np.asarray(edges, dtype=float)[1:-1]
    value, _ = quad(lambda x: f(np.array([x]))[0], lower, upper,
                    epsabs=tol, epsrel=0.0, limit=4000, points=points)
    return value


def kde_pdf(data, h: float, x):
    """Gaussian-kernel density estimate (nh)^-1 Σ K((x - x_i)/h)."""
    if h <= 0.0:
        raise InvalidParameterError(f"bandwidth must be > 0, got {h}")
    data = np.asarray(data, dtype=float)
    if data.size == 0:
        raise InvalidParameterError("kde_pdf needs a nonempty sample")
    pts = np.asarray(x, dtype=float)
    scalar = pts.ndim == 0
    z = (pts.reshape(-1, 1) - data[None, :]) / h
    out = np.exp(-0.5 * z * z).sum(axis=1) / (data.size * h * math.sqrt(2.0 * math.pi))
    return float(out[0]) if scalar else out.reshape(np.shape(x))


def mean_log_likelihood(model: FittedModel, data) -> float:
    """Mean log-likelihood of the sample under the model."""
    lp = log_pdf(model, np.asarray(data, dtype=float))
    return float(np.mean(lp))


def gamma_shape(s):
    """k*(s), the root of ln k - psi(k) = s for each s > 0, by Brent's method.

    ln k - psi(k) lies between 1/(2k) and 1/k, so the root lies between
    1/(2s) and 1/s."""
    return np.array([brentq(lambda k: math.log(k) - digamma(k) - si, 0.4 / si, 1.1 / si,
                            xtol=1e-300, rtol=4.0 * np.finfo(float).eps, maxiter=200)
                     for si in np.asarray(s, dtype=float)])


def gamma_profile(s, k):
    """phi(s) = k ln k - k - ln Gamma(k) - k s at the shape k = k*(s)."""
    return k * np.log(k) - k - gammaln(k) - k * s


def profile_slopes(k, g, v):
    """First and second derivatives in u = ln p of the generalized-gamma
    profile log-likelihood, from the shape k solved at s(u) and the
    p-weighted moments g and v of ``families._profile_moments``.  The
    loglik is stationary in k at the solved shape, so the score is 1 - k g;
    the curvature is -(dk/du) g - k (g + v), with dk/du = k g / (1 - k
    psi'(k)) from ln k - psi(k) = s."""
    return 1.0 - k * g, -k * g * g / (1.0 - k * polygamma(1, k)) - k * (g + v)


def _working_normal(th):
    return th[0], math.sqrt(th[1])


def _working_laplace(th):
    return th[0], th[1] * math.sqrt(2.0)


def _working_logistic(th):
    return th[0], th[1] * math.pi / math.sqrt(3.0)


def _working_exponential(th):
    return math.log(th[0]) + float(digamma(1.0)), math.sqrt(float(polygamma(1, 1.0)))


def _working_gamma(th):
    a, b = th
    return float(digamma(a)) + math.log(b), math.sqrt(float(polygamma(1, a)))


def _working_gengamma(th):
    a, d, p = th
    q = d / p
    return math.log(a) + float(digamma(q)) / p, math.sqrt(float(polygamma(1, q))) / p


# (mean, sd) of each family on its working scale (raw on R, ln X on R+)
WORKING_MOMENTS = {
    FamilyId.NORMAL: _working_normal,
    FamilyId.EXPONENTIAL: _working_exponential,
    FamilyId.GAMMA: _working_gamma,
    FamilyId.LAPLACE: _working_laplace,
    # ln X ~ N(u, sigma2): the working scale shares the normal's form
    FamilyId.LOGNORMAL: _working_normal,
    FamilyId.GENGAMMA: _working_gengamma,
    FamilyId.LOGISTIC: _working_logistic,
}


def _de_ml_quadrature(fitted: FittedModel, tol: float) -> float:
    """-∫ f ln f via quadrature on the model's working scale."""
    if fitted.family not in WORKING_MOMENTS:
        raise InvalidParameterError(f"no quadrature entropy path for {fitted.family.value}")
    mean, sd = WORKING_MOMENTS[fitted.family](fitted.theta)
    if fitted.support is Support.POSITIVE:
        def integrand(y):
            # -f(x) ln f(x) dx with x = e^y
            lp = log_pdf(fitted, np.exp(y))
            return -np.exp(lp + y) * np.where(np.isfinite(lp), lp, 0.0)
    else:
        def integrand(y):
            lp = log_pdf(fitted, y)
            return -np.exp(lp) * np.where(np.isfinite(lp), lp, 0.0)
    return integrate(integrand, mean - 45.0 * sd, mean + 45.0 * sd, tol)
