"""Parametric distribution families: densities, samplers, MLE fits, entropies.

``Family`` is the one table of per-family facts; the registry covers two
tiers:

* testable nulls (normal, exponential, gamma, laplace, lognormal, gengamma):
  full surface — log-density, sampler, MLE fit, closed-form differential
  entropy and the null-implied kurtosis that drives bandwidth selection;
* alternative data-generating processes used in the size/power study
  (logistic, cauchy, scaled_t, rayleigh, loglogistic, lomax, weibull,
  invgaussian): samplers, log-densities, and entropy where a maximum-entropy
  closed form exists.

Every family carries its analytic (mean, variance); the four simulated
nulls (normal, exponential, gamma, laplace) also carry the bias diagnostics
of the ML and KDE entropy estimators.

The fit, the closed-form entropy and the null-implied kurtosis of a testable
null are row-wise: ``Family.fit`` takes the rows of a (rows, n) array, one
sample per row, and returns one array per parameter, and ``entropy`` and
``kurtosis`` take those arrays as theta.  The bootstrap fits a group of
replicates in one call (``_fit_rows``); ``fit_mle`` is its one-row call, and
``closed_form_entropy`` and ``null_kurtosis`` take one model's theta.

Parameterizations (kurtosis for positive-support families is the kurtosis of
ln X, the scale on which their density is smoothed):

=============  =====================  =======================================
family         theta                  notes
=============  =====================  =======================================
normal         (u, sigma2)            sigma2 is the variance
exponential    (theta,)               theta is the mean
gamma          (alpha, beta)          shape, scale
laplace        (u, b)                 b is the diversity; Var = 2 b^2
lognormal      (u, sigma2)            moments of ln X
gengamma       (a, d, p)              Stacy: p x^{d-1} e^{-(x/a)^p}/(a^d Γ(d/p))
logistic       (u, s)                 Var = s^2 π^2 / 3
cauchy         (x0, gamma)            no moments
scaled_t       (df, scale)            X = scale · t_df
rayleigh       (sigma,)               Var = (4-π)/2 σ^2
loglogistic    (shape, scale)         mean = scale·c/sin c, c = π/shape
lomax          (shape, scale)         mean = scale/(shape-1)
weibull        (k, lam)               shape, scale
invgaussian    (mu, lam)              mean mu, Var = mu^3/lam
=============  =====================  =======================================
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import (
    DataError, DegenerateDataError, FitError, InvalidParameterError, RowFailures, SupportError,
    first_failures, raise_row_failure, row_failures,
)

_LN_2PI = math.log(2.0 * math.pi)
_NEG_INF = float("-inf")


class Support(Enum):
    REAL = "real"
    POSITIVE = "positive"


class FamilyId(str, Enum):
    # testable nulls
    NORMAL = "normal"
    EXPONENTIAL = "exponential"
    GAMMA = "gamma"
    LAPLACE = "laplace"
    LOGNORMAL = "lognormal"
    GENGAMMA = "gengamma"
    # alternative DGPs
    LOGISTIC = "logistic"
    CAUCHY = "cauchy"
    SCALED_T = "scaled_t"
    RAYLEIGH = "rayleigh"
    LOGLOGISTIC = "loglogistic"
    LOMAX = "lomax"
    WEIBULL = "weibull"
    INV_GAUSSIAN = "invgaussian"


@dataclass(frozen=True)
class Family:
    """Registry entry: the callable surface one distribution family exposes.

    Each callable but ``fit`` takes theta first.  ``fit`` takes the rows of
    a (rows, n) array and returns the parameter columns (one array per
    parameter) with the failures of its own rows (see ``_fit_rows``); for
    the testable nulls ``entropy`` and ``kurtosis`` take such columns as
    theta as readily as one parameter tuple.  ``positive`` names the
    parameters that must be > 0.  ``moments`` gives the raw-scale (mean,
    variance), ``ml_bias(theta, n)`` the O(1/n) bias of the plug-in entropy,
    and ``kde_smoothing(theta, h)`` the smoothing term (h²/2) J of the KDE
    entropy bias.
    """

    family_id: FamilyId
    param_names: tuple[str, ...]
    support: Support
    positive: tuple[str, ...]
    log_pdf: Callable
    sampler: Callable
    entropy: Callable | None = None
    fit: Callable | None = None
    kurtosis: Callable | None = None  # null-implied kurtosis on the working scale
    moments: Callable | None = None
    ml_bias: Callable | None = None
    kde_smoothing: Callable | None = None

    @property
    def testable(self) -> bool:
        return self.fit is not None

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    @property
    def min_fit_size(self) -> int:
        return self.n_params + 1


@dataclass(frozen=True)
class FittedModel:
    """A family tag plus its parameter vector.

    ``n_fit`` records the sample size behind a fit; generator specs that were
    never fit to data use the default 0.
    """

    family: FamilyId
    theta: tuple[float, ...]
    n_fit: int = 0

    def __post_init__(self):
        object.__setattr__(self, "family", FamilyId(self.family))
        fam = get_family(self.family)
        object.__setattr__(self, "theta", tuple(float(t) for t in self.theta))
        if len(self.theta) != fam.n_params:
            raise InvalidParameterError(
                f"{fam.family_id.value} expects {fam.n_params} parameters "
                f"{fam.param_names}, got {len(self.theta)}"
            )
        if not all(math.isfinite(t) for t in self.theta):
            raise InvalidParameterError(f"non-finite parameter in {self.theta}")
        for name, value in zip(fam.param_names, self.theta):
            if name in fam.positive and value <= 0.0:
                raise InvalidParameterError(
                    f"{fam.family_id.value}: parameter {name} must be > 0, got {value}"
                )

    @property
    def support(self) -> Support:
        return get_family(self.family).support


# --------------------------------------------------------------------------
# log-densities (arrays in, arrays out; -inf outside the support)
# --------------------------------------------------------------------------

def _logpdf_normal(theta, x):
    u, s2 = theta
    return -0.5 * (_LN_2PI + math.log(s2)) - (x - u) ** 2 / (2.0 * s2)


def _logpdf_exponential(theta, x):
    (t,) = theta
    with np.errstate(invalid="ignore"):
        val = -math.log(t) - x / t
    return np.where(x > 0, val, _NEG_INF)


def _logpdf_gamma(theta, x):
    a, b = theta
    with np.errstate(divide="ignore", invalid="ignore"):
        val = (a - 1.0) * np.log(x) - x / b - a * math.log(b) - math.lgamma(a)
    return np.where(x > 0, val, _NEG_INF)


def _logpdf_laplace(theta, x):
    u, b = theta
    return -math.log(2.0 * b) - np.abs(x - u) / b


def _logpdf_lognormal(theta, x):
    u, s2 = theta
    with np.errstate(divide="ignore", invalid="ignore"):
        lx = np.log(x)
        val = -lx - 0.5 * (_LN_2PI + math.log(s2)) - (lx - u) ** 2 / (2.0 * s2)
    return np.where(x > 0, val, _NEG_INF)


def _logpdf_gengamma(theta, x):
    a, d, p = theta
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lx = np.log(x)
        # (x/a)^p computed in log space to avoid premature overflow
        pw = np.exp(np.minimum(p * (lx - math.log(a)), 709.0))
        val = (math.log(p) + (d - 1.0) * lx - d * math.log(a)
               - math.lgamma(d / p) - pw)
    return np.where(x > 0, val, _NEG_INF)


def _logpdf_logistic(theta, x):
    u, s = theta
    z = np.abs(x - u) / s
    return -z - 2.0 * np.log1p(np.exp(-z)) - math.log(s)


def _logpdf_cauchy(theta, x):
    x0, g = theta
    return -math.log(math.pi * g) - np.log1p(((x - x0) / g) ** 2)


def _logpdf_scaled_t(theta, x):
    df, s = theta
    z = x / s
    return (math.lgamma((df + 1.0) / 2.0) - math.lgamma(df / 2.0)
            - 0.5 * math.log(df * math.pi) - math.log(s)
            - 0.5 * (df + 1.0) * np.log1p(z * z / df))


def _logpdf_rayleigh(theta, x):
    (sig,) = theta
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.log(x) - 2.0 * math.log(sig) - x * x / (2.0 * sig * sig)
    return np.where(x > 0, val, _NEG_INF)


def _logpdf_loglogistic(theta, x):
    shape, scale = theta
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lz = np.log(x) - math.log(scale)
        val = (math.log(shape) - math.log(scale) + (shape - 1.0) * lz
               - 2.0 * np.log1p(np.exp(np.minimum(shape * lz, 709.0))))
    return np.where(x > 0, val, _NEG_INF)


def _logpdf_lomax(theta, x):
    shape, scale = theta
    with np.errstate(divide="ignore", invalid="ignore"):
        val = math.log(shape) - math.log(scale) - (shape + 1.0) * np.log1p(x / scale)
    return np.where(x >= 0, val, _NEG_INF)


def _logpdf_invgaussian(theta, x):
    mu, lam = theta
    with np.errstate(divide="ignore", invalid="ignore"):
        val = (0.5 * (math.log(lam) - _LN_2PI - 3.0 * np.log(x))
               - lam * (x - mu) ** 2 / (2.0 * mu * mu * x))
    return np.where(x > 0, val, _NEG_INF)


def _logpdf_weibull(theta, x):
    k, lam = theta
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lz = np.log(x) - math.log(lam)
        val = math.log(k) + (k - 1.0) * lz - math.log(lam) - np.exp(np.minimum(k * lz, 709.0))
    return np.where(x > 0, val, _NEG_INF)


# --------------------------------------------------------------------------
# closed-form differential entropies (maximum-entropy catalog)
# --------------------------------------------------------------------------

def _entropy_normal(theta):
    _, s2 = theta
    return 0.5 * np.log(2.0 * math.pi * math.e * s2)


def _entropy_exponential(theta):
    return 1.0 + np.log(theta[0])


def _entropy_gamma(theta):
    # a + ln b + ln Γ(a) + (1-a)ψ(a), rearranged so that no large terms
    # cancel at large a: ln(ab) - F(a) + (a-1) g(a), where g(a) = ln a - ψ(a)
    # and F(a) = a ln a - a - ln Γ(a) come from their series there
    a, b = theta
    return np.log(a) + np.log(b) - _free_loglik(a) + (a - 1.0) * _gap(a)


def _entropy_laplace(theta):
    return 1.0 + np.log(2.0 * theta[1])


def _entropy_lognormal(theta):
    u, s2 = theta
    return u + 0.5 * np.log(2.0 * math.pi * math.e * s2)


def _entropy_gengamma(theta):
    # Reduces to the Gamma row at p=1, Weibull at d=p, Rayleigh at (d,p)=(2,2).
    # ln a - ln p + ln Γ(q) + q + (1-d)/p ψ(q), q = d/p, in the gamma row's
    # cancellation-free terms: ln a - ln p - F(q) + q g(q) + (ln q - g(q))/p
    a, d, p = theta
    q = d / p
    g = _gap(q)
    return np.log(a) - np.log(p) - _free_loglik(q) + q * g + (np.log(q) - g) / p


def _entropy_logistic(theta):
    return math.log(theta[1]) + 2.0


def _entropy_cauchy(theta):
    return math.log(4.0 * math.pi * theta[1])


def _entropy_rayleigh(theta):
    (sig,) = theta
    return 1.0 + math.log(sig / math.sqrt(2.0)) + 0.5 * np.euler_gamma


def _entropy_weibull(theta):
    k, lam = theta
    return np.euler_gamma * (k - 1.0) / k + math.log(lam / k) + 1.0


# --------------------------------------------------------------------------
# samplers
# --------------------------------------------------------------------------

def _open_unit(stream, n):
    """Uniform draws on the open interval (0, 1) for inverse-CDF samplers."""
    return stream.integers(1, 2**53, size=n) / float(2**53)


def _sample_normal(theta, n, stream):
    return stream.normal(theta[0], math.sqrt(theta[1]), size=n)


def _sample_exponential(theta, n, stream):
    return stream.exponential(theta[0], size=n)


def _sample_gamma(theta, n, stream):
    return stream.gamma(theta[0], theta[1], size=n)


def _sample_laplace(theta, n, stream):
    return stream.laplace(theta[0], theta[1], size=n)


def _sample_lognormal(theta, n, stream):
    return stream.lognormal(theta[0], math.sqrt(theta[1]), size=n)


def _sample_gengamma(theta, n, stream):
    a, d, p = theta
    return a * stream.gamma(d / p, 1.0, size=n) ** (1.0 / p)


def _sample_logistic(theta, n, stream):
    return stream.logistic(theta[0], theta[1], size=n)


def _sample_cauchy(theta, n, stream):
    return theta[0] + theta[1] * stream.standard_cauchy(size=n)


def _sample_scaled_t(theta, n, stream):
    df, s = theta
    return s * stream.standard_t(df, size=n)


def _sample_rayleigh(theta, n, stream):
    return stream.rayleigh(theta[0], size=n)


def _sample_loglogistic(theta, n, stream):
    shape, scale = theta
    u = _open_unit(stream, n)
    return scale * (u / (1.0 - u)) ** (1.0 / shape)


def _sample_lomax(theta, n, stream):
    shape, scale = theta
    u = _open_unit(stream, n)
    return scale * (u ** (-1.0 / shape) - 1.0)


def _sample_invgaussian(theta, n, stream):
    return stream.wald(theta[0], theta[1], size=n)


def _sample_weibull(theta, n, stream):
    k, lam = theta
    return lam * stream.weibull(k, size=n)


# --------------------------------------------------------------------------
# MLE fits
# --------------------------------------------------------------------------
#
# Every fitter takes the rows of a (rows, n) array and returns the parameter
# columns together with the failures of its own rows (``RowFailures``); a
# failed row's parameters are meaningless.  Each reduction runs along one
# row, so a row's fit is bit-identical alone or in any group of rows.

def _mean(v: np.ndarray):
    """Mean along the last axis, bit-identical to ``np.mean`` of each row
    alone (the same pairwise sum, divided by the length) without its
    dispatch overhead."""
    return np.add.reduce(v, axis=-1) / v.shape[-1]


def _mean_var(rows):
    """Mean and divisor-n variance of each row."""
    u = _mean(rows)
    return u, _mean((rows - u[:, None]) ** 2)


def _fit_normal(rows):
    with np.errstate(over="ignore"):  # a variance past the float range fails its row below
        u, s2 = _mean_var(rows)
    return (u, s2), first_failures(
        row_failures(~np.isfinite(s2), lambda i: DataError("variance is not finite")),
        row_failures(s2 <= 0.0, lambda i: DegenerateDataError("zero variance")))


def _fit_exponential(rows):
    return (_mean(rows),), {}


_SERIES_FROM = 20.0  # the asymptotic series below are accurate to a few roundings from here on
_STEPS = np.arange(21.0)  # the recurrence's steps j = 0..19, and one past the last


def _gap_series(k):
    """ln k - psi(k) by psi's asymptotic series, for k >= _SERIES_FROM."""
    r = 1.0 / (k * k)
    return (0.5 + (1/12 - r * (1/120 - r * (1/252 - r * (1/240 - r / 132)))) / k) / k


def _dgap_series(k):
    """1 - k psi'(k) by the asymptotic series of psi', for k >= _SERIES_FROM."""
    r = 1.0 / (k * k)
    return -(0.5 + (1/6 - r * (1/30 - r * (1/42 - r * (1/30 - r * 5/66)))) / k) / k


def _pentagamma_series(k):
    """The third derivative of psi by its asymptotic series, for k >= _SERIES_FROM."""
    r = 1.0 / (k * k)
    return (2.0 + (3.0 + (2.0 - r * (1.0 - r * (4/3 - r * (3.0 - r * (10.0 - r * 691/15))))) / k)
            / k) * r / k


def _stirling_tail(k):
    """k ln k - k - ln Gamma(k) - ln(k/2pi)/2 by Stirling's series, for k >= _SERIES_FROM."""
    r = 1.0 / (k * k)
    return -(1/12 - r * (1/360 - r * (1/1260 - r * (1/1680 - r / 1188)))) / k


def _lift(k):
    """Lift k by the recurrence psi(k) = psi(k + 1) - 1/k to y = k + m, with
    m = ceil(20 - k) steps where k < _SERIES_FROM and none elsewhere, so that
    the series run at y >= _SERIES_FROM.  Returns (k, y, m) as float arrays."""
    k = np.asarray(k, dtype=float)
    m = np.ceil(np.minimum(np.maximum(_SERIES_FROM - k, 0.0), _SERIES_FROM))
    return k, k + m, m


def _steps(k, m):
    """(step, inv) for ``_lift``'s k and m: step[..., j] = 1/(k + j) for the
    steps j < m and 0 for j = m..19, and inv[..., j] = 1/(k + j) for j =
    0..20.  Sums over j run along each element's own row, so an element's
    sums do not depend on the other elements."""
    inv = k[..., None] + _STEPS
    np.divide(1.0, inv, out=inv)
    return inv[..., :-1] * (_STEPS[:-1] < m[..., None]), inv


_LIFT_BLOCK = 1 << 10  # elements lifted at once by ``_in_blocks``


def _in_blocks(f, k):
    """f(k) for an elementwise f that returns a tuple of arrays, run on at
    most _LIFT_BLOCK elements of k at a time, so that the allocator reuses
    the memory of the lift's (elements, 21) arrays.  Arrays as large as the
    2944 shapes the profile table is built from would make are handed back
    to the system after each call and faulted in again."""
    k = np.asarray(k, dtype=float)
    if k.size <= _LIFT_BLOCK:
        return f(k)
    flat = k.ravel()
    parts = [f(flat[i:i + _LIFT_BLOCK]) for i in range(0, flat.size, _LIFT_BLOCK)]
    return tuple(np.concatenate(col).reshape(k.shape) for col in zip(*parts))


def _shape_gap(k):
    """(ln k - psi(k), its derivative 1 - k psi'(k) in ln k), from one lift.

    With y = k + m, ln k - psi(k) = ln(k/y) + sum_j 1/(k+j) + gap(y).  Since
    1/(k+j) - 1/(k+j+1) telescopes to 1/k - 1/y, 1 - k psi'(k) = (k/y)
    dgap(y) - k sum_j 1/((k+j)^2 (k+j+1)): positive terms only, where the
    direct difference cancels to about -1/(2k).  At k >= _SERIES_FROM both
    are the series alone."""
    def block(k):
        k, y, m = _lift(k)
        step, inv = _steps(k, m)
        ky = k / y
        gap = np.log(ky) + np.add.reduce(step, axis=-1) + _gap_series(y)
        step *= step
        step *= inv[..., 1:]
        return gap, ky * _dgap_series(y) - k * np.add.reduce(step, axis=-1)
    return _in_blocks(block, k)


def _gap(k):
    """ln k - psi(k), where the direct difference ~ 1/(2k) cancels
    catastrophically at large k."""
    return _shape_gap(k)[0]


def _free_loglik(k):
    """k ln k - k - ln Gamma(k), by Stirling's series at the lifted y = k + m.

    ln Gamma(k) = ln Gamma(y) - sum_{j<m} ln(k+j) turns it into (k+1) ln(k/y)
    + m + ln prod_{0<j<m} (k+j)/y + ln(y/2pi)/2 + the series tail at y: no
    term is as large as k ln k or y ln y, whose rounding the direct
    difference keeps.  (k+j)/y >= 1 exactly where j >= m, so clipping the
    ratios at 1 drops those factors; the product runs over j in order."""
    def block(k):
        k, y, m = _lift(k)
        ratio = _STEPS[1:-1].reshape((-1,) + (1,) * k.ndim) + k
        ratio /= y
        np.minimum(ratio, 1.0, out=ratio)
        lift = (k + 1.0) * np.log(k / y) + m + np.log(np.multiply.reduce(ratio, axis=0))
        return (0.5 * np.log(y / (2.0 * math.pi)) + _stirling_tail(y) + lift,)
    return _in_blocks(block, k)[0]


def _log_gamma_cumulants(q):
    """(psi'(q), psi'''(q)): the second and fourth cumulants of ln G for
    G ~ Gamma(q), from the lift: psi^(n)(q) = psi^(n)(y) + n! sum_j
    1/(q+j)^(n+1) for odd n."""
    q, y, m = _lift(q)
    step, _ = _steps(q, m)
    step *= step
    trigamma = (1.0 - _dgap_series(y)) / y + np.add.reduce(step, axis=-1)
    step *= step
    return trigamma, _pentagamma_series(y) + 6.0 * np.add.reduce(step, axis=-1)


def _gamma_shape(s):
    """Solve ln k - psi(k) = s > 0 elementwise: the gamma MLE shape.

    Newton in ln k on ln(ln k - psi(k)) = ln s, which is close to linear at
    both ends.  Once an element's residual is below 1e-10 it takes one last
    step and leaves the iteration, so its value does not depend on the other
    elements.  NaN where 50 steps do not converge.
    """
    k = np.full(s.shape, np.nan)
    live = np.arange(s.size)
    ln_s = np.log(s)
    t = np.log((3.0 - s + np.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s))
    for _ in range(50):
        gap, dgap = _shape_gap(np.exp(t))
        resid = np.log(gap) - ln_s
        t = t - np.clip(resid * gap / dgap, -2.0, 2.0)
        done = np.abs(resid) <= 1e-10
        k[live[done]] = np.exp(t[done])
        if done.all():
            break
        live, t, ln_s = live[~done], t[~done], ln_s[~done]
    return k


def _exact_profile(s):
    """(phi, k) at each s by the exact shape solve: k = k*(s) solves ln k -
    psi(k) = s, and phi(s) = max_k [k ln k - k - ln Gamma(k) - k s] =
    k ln k - k - ln Gamma(k) - k s at k*.  Where s <= 0 (a degenerate
    sample) phi is -inf and k NaN; where the shape iteration does not
    converge both are NaN."""
    ok = s > 0.0
    k = np.full(s.shape, np.nan)
    k[ok] = _gamma_shape(s[ok])
    return np.where(ok, _free_loglik(k) - k * s, -np.inf), k


# The gamma profile phi(s) and its maximizer k*(s) = -phi'(s), tabulated in
# t = ln s: Chebyshev pieces of width 0.5 on [-14, 9], each of degree 10,
# hold phi(s) + t/2 and ln(k*(s) s), which are smooth and change slowly
# across the range (k* s -> 1/2 as s -> 0 and -> 1 as s -> inf).  Past
# degree 10 the fitted coefficients are below 5e-15, the exact path's own
# rounding: more terms add rounding, not accuracy.
_TABLE_FROM, _TABLE_TO, _TABLE_WIDTH = -14.0, 9.0, 0.5
_TABLE_PIECES = round((_TABLE_TO - _TABLE_FROM) / _TABLE_WIDTH)
_TABLE_DEGREE = 10
_TABLE_NODES = 64  # Chebyshev nodes per piece the exact path is sampled at
_TABLE_S = math.exp(_TABLE_FROM), math.exp(_TABLE_TO)  # the s the table covers


@functools.cache
def _profile_table():
    """The table's (degree + 1, 3, pieces) Chebyshev coefficients, built on
    the first call from the exact path: no data file, and no cost at import.

    On piece i, x = 2(t - t_i)/0.5 - 1 runs over [-1, 1], and series 0, 1
    and 2 are the expansions in x of phi(s) + t/2, of ln(k*(s) s) and of
    the latter's derivative in x.  Each piece is the degree-10 least-squares
    fit at its 64 first-kind Chebyshev nodes, where the T_j are orthogonal,
    so the fit is one cosine transform of the exact path's values.  Against
    the exact path on 20 000 log-uniform s, phi is within 1.5e-14 absolute,
    k within 1e-14 relative and dk/ds within 2e-12 relative (measured:
    8.9e-15, 7.9e-15 and 5.8e-13)."""
    theta = math.pi * (np.arange(_TABLE_NODES) + 0.5) / _TABLE_NODES
    x = np.cos(theta)  # the nodes in x, where the T_j are cos(j theta)
    t = _TABLE_FROM + _TABLE_WIDTH * (np.arange(_TABLE_PIECES)[:, None] + 0.5 * (1.0 + x))
    s = np.exp(t)
    phi, k = _exact_profile(s.ravel())
    values = np.stack([phi.reshape(t.shape) + 0.5 * t, np.log(k.reshape(t.shape) * s)])
    cheb = values @ np.cos(np.outer(np.arange(_TABLE_DEGREE + 1), theta)).T * (2.0 / _TABLE_NODES)
    cheb[..., 0] *= 0.5
    slope = np.zeros_like(cheb[1])
    slope[:, :-1] = np.polynomial.chebyshev.chebder(cheb[1], axis=1)
    table = np.stack([cheb[0], cheb[1], slope]).transpose(2, 0, 1).copy()
    table.flags.writeable = False  # every caller shares the cached array
    return table


def _tabulated_profile(s, slopes):
    """``_shape_profile`` at each s in the table's range, by one Clenshaw
    pass over the series it needs.  Each element's value is its own."""
    t = np.log(s)
    w = (t - _TABLE_FROM) / _TABLE_WIDTH
    piece = np.minimum(np.maximum(np.floor(w), 0.0), _TABLE_PIECES - 1)
    c = _profile_table()[:, :3 if slopes else 1, piece.astype(np.intp)]
    x = 2.0 * (w - piece) - 1.0
    x2 = 2.0 * x
    b1, b2 = c[-1], 0.0
    for cj in c[-2:0:-1]:
        b0 = x2 * b1
        b0 -= b2
        b0 += cj
        b1, b2 = b0, b1
    value = c[0] + x * b1 - b2
    phi = value[0] - 0.5 * t
    if not slopes:
        return (phi,)
    k = np.exp(value[1]) / s
    return phi, k, k * (value[2] * (2.0 / _TABLE_WIDTH) - 1.0) / s


def _shape_profile(s, slopes=True):
    """(phi, k, dk/ds) at each s, or (phi,) alone without ``slopes``: from
    the table where e^-14 <= s <= e^9, and from the exact path
    (``_exact_profile``, with dk/ds = k / (1 - k psi'(k))) elsewhere."""
    on = (s >= _TABLE_S[0]) & (s <= _TABLE_S[1])
    if on.all():
        return _tabulated_profile(s, slopes)
    out = np.empty((3 if slopes else 1,) + s.shape)
    out[:, on] = _tabulated_profile(s[on], slopes)
    phi, k = _exact_profile(s[~on])
    out[:, ~on] = (phi, k, k / _shape_gap(k)[1]) if slopes else (phi,)
    return tuple(out)


_BLOCK = 1 << 16  # elements of p dev built at once


def _exp_blocks(dev, p):
    """Yield ((rows, cols), e, shift) over blocks of the (rows, k) array p,
    given the (rows, n) array dev: e = e^{p dev - shift} - 1 as a (rows, cols,
    n) block of at most 2^16 elements (or one row's one point), so memory
    stays O(n).  The (rows, cols) shift is p max(dev) where that exceeds 500,
    else 0, which keeps e finite far out; it is exactly the largest p dev,
    because multiplying by p > 0 is monotone under rounding."""
    n = dev.shape[1]
    cols = max(1, min(p.shape[1], _BLOCK // n))
    step = max(1, _BLOCK // (cols * n))
    top = dev.max(axis=1)
    for i in range(0, p.shape[0], step):
        rows = slice(i, i + step)
        for j in range(0, p.shape[1], cols):
            at = rows, slice(j, j + cols)
            e = p[at][..., None] * dev[rows, None, :]
            shift = p[at] * top[rows, None]
            shift = np.where(shift > 500.0, shift, 0.0)
            if shift.any():
                e -= shift[..., None]
            np.expm1(e, out=e)
            yield at, e, shift


def _log_mean_exp(dev, ln_p):
    """lme = ln mean(e^{p dev}) at each ln p of a (rows, k) array, given the
    (rows, n) deviations dev = ln x - mean(ln x).

    The gamma MLE of y = x^p then has s = ln mean(y) - mean(ln y) = lme - p
    mean(dev), and the generalized-gamma mean log-likelihood maximized over
    (a, d), less mean(ln x), is ln p + phi(s) (see ``_exact_profile``)."""
    p = np.exp(ln_p)
    lme = np.empty(p.shape)
    for at, e, shift in _exp_blocks(dev, p):
        lme[at] = shift + np.log1p(_mean(e))
    return lme


def _profile_moments(dev, ln_p):
    """``_log_mean_exp``'s lme, bit for bit, and the p-weighted moments of
    dev, from one pass over the same blocks.

    Returns (rows, k) arrays (lme, g, v): under weights w ~ e^{p dev},
    g = p (E_w[dev] - mean(dev)) and v = p^2 Var_w(dev).  With s = lme -
    p mean(dev), g and g + v are the first two derivatives of s in ln p."""
    p = np.exp(ln_p)
    mean_dev = _mean(dev)
    lme, m1, var = np.empty(p.shape), np.empty(p.shape), np.empty(p.shape)
    for at, e, shift in _exp_blocks(dev, p):
        rows = at[0]
        d, mean_d = dev[rows, None, :], mean_dev[rows, None]
        m0 = _mean(e)
        lme[at] = shift + np.log1p(m0)
        # with w = 1 + e, E_w[dev] - mean(dev) follows from sum(dev w) =
        # sum(dev) + sum(dev e), sum(dev) = n mean(dev): nothing cancels at small p
        m1[at] = mu = (_mean(d * e) - mean_d * m0) / (1.0 + m0)
        d = d - (mean_d + mu)[..., None]
        d *= d
        e += 1.0
        d *= e
        var[at] = _mean(d) / (1.0 + m0)
    return lme, p * m1, p * p * var


def _fit_gamma(rows):
    # the p = 1 column of the generalized-gamma profile, by the exact shape solve
    lx = np.log(rows)
    dev = lx - _mean(lx)[:, None]
    lme = _log_mean_exp(dev, np.zeros((rows.shape[0], 1)))[:, 0]
    phi, a = _exact_profile(lme - _mean(dev))
    failures = first_failures(
        row_failures(phi == -np.inf,
                     lambda i: DegenerateDataError("log-moment gap is non-positive")),
        row_failures(np.isnan(a), lambda i: FitError("gamma shape iteration did not converge")),
        row_failures(a > 1e10, lambda i: FitError(
            f"gamma shape estimate diverged (alpha = {float(a[i])})")),
    )
    return (a, _mean(rows) / a), failures


def _fit_laplace(rows):
    # lower median: deterministic tie-break for even n
    mid = (rows.shape[1] - 1) // 2
    u = np.partition(rows, mid, axis=1)[:, mid]
    b = _mean(np.abs(rows - u[:, None]))
    return (u, b), row_failures(
        b <= 0.0, lambda i: DegenerateDataError("zero mean absolute deviation"))


def _fit_lognormal(rows):
    u, s2 = _mean_var(np.log(rows))
    return (u, s2), row_failures(
        s2 <= 0.0, lambda i: DegenerateDataError("zero variance on the log scale"))


_GG_LN_P = np.linspace(math.log(0.05), math.log(200.0), 60)
_GG_TOL = 1e-10  # a row whose ln p step is at most this takes it and stops
_GG_MAX_STEPS = 40  # bisection alone shrinks 2 grid cells (0.281) below 1e-10 in 32


def _fit_gengamma(rows):
    """Profile likelihood in p: for fixed p, x^p ~ Gamma(d/p, a^p), so (a, d)
    follow from the gamma MLE of x^p (Prentice 1974; Noufaily & Jones 2013).
    The profile is ln p + phi(s), with s = ln mean(x^p) - p mean(ln x) and
    phi the gamma log-likelihood maximized over the shape, which the grid
    and the Newton steps read from a table (``_shape_profile``) instead of
    solving for the shape at each point.

    Every row scans the whole fixed ln p grid over [0.05, 200], so no local
    maximum away from the global one traps it; a maximum on the grid's edge is
    a FitError.  The rows then refine together by Newton's method in ln p on
    the profile's analytic score, from their best grid point, inside the two
    cells around it.  Each evaluated point shrinks a row's bracket by the sign
    of its score; a Newton step that leaves the closed bracket, or one taken
    where the profile is not concave, is replaced by the bracket's midpoint.
    A row whose step is at most 1e-10 in ln p takes it and stops, so its fit
    does not depend on the other rows.  One exact shape solve at each row's
    last point and at its best grid point then gives both log-likelihoods;
    the row keeps its last point, or its grid point if that is strictly
    higher (near the root the profile is flat to rounding, so the highest of
    the Newton points is as often an earlier, less converged one), and its
    (a, d) come from the exact shape there."""
    lx = np.log(rows)
    m = _mean(lx)
    dev = lx - m[:, None]
    mean_dev = _mean(dev)
    grid = np.broadcast_to(_GG_LN_P, (rows.shape[0], _GG_LN_P.size))
    lme = _log_mean_exp(dev, grid)
    ll = grid + _shape_profile(lme - np.exp(grid) * mean_dev[:, None], slopes=False)[0]
    best = np.argmax(ll, axis=1)
    at = np.arange(rows.shape[0]), best
    stuck = np.isnan(ll).any(axis=1)
    nowhere = ~np.isfinite(ll.max(axis=1))
    edge = (best == 0) | (best == _GG_LN_P.size - 1)
    ln_p, lme_hat = grid[at], lme[at]
    live = np.flatnonzero(~(stuck | nowhere | edge))  # rows that failed stay on the grid
    lo, hi = _GG_LN_P[best[live] - 1], _GG_LN_P[best[live] + 1]
    u = ln_p[live]
    # lme, g and v at each live row's last point: its grid point, then its Newton points
    lme_u, g, v = (col[:, 0] for col in _profile_moments(dev[live], u[:, None]))
    for _ in range(_GG_MAX_STEPS):
        phi, k, dk = _shape_profile(lme_u - np.exp(u) * mean_dev[live])
        stuck[live] |= np.isnan(phi)
        # loglik is stationary in k at k*(s), so the score is 1 - k g and the
        # curvature -(dk/ds) g^2 - k (g + v)
        score, curv = 1.0 - k * g, -dk * g * g - k * (g + v)
        lo, hi = np.where(score > 0.0, u, lo), np.where(score < 0.0, u, hi)
        newton = u - score / curv
        u_new = np.where((curv < 0.0) & (lo <= newton) & (newton <= hi), newton, 0.5 * (lo + hi))
        done = np.abs(u_new - u) <= _GG_TOL
        u = u_new
        lme_u, g, v = (col[:, 0] for col in _profile_moments(dev[live], u[:, None]))
        ln_p[live], lme_hat[live] = u, lme_u
        live, lo, hi, u, lme_u, g, v = (col[~done] for col in (live, lo, hi, u, lme_u, g, v))
        if live.size == 0:
            break
    # one exact solve at every row's last point and at its best grid point
    both_ln_p = np.stack([ln_p, grid[at]])
    phi, (k_hat, k_grid) = _exact_profile(
        np.stack([lme_hat, lme[at]]) - np.exp(both_ln_p) * mean_dev)
    ll_hat, ll_grid = both_ln_p + phi
    stuck |= np.isnan(ll_hat) | np.isnan(ll_grid)
    on_grid = ll_grid > ll_hat  # a refined row keeps its grid point only if strictly higher
    ln_p[on_grid], k_hat[on_grid], lme_hat[on_grid] = (
        col[on_grid] for col in (grid[at], k_grid, lme[at]))
    p = np.exp(ln_p)
    # only rows that pass every grid check are refined, so one list of shape
    # failures keeps the order of the checks
    failures = first_failures(
        row_failures(stuck, lambda i: FitError("gamma shape iteration did not converge")),
        row_failures(nowhere, lambda i: FitError(
            "generalized gamma profile likelihood is nowhere finite")),
        row_failures(edge, lambda i: FitError(
            f"generalized gamma fit ran to the bound p = {math.exp(_GG_LN_P[best[i]]):g}")),
    )
    return (np.exp(m + (lme_hat - np.log(k_hat)) / p), p * k_hat, p), failures


# --------------------------------------------------------------------------
# null-implied kurtosis (working scale: raw for R, ln X for R+)
# --------------------------------------------------------------------------

def _ln_gamma_kurtosis(q):
    # cumulants of ln G, G ~ Gamma(q): kappa_2 = psi'(q), kappa_4 = psi'''(q)
    kappa2, kappa4 = _log_gamma_cumulants(q)
    return 3.0 + kappa4 / kappa2 ** 2


def _kurt_normal(theta):
    return 3.0


def _kurt_laplace(theta):
    return 6.0


def _kurt_exponential(theta):
    return _ln_gamma_kurtosis(1.0)


def _kurt_gamma(theta):
    return _ln_gamma_kurtosis(theta[0])


def _kurt_lognormal(theta):
    return 3.0


def _kurt_gengamma(theta):
    # ln X = ln a + (1/p) ln G with G ~ Gamma(d/p); scaling cancels in kurtosis
    _, d, p = theta
    return _ln_gamma_kurtosis(d / p)


# --------------------------------------------------------------------------
# analytic (mean, variance); NaN where undefined
# --------------------------------------------------------------------------

def _moments_normal(th):
    return th[0], th[1]


def _moments_exponential(th):
    return th[0], th[0] ** 2


def _moments_gamma(th):
    return th[0] * th[1], th[0] * th[1] ** 2


def _moments_laplace(th):
    return th[0], 2.0 * th[1] ** 2


def _moments_lognormal(th):
    u, s2 = th
    m = math.exp(u + s2 / 2.0)
    return m, (math.exp(s2) - 1.0) * math.exp(2.0 * u + s2)


def _moments_gengamma(th):
    a, d, p = th
    lg = math.lgamma(d / p)
    m1 = a * math.exp(math.lgamma((d + 1.0) / p) - lg)
    m2 = a * a * math.exp(math.lgamma((d + 2.0) / p) - lg)
    return m1, m2 - m1 * m1


def _moments_logistic(th):
    return th[0], th[1] ** 2 * math.pi ** 2 / 3.0


def _moments_cauchy(th):
    return float("nan"), float("nan")


def _moments_scaled_t(th):
    df, s = th
    return 0.0, s * s * df / (df - 2.0) if df > 2.0 else float("inf")


def _moments_rayleigh(th):
    sig = th[0]
    return sig * math.sqrt(math.pi / 2.0), (4.0 - math.pi) / 2.0 * sig * sig


def _moments_loglogistic(th):
    shape, scale = th
    c = math.pi / shape
    mean = scale * c / math.sin(c) if shape > 1.0 else float("inf")
    if shape <= 2.0:
        return mean, float("inf")
    m2 = scale * scale * 2.0 * c / math.sin(2.0 * c)
    return mean, m2 - mean * mean


def _moments_lomax(th):
    a, lam = th
    mean = lam / (a - 1.0) if a > 1.0 else float("inf")
    var = lam * lam * a / ((a - 1.0) ** 2 * (a - 2.0)) if a > 2.0 else float("inf")
    return mean, var


def _moments_weibull(th):
    k, lam = th
    g1 = math.exp(math.lgamma(1.0 + 1.0 / k))
    g2 = math.exp(math.lgamma(1.0 + 2.0 / k))
    return lam * g1, lam * lam * (g2 - g1 * g1)


def _moments_invgaussian(th):
    mu, lam = th
    return mu, mu ** 3 / lam


# --------------------------------------------------------------------------
# entropy-estimator bias diagnostics (see entropy.ml_entropy_bias and
# entropy.kde_smoothing_bias)
# --------------------------------------------------------------------------

def _ml_bias_normal(theta, n):
    # psi((n-1)/2) - ln(n/2) = ln((n-1)/n) - (ln k - psi(k)) at k = (n-1)/2
    return 0.5 * (math.log1p(-1.0 / n) - float(_gap((n - 1) / 2.0)))


def _ml_bias_exponential(theta, n):
    # Exact: E[ln x̄] - ln θ = ψ(n) - ln n = -1/(2n) + O(n^-2).
    return -1.0 / (2.0 * n)


def _ml_bias_gamma(theta, n):
    a = theta[0]
    return (1.0 / (2.0 * n * a)
            + (1.0 - a) / (2.0 * n) * (1.0 - (a - 1.0) * float(_log_gamma_cumulants(a)[0])))


def _ml_bias_laplace(theta, n):
    return -1.0 / (2.0 * n)


# Smoothing terms (h²/2) J, with J the location Fisher information of the
# null on its working scale (ln-scale for the positive-support families).

def _smooth_bias_normal(theta, h):
    return h * h / (2.0 * theta[1])


def _smooth_bias_exponential(theta, h):
    # ln-space: the score 1 - e^y/θ has variance 1 under g
    return h * h / 2.0


def _smooth_bias_gamma(theta, h):
    # ln-space: the score a - e^y/b has variance a under g
    return h * h / 2.0 * theta[0]


def _smooth_bias_laplace(theta, h):
    b = theta[1]
    return h * h / (2.0 * b * b)


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

FAMILIES: dict[FamilyId, Family] = {}


def _register(fam: Family):
    FAMILIES[fam.family_id] = fam


_register(Family(FamilyId.NORMAL, ("u", "sigma2"), Support.REAL,
                 positive=("sigma2",),
                 log_pdf=_logpdf_normal, entropy=_entropy_normal,
                 sampler=_sample_normal, fit=_fit_normal, kurtosis=_kurt_normal,
                 moments=_moments_normal, ml_bias=_ml_bias_normal,
                 kde_smoothing=_smooth_bias_normal))
_register(Family(FamilyId.EXPONENTIAL, ("theta",), Support.POSITIVE,
                 positive=("theta",),
                 log_pdf=_logpdf_exponential, entropy=_entropy_exponential,
                 sampler=_sample_exponential, fit=_fit_exponential,
                 kurtosis=_kurt_exponential, moments=_moments_exponential,
                 ml_bias=_ml_bias_exponential, kde_smoothing=_smooth_bias_exponential))
_register(Family(FamilyId.GAMMA, ("alpha", "beta"), Support.POSITIVE,
                 positive=("alpha", "beta"),
                 log_pdf=_logpdf_gamma, entropy=_entropy_gamma,
                 sampler=_sample_gamma, fit=_fit_gamma, kurtosis=_kurt_gamma,
                 moments=_moments_gamma, ml_bias=_ml_bias_gamma,
                 kde_smoothing=_smooth_bias_gamma))
_register(Family(FamilyId.LAPLACE, ("u", "b"), Support.REAL,
                 positive=("b",),
                 log_pdf=_logpdf_laplace, entropy=_entropy_laplace,
                 sampler=_sample_laplace, fit=_fit_laplace, kurtosis=_kurt_laplace,
                 moments=_moments_laplace, ml_bias=_ml_bias_laplace,
                 kde_smoothing=_smooth_bias_laplace))
_register(Family(FamilyId.LOGNORMAL, ("u", "sigma2"), Support.POSITIVE,
                 positive=("sigma2",),
                 log_pdf=_logpdf_lognormal, entropy=_entropy_lognormal,
                 sampler=_sample_lognormal, fit=_fit_lognormal, kurtosis=_kurt_lognormal,
                 moments=_moments_lognormal))
_register(Family(FamilyId.GENGAMMA, ("a", "d", "p"), Support.POSITIVE,
                 positive=("a", "d", "p"),
                 log_pdf=_logpdf_gengamma, entropy=_entropy_gengamma,
                 sampler=_sample_gengamma, fit=_fit_gengamma, kurtosis=_kurt_gengamma,
                 moments=_moments_gengamma))

_register(Family(FamilyId.LOGISTIC, ("u", "s"), Support.REAL,
                 positive=("s",),
                 log_pdf=_logpdf_logistic, entropy=_entropy_logistic,
                 sampler=_sample_logistic, moments=_moments_logistic))
_register(Family(FamilyId.CAUCHY, ("x0", "gamma"), Support.REAL,
                 positive=("gamma",),
                 log_pdf=_logpdf_cauchy, entropy=_entropy_cauchy,
                 sampler=_sample_cauchy, moments=_moments_cauchy))
_register(Family(FamilyId.SCALED_T, ("df", "scale"), Support.REAL,
                 positive=("df", "scale"),
                 log_pdf=_logpdf_scaled_t, sampler=_sample_scaled_t,
                 moments=_moments_scaled_t))
_register(Family(FamilyId.RAYLEIGH, ("sigma",), Support.POSITIVE,
                 positive=("sigma",),
                 log_pdf=_logpdf_rayleigh, entropy=_entropy_rayleigh,
                 sampler=_sample_rayleigh, moments=_moments_rayleigh))
_register(Family(FamilyId.LOGLOGISTIC, ("shape", "scale"), Support.POSITIVE,
                 positive=("shape", "scale"),
                 log_pdf=_logpdf_loglogistic, sampler=_sample_loglogistic,
                 moments=_moments_loglogistic))
_register(Family(FamilyId.LOMAX, ("shape", "scale"), Support.POSITIVE,
                 positive=("shape", "scale"),
                 log_pdf=_logpdf_lomax, sampler=_sample_lomax, moments=_moments_lomax))
_register(Family(FamilyId.WEIBULL, ("k", "lam"), Support.POSITIVE,
                 positive=("k", "lam"),
                 log_pdf=_logpdf_weibull, entropy=_entropy_weibull,
                 sampler=_sample_weibull, moments=_moments_weibull))
_register(Family(FamilyId.INV_GAUSSIAN, ("mu", "lam"), Support.POSITIVE,
                 positive=("mu", "lam"),
                 log_pdf=_logpdf_invgaussian, sampler=_sample_invgaussian,
                 moments=_moments_invgaussian))

TESTABLE_NULLS = tuple(f for f, fam in FAMILIES.items() if fam.testable)


def get_family(family: FamilyId | str) -> Family:
    fid = FamilyId(family)
    return FAMILIES[fid]


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------

def log_pdf(model: FittedModel, x):
    """ln f(x; theta); -inf outside the family's support.

    A float for a scalar x, else an array of x's shape: the family's
    ``log_pdf`` takes and returns arrays.
    """
    out = get_family(model.family).log_pdf(model.theta, np.asarray(x, dtype=float))
    return float(out) if np.ndim(out) == 0 else out


def _data_failures(fam: Family, rows: np.ndarray) -> RowFailures:
    """Rows that are not finite, leave the family's support or do not vary."""
    lo, hi = rows.min(axis=1), rows.max(axis=1)
    failures = row_failures(~np.isfinite(rows).all(axis=1),
                            lambda i: DataError("sample contains non-finite values"))
    if fam.support is Support.POSITIVE:
        failures = first_failures(failures, row_failures(lo <= 0.0, lambda i: SupportError(
            f"{fam.family_id.value} has positive support; sample contains a "
            f"value <= 0 (min = {lo[i]})"
        )))
    return first_failures(failures, row_failures(
        lo == hi, lambda i: DegenerateDataError("all observations are identical")))


def _parameter_failures(fam: Family, theta) -> RowFailures:
    """Rows whose fitted parameters are not finite or not in range: a failed
    fit, not a caller's mistake, so a FitError raised from the
    InvalidParameterError of the model."""
    bad = np.zeros(np.shape(theta[0]), dtype=bool)
    for name, col in zip(fam.param_names, theta):
        bad |= ~np.isfinite(col)
        if name in fam.positive:
            bad |= col <= 0.0
    failures: RowFailures = {}
    for i in np.flatnonzero(bad):
        try:
            FittedModel(fam.family_id, tuple(col[i] for col in theta))
        except InvalidParameterError as exc:
            err = FitError(f"{fam.family_id.value} fit gave invalid parameters: {exc}")
            err.__cause__ = exc
            failures[int(i)] = err
    return failures


def _fit_rows(family: FamilyId | str, rows: np.ndarray) -> tuple[tuple, RowFailures]:
    """Maximum-likelihood fit of each row of a (rows, n) array.

    Returns the parameter columns, one array per parameter, and the failures:
    for each row that cannot be fit, the typed error ``fit_mle`` raises on
    that row alone.  A failed row's parameters are meaningless.
    """
    fam = get_family(family)
    if not fam.testable:
        raise FitError(f"{fam.family_id.value} is not a testable null (sampler-only)")
    if rows.shape[1] < fam.min_fit_size:
        raise DataError(
            f"{fam.family_id.value} fit needs at least {fam.min_fit_size} "
            f"observations, got {rows.shape[1]}"
        )
    failures = _data_failures(fam, rows)
    with np.errstate(divide="ignore", invalid="ignore"):  # rows failed above fit to garbage
        theta, fit_failures = fam.fit(rows)
    return theta, first_failures(failures, fit_failures, _parameter_failures(fam, theta))


def fit_mle(family: FamilyId | str, data) -> FittedModel:
    """Fit the family by maximum likelihood (closed forms where they exist).

    The one-row call of ``_fit_rows``.  A fit that yields non-finite or
    out-of-range parameters raises FitError.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 1:
        raise DataError("expected a one-dimensional sample")
    theta, failures = _fit_rows(family, data[None, :])
    raise_row_failure(failures)
    return FittedModel(family, tuple(float(col[0]) for col in theta), n_fit=int(data.size))


def sample(model: FittedModel, n: int, stream: np.random.Generator) -> np.ndarray:
    """n iid draws from the model; reproducible given the stream."""
    if n < 1:
        raise InvalidParameterError(f"sample size must be >= 1, got {n}")
    fam = get_family(model.family)
    return np.asarray(fam.sampler(model.theta, int(n), stream), dtype=float)


def closed_form_entropy(model: FittedModel) -> float:
    """Differential entropy (nats) from the maximum-entropy catalog row."""
    fam = get_family(model.family)
    if fam.entropy is None:
        raise InvalidParameterError(
            f"{fam.family_id.value} has no closed-form entropy in the catalog"
        )
    return float(fam.entropy(model.theta))


def null_kurtosis(model: FittedModel) -> float:
    """Null-implied kurtosis on the scale the KDE smooths (ln X on R+)."""
    fam = get_family(model.family)
    if fam.kurtosis is None:
        raise InvalidParameterError(
            f"{fam.family_id.value} has no null-implied kurtosis (not a testable null)"
        )
    return float(fam.kurtosis(model.theta))
