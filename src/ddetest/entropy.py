"""Differential entropy estimators and their small-sample bias diagnostics.

Two estimators of -∫ f ln f dx (nats):

* ``de_ml`` — the parametric plug-in at the fitted parameters: the
  family's closed form.  ``_de_ml_quadrature`` integrates the model's own
  density instead; it is the oracle the tests cross-check the closed forms
  against.
* ``de_kde`` — the Gaussian-kernel plug-in.  Real-supported data are
  smoothed on the raw scale; positive-supported data are smoothed in
  ln-space and the raw-scale entropy recovered as DE(g) + mean(ln x),
  which is exact by change of variables.  The integral -∫_R f̂ ln f̂ is a
  fixed rule, not an adaptive one: 10-point Gauss–Legendre on ⌈W/2h⌉
  equal panels of R (``_kde_entropy_rows``), within 1e-9 of the adaptive
  integral at tol 1e-12 on the testable nulls.  ``_kde_entropy`` is the
  one KDE tail, for the rows of a (rows, n) working-scale array: the range
  rule, the fixed rule and the ln-space shift.  ``de_kde`` is its one-row
  call; the bootstrap calls it once per group of replicates.

The bias formulas (``ml_entropy_bias``, ``kde_smoothing_bias``) are
diagnostics only: the bootstrap calibration reproduces both biases on its
own, so they are never added into test statistics.  ``kde_smoothing_bias``
describes the integral estimator ``de_kde`` computes, -∫_R f̂ ln f̂ over a
range R of width W:

    E[DE_KDE] - DE ≈ (h²/2) J - W / (4√π n h) + 1/(2n),

where J is the location Fisher information of the null on the working
scale.  The first term is the entropy gain from smoothing f into f∗φ_h (de
Bruijn's identity); the others are -½∫_R Var f̂ / f_h.  This is a
first-order form: for non-normal nulls it overstates the bias at n in the
hundreds, as the ML forms understate theirs.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import xlogy

from .bandwidth import BandwidthSpec
from .errors import InvalidParameterError, QuadratureError, SupportError
from .families import FamilyId, FittedModel, Support, closed_form_entropy, get_family, log_pdf
from .quadrature import (
    RANGE_BANDWIDTH_MULTIPLE, IntegrationRange, Scale, entropy_range, integrate, range_bounds,
)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# ∫ K^2 for the standard normal kernel = 1/(2 sqrt(pi))
_KERNEL_L2 = 1.0 / (2.0 * math.sqrt(math.pi))

DEFAULT_TOL = 1e-8


# --------------------------------------------------------------------------
# parametric plug-in
# --------------------------------------------------------------------------

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


def de_ml(fitted: FittedModel) -> float:
    """Plug-in entropy at the fitted parameters, from the family's closed form.

    The one-row call of the family's ``entropy``, which the bootstrap takes
    over the parameter columns of a group of replicates.
    """
    return closed_form_entropy(fitted)


# --------------------------------------------------------------------------
# kernel plug-in
# --------------------------------------------------------------------------

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
    out = np.exp(-0.5 * z * z).sum(axis=1) / (data.size * h * _SQRT_2PI)
    return float(out[0]) if scalar else out.reshape(np.shape(x))


# The KDE entropy rule: 10-point Gauss–Legendre nodes and weights on
# [-1, 1], on panels at most _PANEL_BANDWIDTHS bandwidths wide.  Against the
# adaptive integrator at tol 1e-12 its error stayed below 1e-9 on the
# testable nulls at n = 50..500; 8 nodes per 2h reached 1.4e-8 and 10 nodes
# per 4h 1.4e-6.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)
_PANEL_BANDWIDTHS = 2.0
# cap on the (nodes, n) kernel block, and on the rows a caller batches
KDE_BLOCK_BYTES = 1 << 20


def _kde_entropy_rows(work: np.ndarray, h: np.ndarray, lower: np.ndarray,
                      upper: np.ndarray) -> np.ndarray:
    """-∫ f̂_r ln f̂_r over [lower_r, upper_r] for each row r of ``work``.

    ``work`` is a (rows, n) array of working-scale samples and f̂_r the
    Gaussian KDE of row r with bandwidth h[r].  Each range is cut into
    ⌈W/2h⌉ equal panels, each integrated by the 10-point Gauss–Legendre
    rule; the (node, observation) kernel matrix is built in place, in
    blocks of at most ``KDE_BLOCK_BYTES``.  Every reduction runs along one
    row or one panel (no BLAS), so a row's value is bit-identical whether it
    is evaluated alone or with any other rows.
    """
    rows, n = work.shape
    width = upper - lower
    panels = np.ceil(width / (_PANEL_BANDWIDTHS * h)).astype(np.intp)
    half = width / (2.0 * panels)
    panel_row = np.repeat(np.arange(rows), panels)
    panel_half = half[panel_row]
    first = np.cumsum(panels) - panels
    centre = lower[panel_row] + (2.0 * (np.arange(panel_row.size) - first[panel_row]) + 1.0) \
        * panel_half
    # nodes and samples in units of their row's bandwidth
    node_row = np.repeat(panel_row, _GL_NODES.size)
    nodes = (centre[:, None] + panel_half[:, None] * _GL_NODES).ravel() / h[node_row]
    scaled = work / h[:, None]

    density = np.empty(nodes.size)
    block = max(1, KDE_BLOCK_BYTES // (8 * n))
    z = np.empty((min(block, nodes.size), n))
    for start in range(0, nodes.size, block):
        stop = min(start + block, nodes.size)
        zb = z[:stop - start]
        np.take(scaled, node_row[start:stop], axis=0, out=zb)
        zb -= nodes[start:stop, None]
        zb *= zb
        zb *= -0.5
        np.exp(zb, out=zb)
        zb.sum(axis=1, out=density[start:stop])
    density *= (1.0 / (n * _SQRT_2PI * h))[node_row]
    integrand = -xlogy(density, density).reshape(-1, _GL_NODES.size)
    panel_value = (integrand * _GL_WEIGHTS).sum(axis=1) * panel_half
    values = np.bincount(panel_row, weights=panel_value, minlength=rows)
    if not np.all(np.isfinite(values)):
        raise QuadratureError(
            "KDE entropy integrand is not finite inside the range",
            value=float("nan"), error_estimate=float("inf"),
        )
    return values


def _kde_entropy(working: np.ndarray, h: np.ndarray, support: Support,
                 m: float = RANGE_BANDWIDTH_MULTIPLE) -> np.ndarray:
    """DE_KDE of each row of a (rows, n) working-scale array, row r smoothed
    with bandwidth h[r]: the range rule (``range_bounds`` at multiple m), the
    fixed rule (``_kde_entropy_rows``) and, on positive support, the ln-space
    shift mean(ln x).  Nothing checks the rows: each must be finite and vary.
    """
    lower, upper = range_bounds(working, h, m)
    values = _kde_entropy_rows(working, h, lower, upper)
    return values + working.mean(axis=1) if support is Support.POSITIVE else values


def de_kde(
    data,
    bw: BandwidthSpec,
    support: Support,
    *,
    range_multiple: float | None = None,
) -> float:
    """Kernel plug-in entropy over the quantile-based integration range.

    On positive support the kernel smooths y = ln(x) and the estimate is
    -∫ g ln g dy + mean(y).  The one-row call of ``_kde_entropy``, after
    the checks of the bandwidth's scale and those of ``entropy_range``.
    ``range_multiple`` overrides the default bandwidth multiple of the
    integration-range rule (tail-sensitivity studies; the ln-space identity
    is exact only as the range widens, since the mean term integrates the
    kernel tails in full).
    """
    data = np.asarray(data, dtype=float)
    if support is Support.POSITIVE:
        if bw.scale is not Scale.LN:
            raise InvalidParameterError("positive-support KDE requires an ln-scale bandwidth")
        if np.min(data) <= 0.0:
            raise SupportError("positive-support KDE requires strictly positive data")
    elif bw.scale is not Scale.RAW:
        raise InvalidParameterError("real-support KDE requires a raw-scale bandwidth")
    m = RANGE_BANDWIDTH_MULTIPLE if range_multiple is None else range_multiple
    entropy_range(data, bw.h, support, m=m)  # its checks of the data and bandwidth
    working = np.log(data) if support is Support.POSITIVE else data
    return float(_kde_entropy(working[None, :], np.array([bw.h]), support, m)[0])


# --------------------------------------------------------------------------
# bias diagnostics
# --------------------------------------------------------------------------

def ml_entropy_bias(family: FamilyId | str, fitted: FittedModel, n: int) -> float:
    """O(1/n) bias of the plug-in entropy under the named null.

    Normal uses the exact digamma form ½[ψ((n-1)/2) - ln(n/2)]; Exponential
    and Laplace are -1/(2n); Gamma depends on the fitted shape.  The Laplace
    and Gamma forms assume parameter-unbiased MLEs and understate the
    empirical bias of the median/shape estimates; they are reported as
    first-order diagnostics, never applied to statistics.
    """
    fam = get_family(family)
    if fam.ml_bias is None:
        raise InvalidParameterError(f"no ML-entropy bias form for {fam.family_id.value}")
    if n < 2:
        raise InvalidParameterError("bias diagnostics need n >= 2")
    return float(fam.ml_bias(fitted.theta, n))


def kde_smoothing_bias(
    family: FamilyId | str, fitted: FittedModel, h: float, n: int, width: float
) -> float:
    """Leading-order bias of ``de_kde``, the integral plug-in -∫_R f̂ ln f̂.

    Returns (h²/2) J - W/(4√π n h) + 1/(2n).  J is the location Fisher
    information of the named null on the working scale (1/σ² normal, 1
    ln-exponential, a ln-gamma, 1/b² Laplace), so (h²/2) J is the entropy
    gained by smoothing with the Gaussian kernel.  The last two terms are
    -½∫_R Var f̂ / f_h with Var f̂ ≈ (f_h ∫K²/h - f_h²)/n.  ``width`` is the
    width W of the range R that ``de_kde`` integrates over,
    ``entropy_range(data, h, support).width``.

    The expansion is first-order: for non-normal nulls it overstates the
    bias at n in the hundreds.  At n = 100 with h = 1.06 ŝ n^-1/5 on the
    working scale (2000 replicates, SE about 0.002), it gives +0.119
    against a Monte Carlo +0.096 for the exponential, +0.078 against
    +0.073 for gamma(3), and +0.147 against +0.090 for Laplace(b=½).
    """
    fam = get_family(family)
    if fam.kde_smoothing is None:
        raise InvalidParameterError(f"no KDE smoothing-bias form for {fam.family_id.value}")
    if h <= 0.0:
        raise InvalidParameterError(f"bandwidth must be > 0, got {h}")
    smoothing = fam.kde_smoothing(fitted.theta, h)
    variance = -_KERNEL_L2 * width / (2.0 * n * h) + 1.0 / (2.0 * n)
    return float(smoothing + variance)
