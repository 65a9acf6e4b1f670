"""Differential entropy estimators and their small-sample bias diagnostics.

Two estimators of -∫ f ln f dx (nats):

* DE_ML — the parametric plug-in at the fitted parameters: the family's
  closed form (``families.closed_form_entropy``).
* ``de_kde`` — the Gaussian-kernel plug-in.  Real-supported data are
  smoothed on the raw scale; positive-supported data are smoothed in
  ln-space and the raw-scale entropy recovered as DE(g) + mean(ln x),
  which is exact by change of variables.  The integral -∫_R f̂ ln f̂ is a
  fixed rule, not an adaptive one: 10-point Gauss–Legendre on ⌈W/2h⌉
  equal panels of R (``_kde_entropy_rows``), within 1e-9 of the adaptive
  integral at tol 1e-12 on the testable nulls.  A node's kernel sum takes
  at least the samples within C = 9 bandwidths of its panel (each one
  farther out adds less than e^(-C²/2) ≈ 2.6e-18).  Blocks of panels own
  samples: each sample enters the block of panels it falls in, whose
  slots reach C bandwidths past it on each side, and by an exact
  factoring of the kernel a sample's exps are shared by all the block's
  nodes (16 home panels per block, 4 above n = 2000, and a row of at most
  16 or 8 panels is one block).
  ``_kde_entropy`` is the one KDE tail, for the rows of a (rows, n)
  working-scale array: one sort of each row, the range rule
  (``quadrature.range_bounds``) read from the sorted rows, the fixed rule
  and the ln-space shift.  ``de_kde`` is its one-row call, with
  the checks of one sample; a test calls it once on the data and once per
  group of bootstrap replicates.

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

from .bandwidth import BandwidthSpec
from .errors import (
    DataError, DegenerateDataError, InvalidParameterError, QuadratureError, SupportError,
)
from .families import FittedModel, Support, get_family
from .quadrature import Scale, range_bounds

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# ∫ K^2 for the standard normal kernel = 1/(2 sqrt(pi))
_KERNEL_L2 = 1.0 / (2.0 * math.sqrt(math.pi))


# --------------------------------------------------------------------------
# kernel plug-in
# --------------------------------------------------------------------------

# The KDE entropy rule: 10-point Gauss–Legendre nodes and weights on
# [-1, 1], on panels at most _PANEL_BANDWIDTHS bandwidths wide.  Against an
# adaptive integral at tol 1e-12 its error stayed below 1e-9 on the
# testable nulls at n = 50..500; 8 nodes per 2h reached 1.4e-8 and 10 nodes
# per 4h 1.4e-6.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)
_PANEL_BANDWIDTHS = 2.0
# A node's kernel sum takes the samples within _CUTOFF_BANDWIDTHS bandwidths
# of its panel: a sample farther out adds a term below e^-40.5 ≈ 2.6e-18.
_CUTOFF_BANDWIDTHS = 9.0
# A block's home samples, when fewer than a chunk, are padded up to
# ⌈2^(i/4)⌉, from 16, so that the blocks of a call fall into few shapes.
_BLOCK_LENGTHS = np.unique(np.ceil(2.0 ** (np.arange(16, 4 * 48) / 4.0))).astype(np.intp)
# At n ≤ 2000 and above: S, the slots of a row that is one block, and H,
# the home panels of each block of a longer row
_KDE_BLOCK_PANELS, _KDE_HOME_PANELS = (16, 8), (16, 4)
# samples per chunk, clip on x - c_r
_KDE_CHUNK, _KDE_CLIP_BANDWIDTHS = 4096, 60.0
# -(2 o t_k + t_k²/2), t_k node k, per slot offset o = j - r in [-24, 24]
# (the blocks' offsets lie in [-14, 19])
_KDE_SHIFTS = -2.0 * np.arange(-24, 25)[:, None] * _GL_NODES - 0.5 * _GL_NODES**2
# cap on the kernel block, and on the rows a caller batches
KDE_BLOCK_BYTES = 1 << 20
# the ufunc buffer, in elements, while the kernel runs: numpy copies the
# operands of a broadcast through this buffer when the broadcast's inner
# loop is shorter than a third of it, and at the default 8192 that made the
# kernel's G and E broadcasts 3 to 4 times slower per value (numpy 2.4)
_KDE_UFUNC_BUFFER = 128


def _kde_entropy_rows(work: np.ndarray, h: np.ndarray, lower: np.ndarray,
                      upper: np.ndarray) -> np.ndarray:
    """-∫ f̂_r ln f̂_r over [lower_r, upper_r] for each row r of ``work``.

    ``work`` is a (rows, n) array of working-scale samples, each row sorted
    ascending, and f̂_r the Gaussian KDE of row r with bandwidth h[r].  The
    rows are only divided by h > 0, which keeps them sorted: sorted(x)/h is
    bitwise sorted(x/h).  Each range is cut into ⌈W/2h⌉ equal panels, each
    integrated by the 10-point Gauss–Legendre rule.  In bandwidth units node
    k of panel j sits at c_j + δ_k.

    Blocks own samples.  A row of at most S = 16 panels (8 at n > 2000) is
    one block, whose S slots are its panels.  A longer row is cut into
    blocks of H = 16 home panels (4 at n > 2000); a block's slots are its
    home panels and the k = ⌈C / width⌉ panels, C = 9 bandwidths, past them
    on each side, clipped to the row.  A block's home samples are the sorted
    row's samples binned into its home panels (samples outside the range
    count in the edge panels), found by one ``searchsorted`` of the block
    edges: each sample is in one block, and meets every node within C
    bandwidths of its panel.  With r the block's middle panel,
    e^(-(c_j + δ_k - x)²/2) = G_j(x) E_k(x) e^(-δ_k (c_j - c_r) - δ_k²/2)
    exactly, for G_j = e^(-(c_j - x)²/2) and E_k = e^(-δ_k (c_r - x)).  So a
    block's node sums are one (slots, L) @ (L, 10) product G E over its L
    home samples, times the last factor: slots + 10 exps per sample.  The
    products are added into the row's panels in block order.  Both factors
    take x - c_r clipped to ±60, so E cannot overflow; |c_j - c_r| < 27, so
    a sample that far out adds below e^-512 to any node (exactly 0 in a
    one-block row, where |c_j - c_r| ≤ 16).

    Fewer home samples than a chunk are padded up the ladder ⌈2^(i/4)⌉ ≥ 16
    (capped at the chunk); the padding reads the samples that follow, and
    its E is set to 0, so its terms are 0.  Blocks of one slot count and
    padded length are stacked, their samples cut into chunks of _KDE_CHUNK
    whose products are added in order, in one scratch buffer of
    ``KDE_BLOCK_BYTES`` (or one block's chunk, or one row, if larger).  A
    product's rounding depends on its shape only, and each shape, block and
    order of sums on its row only, so a row's value is bit-identical alone
    or with any other rows, under any buffer size and BLAS threads.  The
    kernel runs with a ufunc buffer of _KDE_UFUNC_BUFFER elements (restored
    on return), which changes the speed of its broadcasts but no value.

    Each sample a node does not meet adds below e^(-C²/2) to its kernel
    sum, so g = h f̂ falls short by at most η = e^(-C²/2)/√(2π) ≈ 1.0e-18,
    and ∫ (-g ln g + g ln h) du over W/h bandwidths moves by at most (W/h) η
    (ln(1/η) + |ln h|): 4.3e-17 W/h at h near 1, 2.2e-15 at n = 20 000.
    With the rounding of the factors and the sums, the value is within
    (W/h) (η (ln(1/η) + |ln h|) + ε) of the full kernel sum, ε = 2^-52.
    """
    rows, n = work.shape
    if rows == 0:
        return np.zeros(0)
    with np.errstate():  # restores the ufunc buffer size on return
        np.setbufsize(_KDE_UFUNC_BUFFER)
        nodes, large = _GL_NODES.size, n > 2000
        slots, home = _KDE_BLOCK_PANELS[large], _KDE_HOME_PANELS[large]
        width = upper - lower
        panels = np.ceil(width / (_PANEL_BANDWIDTHS * h)).astype(np.intp)
        half = width / (2.0 * panels)
        first, half_h = panels.cumsum() - panels, half / h
        per_h = 0.5 / half_h  # panels per bandwidth
        one = panels <= slots
        size = np.where(one, slots, home)  # home panels per block
        # per block: its row, home panels, reach k, first home panel, middle
        # panel r and slots, the first at panel low
        blocks = -(-panels // size)
        block_row, block_end = np.arange(rows).repeat(blocks), blocks.cumsum()
        reach = np.ceil(_CUTOFF_BANDWIDTHS * per_h).astype(np.intp)[block_row]
        size = size[block_row]
        local = (np.arange(block_row.size) - (block_end - blocks)[block_row]) * size
        anchor, low = local + size // 2, np.maximum(local - reach, 0)
        count = np.minimum(local + size + reach, np.maximum(panels, slots)[block_row]) - low
        most = int(count.max())
        offset = (low - anchor)[:, None] + np.arange(most)  # o = j - r of slot t, j = low + t

        # the samples in bandwidths, x / h, are formed where they are read
        if not np.isfinite(work[:, ::max(n - 1, 1)] / h[:, None]).all():  # first and last
            raise QuadratureError("KDE entropy integrand is not finite inside the range")
        chunk = min(_KDE_CHUNK, n)
        unit = chunk * (most + nodes + 1) + most * nodes  # one block's chunk scratch
        buf = np.empty(max(n, unit * max(1, min(KDE_BLOCK_BYTES // (8 * unit), block_row.size))))

        # a block's home samples start at the first sample binned into its
        # first home panel; the bins ascend along each pass's rows
        origin, start = lower / h, first[block_row] + local
        for a in range(0, rows, buf.size // n):
            b = min(a + buf.size // n, rows)
            bins = buf[:(b - a) * n].reshape(b - a, n)
            np.divide(work[a:b], h[a:b, None], out=bins)
            bins -= origin[a:b, None]
            bins *= per_h[a:b, None]
            np.maximum(bins, 0.0, out=bins)
            np.minimum(bins, panels[a:b, None] - 1, out=bins)
            bins += (first[a:b] - first[a])[:, None]
            these = slice(block_end[a] - blocks[a], block_end[b - 1])
            start[these] = a * n + bins.ravel().searchsorted(start[these] - first[a])
        stop = np.concatenate((start[1:], [rows * n]))
        length = stop - start
        padded = np.where(length < chunk, np.minimum(
            _BLOCK_LENGTHS[_BLOCK_LENGTHS.searchsorted(length)], chunk), length)

        # in bandwidths: block centres c_r, slot offsets c_j - c_r = 2 o half/h and δ_k
        scale = half_h[block_row, None, None]
        ref = (lower[block_row] + (2.0 * anchor + 1.0) * half[block_row]) / h[block_row]
        rel, delta = scale * (2.0 * offset[:, :, None]), scale * _GL_NODES[:, None]
        flat, density = work.ravel(), np.zeros((block_row.size, most, nodes))  # the sums G E
        # blocks of one shape, (slots, padded length), are stacked; one
        # without home samples adds nothing
        shape = np.where(length > 0, count * (n + 1) + padded, -1)
        short = length < padded
        for key in sorted(set(shape.tolist()) - {-1}):
            group, (s, span) = (shape == key).nonzero()[0], divmod(key, n + 1)
            fit = buf.size // (min(chunk, span) * (s + nodes + 1) + s * nodes)
            pad = short[group].any()
            for g0 in range(0, group.size, fit):
                pick = group[g0:g0 + fit]
                m, c, r, d = pick.size, rel[pick, :s], ref[pick, None], delta[pick]
                h_pick = h[block_row[pick], None]
                begin, past = start[pick, None], stop[pick, None, None]
                for c0 in range(0, span, chunk):
                    k = min(chunk, span - c0)
                    x = buf[:m * k].reshape(m, k)
                    g = buf[m * k:m * k * (s + 1)].reshape(m, s, k)
                    ex = buf[m * k * (s + 1):m * k * (s + nodes + 1)].reshape(m, nodes, k)
                    at = begin + np.arange(c0, c0 + k)
                    flat.take(at, out=x, mode="clip")
                    np.divide(x, h_pick, out=x)
                    np.subtract(x, r, out=x)
                    np.maximum(x, -_KDE_CLIP_BANDWIDTHS, out=x)
                    np.minimum(x, _KDE_CLIP_BANDWIDTHS, out=x)
                    np.subtract(c, x[:, None, :], out=g)  # G
                    g *= g
                    g *= -0.5
                    np.exp(g, out=g)
                    np.multiply(d, x[:, None, :], out=ex)  # E
                    np.exp(ex, out=ex)
                    if pad:  # the padding's E, and so its terms, are 0
                        np.copyto(ex, 0.0, where=at[:, None, :] >= past)
                    part = buf[-m * s * nodes:].reshape(m, s, nodes)
                    density[pick, :s] += np.matmul(g, ex.transpose(0, 2, 1), out=part)
        # times e^(-δ_k (c_j - c_r) - δ_k²/2) and the kernel's 1/(n √(2π) h)
        factor = np.exp(scale ** 2 * _KDE_SHIFTS[offset + 24])
        density *= factor * (1.0 / (n * _SQRT_2PI * h))[block_row, None, None]
        # a row's panels, in groups of S: a one-block row's are its slots; a
        # longer row's blocks add their slots into its panels in block order
        groups = -(-panels // slots)
        group_row, group_first = np.arange(rows).repeat(groups), groups.cumsum() - groups
        if not one.all():
            live = np.arange(most) < count[:, None]
            entry = (slots * group_first[block_row] + low)[:, None] + np.arange(most)
            sums, density = density[live], np.zeros((group_row.size, slots, nodes))
            np.add.at(density.reshape(-1, nodes), entry[live], sums)
            factor = np.zeros_like(density)
        # f ln f: where f = 0 the factor, finite, is kept and multiplied by 0
        integrand = np.log(density, out=factor, where=density > 0.0)
        integrand *= density * -_GL_WEIGHTS
        group_panel = (np.arange(group_row.size) - group_first[group_row]) * slots
        valid = np.arange(slots) < (panels[group_row] - group_panel)[:, None]  # in the row
        panel_value = np.add.reduce(integrand, axis=2) * valid
        values = np.bincount(group_row, np.add.reduce(panel_value, axis=1) * half[group_row], rows)
        if not np.isfinite(values).all():
            raise QuadratureError("KDE entropy integrand is not finite inside the range")
        return values


def _kde_entropy(working: np.ndarray, h: np.ndarray, support: Support) -> np.ndarray:
    """DE_KDE of each row of a (rows, n) working-scale array, row r smoothed
    with bandwidth h[r]: the range rule (``range_bounds``), the fixed rule
    (``_kde_entropy_rows``) and, on positive support, the ln-space shift
    mean(ln x).  Nothing checks the rows: each must be finite and vary.

    ``working`` is sorted in place, once per row, after the shift is taken
    from the rows as given (so its sum keeps their order and its bits); the
    range rule and the fixed rule then read the sorted rows.  A caller
    passes an array of its own: ``_dde_rows`` a copy made by its row mask,
    ``de_kde`` a copy of the data.
    """
    shift = working.mean(axis=1) if support is Support.POSITIVE else None
    working.sort(axis=1)
    lower, upper = range_bounds(working, h)
    values = _kde_entropy_rows(working, h, lower, upper)
    return values if shift is None else values + shift


def de_kde(data, bw: BandwidthSpec) -> float:
    """Kernel plug-in entropy over the quantile-based integration range.

    The kernel smooths the data on ``bw.scale``: on the ln scale (positive
    support) it smooths y = ln(x) and the estimate is -∫ g ln g dy +
    mean(y).  The one-row call of ``_kde_entropy``, after the checks of one
    sample: one-dimensional, finite, a finite bandwidth > 0, x > 0 on the
    ln scale, and at least 2 values that are not all the same on the
    working scale.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 1:
        raise DataError("expected a one-dimensional sample")
    if not np.isfinite(data).all():
        raise DataError("sample contains non-finite values")
    if not math.isfinite(bw.h):
        raise InvalidParameterError(f"bandwidth must be finite, got {bw.h}")
    if bw.h <= 0.0:
        raise InvalidParameterError(f"bandwidth must be > 0, got {bw.h}")
    positive = bw.scale is Scale.LN
    if positive and (data <= 0.0).any():
        raise SupportError("positive-support KDE requires strictly positive data")
    if data.size < 2:
        raise DegenerateDataError("need at least 2 observations for an integration range")
    working = np.log(data) if positive else data.copy()  # _kde_entropy sorts it
    if np.min(working) == np.max(working):
        raise DegenerateDataError("all observations are identical")
    support = Support.POSITIVE if positive else Support.REAL
    return float(_kde_entropy(working[None, :], np.array([bw.h]), support)[0])


# --------------------------------------------------------------------------
# bias diagnostics
# --------------------------------------------------------------------------

def ml_entropy_bias(fitted: FittedModel, n: int) -> float:
    """O(1/n) bias of the plug-in entropy under the fitted null.

    Normal uses the exact digamma form ½[ψ((n-1)/2) - ln(n/2)]; Exponential
    and Laplace are -1/(2n); Gamma depends on the fitted shape.  The Laplace
    and Gamma forms assume parameter-unbiased MLEs and understate the
    empirical bias of the median/shape estimates; they are reported as
    first-order diagnostics, never applied to statistics.
    """
    fam = get_family(fitted.family)
    if fam.ml_bias is None:
        raise InvalidParameterError(f"no ML-entropy bias form for {fam.family_id.value}")
    if n < 2:
        raise InvalidParameterError("bias diagnostics need n >= 2")
    return float(fam.ml_bias(fitted.theta, n))


def kde_smoothing_bias(fitted: FittedModel, h: float, n: int, width: float) -> float:
    """Leading-order bias of ``de_kde``, the integral plug-in -∫_R f̂ ln f̂.

    Returns (h²/2) J - W/(4√π n h) + 1/(2n).  J is the location Fisher
    information of the fitted null on the working scale (1/σ² normal, 1
    ln-exponential, a ln-gamma, 1/b² Laplace), so (h²/2) J is the entropy
    gained by smoothing with the Gaussian kernel.  The last two terms are
    -½∫_R Var f̂ / f_h with Var f̂ ≈ (f_h ∫K²/h - f_h²)/n.  ``width`` is the
    width W of the range R that ``de_kde`` integrates over: upper - lower of
    ``quadrature.range_bounds`` on the sorted working-scale data.  n < 2 (as in
    ``ml_entropy_bias``), and an h or width that is not finite and > 0,
    raise ``InvalidParameterError``.

    The expansion is first-order: for non-normal nulls it overstates the
    bias at n in the hundreds.  At n = 100 with h = 1.06 ŝ n^-1/5 on the
    working scale (2000 replicates, SE about 0.002), it gives +0.119
    against a Monte Carlo +0.096 for the exponential, +0.078 against
    +0.073 for gamma(3), and +0.147 against +0.090 for Laplace(b=½).
    """
    fam = get_family(fitted.family)
    if fam.kde_smoothing is None:
        raise InvalidParameterError(f"no KDE smoothing-bias form for {fam.family_id.value}")
    if n < 2:
        raise InvalidParameterError("bias diagnostics need n >= 2")
    if not math.isfinite(h):
        raise InvalidParameterError(f"bandwidth must be finite, got {h}")
    if h <= 0.0:
        raise InvalidParameterError(f"bandwidth must be > 0, got {h}")
    if not (math.isfinite(width) and width > 0.0):
        raise InvalidParameterError(f"range width must be finite and > 0, got {width}")
    smoothing = fam.kde_smoothing(fitted.theta, h)
    variance = -_KERNEL_L2 * width / (2.0 * n * h) + 1.0 / (2.0 * n)
    return float(smoothing + variance)
