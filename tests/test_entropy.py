import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import digamma, xlogy

from ddetest import (
    FamilyId, FittedModel, closed_form_entropy, de_kde, fit_mle, kde_smoothing_bias,
    ml_entropy_bias, sample, select_bandwidth, substream,
)
from ddetest.bandwidth import BandwidthSpec, Regime, ShapeStats
from ddetest.cli import main as cli_main
from ddetest.entropy import (
    _GL_NODES, _GL_WEIGHTS, _PANEL_BANDWIDTHS, _SQRT_2PI, _kde_entropy, _kde_entropy_rows,
)
from ddetest.errors import (
    DataError, DegenerateDataError, InvalidParameterError, QuadratureError, SupportError,
)
from ddetest.families import Support
from ddetest.quadrature import Scale, range_bounds

from oracles import DEFAULT_TOL, _de_ml_quadrature, integrate, kde_pdf

HALF_LN_2PIE = 0.5 * math.log(2.0 * math.pi * math.e)


def _bw(h, n, scale=Scale.RAW):
    stats = ShapeStats(3.0, 0.0, 3.0, 3.0, 1.0, 1.0)
    regime = Regime.GAUSSIAN if scale is Scale.RAW else Regime.RIGHT_SKEWED_POSITIVE
    return BandwidthSpec(h=h, c=1.0, k_n=1.0, n=n, scale=scale, shape=stats, regime=regime)


# --------------------------------------------------------------------------
# parametric plug-in
# --------------------------------------------------------------------------

def test_de_ml_normal_unit_variance():
    est = closed_form_entropy(FittedModel(FamilyId.NORMAL, (0.3, 1.0)))
    assert est == pytest.approx(HALF_LN_2PIE, abs=1e-12)


def test_de_ml_exponential():
    est = closed_form_entropy(FittedModel(FamilyId.EXPONENTIAL, (2.0,)))
    assert est == pytest.approx(1.0 + math.log(2.0), abs=1e-12)


def test_de_ml_gamma_cross_checked_by_quadrature():
    fitted = FittedModel(FamilyId.GAMMA, (3.0, 1.0))
    closed = closed_form_entropy(fitted)
    quad = _de_ml_quadrature(fitted, tol=DEFAULT_TOL)
    assert closed == pytest.approx(1.8475785103630111, abs=1e-12)
    assert quad == pytest.approx(closed, abs=1e-8)


def test_de_ml_attaches_bias_diag_when_fit(tmp_path):
    # the ML bias diagnostic of a fit is reported by `ddetest entropy`
    data = sample(FittedModel(FamilyId.EXPONENTIAL, (2.0,)), 50, substream("diag"))
    csv, out = tmp_path / "x.csv", tmp_path / "ml.json"
    csv.write_text("".join(f"{float(v)!r}\n" for v in data))
    assert cli_main(["entropy", "--data", str(csv), "--family", "exponential",
                     "--out", str(out)]) == 0
    assert json.loads(out.read_text())["bias_diag"] == pytest.approx(-1.0 / 100.0)


# --------------------------------------------------------------------------
# kernel density
# --------------------------------------------------------------------------

def test_kde_single_kernel_peak():
    h = 0.7
    assert kde_pdf([1.5], h, 1.5) == pytest.approx(1.0 / (h * math.sqrt(2 * math.pi)))


def test_kde_two_point_hand_value():
    # data {-1, 1}, h=1, x=0: phi(1)
    val = kde_pdf([-1.0, 1.0], 1.0, 0.0)
    assert val == pytest.approx(math.exp(-0.5) / math.sqrt(2 * math.pi), abs=1e-14)


def test_kde_mixture_normalizes():
    data = substream("kde-norm").normal(0.0, 1.0, 80)
    h = 1.06 * data.std() * data.size ** -0.2
    q_low, q_high = np.quantile(data, [0.001, 0.999])
    val = integrate(lambda x: kde_pdf(data, h, x), q_low - 8.0 * h, q_high + 8.0 * h, tol=1e-9)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_kde_strictly_positive():
    # positive far into the tails (up to float64 underflow, ~38 kernel widths)
    assert kde_pdf([0.0], 0.5, 15.0) > 0.0
    assert kde_pdf([0.0], 1.0, 35.0) > 0.0


# --------------------------------------------------------------------------
# kernel plug-in entropy
# --------------------------------------------------------------------------

def test_de_kde_consistency_real_line():
    data = substream("dekde-real").normal(0.0, 1.0, 10_000)
    fitted = fit_mle(FamilyId.NORMAL, data)
    bw = select_bandwidth(fitted, data)
    est = de_kde(data, bw)
    assert abs(est - HALF_LN_2PIE) < 0.02


def test_de_kde_consistency_ln_space():
    # lognormal(0, 1) has entropy 0 + half ln(2 pi e)
    z = substream("dekde-ln").normal(0.0, 1.0, 10_000)
    data = np.exp(z)
    fitted = fit_mle(FamilyId.LOGNORMAL, data)
    bw = select_bandwidth(fitted, data)
    est = de_kde(data, bw)
    assert abs(est - HALF_LN_2PIE) < 0.03


def test_change_of_variables_identity():
    # ln-space value + mean(ln x) equals the raw-space quadrature of the
    # exact change-of-variables image of the ln-space KDE
    data = sample(FittedModel(FamilyId.GAMMA, (3.0, 1.0)), 200, substream("cov", 3))
    fitted = fit_mle(FamilyId.GAMMA, data)
    bw = select_bandwidth(fitted, data)
    # the ln-space value + mean(ln x) over q -/+ 12h, wide enough that the
    # kernel tails are fully integrated
    y = np.log(data)
    h = bw.h
    work, hs = np.sort(y)[None, :], np.array([h])
    q_low, q_high = np.quantile(work, [0.001, 0.999], axis=1)
    ln_lower, ln_upper = q_low - 12.0 * hs, q_high + 12.0 * hs
    est = float(_kde_entropy_rows(work, hs, ln_lower, ln_upper)[0] + work.mean(axis=1)[0])
    norm = 1.0 / (y.size * h * math.sqrt(2 * math.pi))

    def raw_image_entropy(x):
        # f_X(x) = g(ln x) / x
        ly = np.log(x)
        z = (ly[:, None] - y[None, :]) / h
        g = np.exp(-0.5 * z * z).sum(axis=1) * norm
        fx = g / x
        return np.where(fx > 0, -fx * np.log(np.where(fx > 0, fx, 1.0)), 0.0)

    raw_lower, raw_upper = math.exp(ln_lower[0]), math.exp(ln_upper[0])
    edges = np.exp(np.linspace(ln_lower[0], ln_upper[0], 129))
    edges[0], edges[-1] = raw_lower, raw_upper
    raw_val = integrate(raw_image_entropy, raw_lower, raw_upper, tol=1e-10, edges=edges)
    assert raw_val == pytest.approx(est, abs=1e-8)


def test_de_kde_translation_invariant():
    data = substream("dekde-shift").normal(0.0, 1.0, 300)
    fitted = fit_mle(FamilyId.NORMAL, data)
    bw = select_bandwidth(fitted, data)
    v0 = de_kde(data, bw)
    shifted = data + 123.0
    fitted2 = fit_mle(FamilyId.NORMAL, shifted)
    bw2 = select_bandwidth(fitted2, shifted)
    v1 = de_kde(shifted, bw2)
    assert v1 == pytest.approx(v0, abs=1e-7)


def test_de_kde_log_scaling_law():
    # scaling data by s adds ln s when h tracks sigma_hat
    data = substream("dekde-scale").normal(0.0, 1.0, 300)
    fitted = fit_mle(FamilyId.NORMAL, data)
    bw = select_bandwidth(fitted, data)
    v0 = de_kde(data, bw)
    for s in (0.5, 2.0, 8.0):
        scaled = s * data
        fitted_s = fit_mle(FamilyId.NORMAL, scaled)
        bw_s = select_bandwidth(fitted_s, scaled)
        v1 = de_kde(scaled, bw_s)
        assert v1 == pytest.approx(v0 + math.log(s), abs=1e-6)


_X = np.abs(substream("dekde-checks").normal(0.0, 1.0, 50)) + 0.1


def _with(value):
    x = _X.copy()
    x[7] = value
    return x


@pytest.mark.parametrize("data,h,scale,error,message", [
    (_with(np.nan), 0.3, Scale.RAW, DataError, "sample contains non-finite values"),
    (_with(np.inf), 0.3, Scale.RAW, DataError, "sample contains non-finite values"),
    (_with(-np.inf), 0.3, Scale.LN, DataError, "sample contains non-finite values"),
    (_X.reshape(5, 10), 0.3, Scale.RAW, DataError, "expected a one-dimensional sample"),
    (_X, np.nan, Scale.RAW, InvalidParameterError, "bandwidth must be finite, got nan"),
    (_X, np.inf, Scale.LN, InvalidParameterError, "bandwidth must be finite, got inf"),
    (_X, 0.0, Scale.RAW, InvalidParameterError, "bandwidth must be > 0, got 0.0"),
    (_X, -0.3, Scale.LN, InvalidParameterError, "bandwidth must be > 0, got -0.3"),
    (_X[:1], 0.3, Scale.RAW, DegenerateDataError,
     "need at least 2 observations for an integration range"),
    (np.full(10, -2.0), 0.3, Scale.RAW, DegenerateDataError, "all observations are identical"),
    (np.full(10, 2.0), 0.3, Scale.LN, DegenerateDataError, "all observations are identical"),
    (_with(0.0), 0.3, Scale.LN, SupportError,
     "positive-support KDE requires strictly positive data"),
])
def test_de_kde_refuses_bad_input(data, h, scale, error, message):
    # one check layer: each bad input raises its typed error, and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as exc:
            de_kde(data, _bw(h, 50, scale))
    assert type(exc.value) is error and str(exc.value) == message


def _kde_rows_case(n, tag):
    """Five sorted rows of n draws (normal, Cauchy, shifted normal,
    exponential, Laplace) with mixed bandwidths and their entropy ranges."""
    rng = substream("kde-rows", tag, n)
    work = np.sort(np.vstack([
        rng.normal(0.0, 1.0, n), rng.standard_cauchy(n), rng.normal(10.0, 3.0, n),
        rng.exponential(1.0, n), rng.laplace(0.0, 2.0, n),
    ]), axis=1)
    h = np.array([0.3, 2.0, 0.9, 0.05, 1.5])
    lower, upper = range_bounds(work, h)
    return work, h, lower, upper


@pytest.mark.parametrize("n", [5, 100, 3000])
def test_kde_rows_bit_identical_alone_or_in_any_chunk(n):
    work, h, lower, upper = _kde_rows_case(n, 0)
    full = _kde_entropy_rows(work, h, lower, upper)
    assert np.all(np.isfinite(full))
    for a in range(work.shape[0]):
        for b in range(a + 1, work.shape[0] + 1):
            part = _kde_entropy_rows(work[a:b].copy(), h[a:b], lower[a:b], upper[a:b])
            assert part.tobytes() == full[a:b].tobytes(), (a, b)
    # the range of each row is the one range_bounds gives it alone
    for r in range(work.shape[0]):
        assert range_bounds(work[r], h[r]) == (lower[r], upper[r])


def test_kde_rows_bit_identical_across_kernel_blocks(monkeypatch):
    # a smaller block cap splits rows across kernel blocks differently
    import ddetest.entropy as entropy_mod

    work, h, lower, upper = _kde_rows_case(100, 1)
    full = _kde_entropy_rows(work, h, lower, upper)
    for cap in (8 * 100, 8 * 100 * 7, 8 * 100 * 64):
        monkeypatch.setattr(entropy_mod, "KDE_BLOCK_BYTES", cap)
        assert _kde_entropy_rows(work, h, lower, upper).tobytes() == full.tobytes()


def test_kde_rows_bit_identical_across_kernel_blocks_mixed_windows(monkeypatch):
    # at n = 3000 one call's panels have about 30 window lengths (most of the
    # Cauchy row's are empty), which each cap groups into blocks differently
    import ddetest.entropy as entropy_mod

    work, h, lower, upper = _kde_rows_case(3000, 1)
    full = _kde_entropy_rows(work, h, lower, upper)
    for cap in (8 * 100, 8 * 100 * 7, 8 * 100 * 64):
        monkeypatch.setattr(entropy_mod, "KDE_BLOCK_BYTES", cap)
        assert _kde_entropy_rows(work, h, lower, upper).tobytes() == full.tobytes()


def test_kde_rows_bit_identical_across_blas_threads():
    # each block's node sums are small matrix products; one and two BLAS
    # threads must give the same bytes
    import ddetest

    src = os.path.dirname(os.path.dirname(os.path.abspath(ddetest.__file__)))
    script = (
        "import sys\n"
        "from ddetest.entropy import _kde_entropy_rows\n"
        "from test_entropy import _kde_rows_case, _window_case_ln20000\n"
        "rows = _kde_entropy_rows(*_kde_rows_case(3000, 1))\n"
        "big = _kde_entropy_rows(*_window_case_ln20000())\n"
        "sys.stdout.write((rows.tobytes() + big.tobytes()).hex())\n"
    )
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.path.dirname(__file__)])}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] != ""


@pytest.mark.parametrize("rows,n,limit", [(6, 20_000, 3.08e6), (1, 100, 0.17e6)])
def test_kde_rows_scratch_memory(rows, n, limit):
    # the kernel's scratch lives in one buffer of at most KDE_BLOCK_BYTES (or
    # one block's chunk, or one row), and its other arrays are per block
    work = np.sort(substream("kde-memory", rows, n).normal(0.0, 1.0, (rows, n)), axis=1)
    h = np.full(rows, 1.06 * n ** -0.2)
    lower, upper = range_bounds(work, h)
    tracemalloc.start()
    try:
        _kde_entropy_rows(work, h, lower, upper)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit


def _dense_kde_entropy_rows(work, h, lower, upper):
    """The fixed rule with every kernel summed at every node: the same nodes
    and weights as ``_kde_entropy_rows``, no window."""
    rows, n = work.shape
    width = upper - lower
    panels = np.ceil(width / (_PANEL_BANDWIDTHS * h)).astype(np.intp)
    half = width / (2.0 * panels)
    panel_row = np.repeat(np.arange(rows), panels)
    panel_half = half[panel_row]
    first = np.cumsum(panels) - panels
    centre = lower[panel_row] + (2.0 * (np.arange(panel_row.size) - first[panel_row]) + 1.0) \
        * panel_half
    node_row = np.repeat(panel_row, _GL_NODES.size)
    nodes = (centre[:, None] + panel_half[:, None] * _GL_NODES).ravel() / h[node_row]
    scaled = work / h[:, None]
    density = np.empty(nodes.size)
    for i in range(nodes.size):
        z = scaled[node_row[i]] - nodes[i]
        density[i] = np.exp(-0.5 * z * z).sum()
    density *= (1.0 / (n * _SQRT_2PI * h))[node_row]
    integrand = -xlogy(density, density).reshape(-1, _GL_NODES.size)
    panel_value = (integrand * _GL_WEIGHTS).sum(axis=1) * panel_half
    return np.bincount(panel_row, weights=panel_value, minlength=rows)


def _kde_window_bound(h, lower, upper):
    """``_kde_entropy_rows``' stated distance from the full kernel sum:
    (W/h) (η (ln(1/η) + |ln h|) + ε), η = e^(-C²/2)/√(2π), C = 9."""
    eta = math.exp(-0.5 * 9.0**2) / math.sqrt(2.0 * math.pi)
    return (upper - lower) / h * (eta * (-math.log(eta) + np.abs(np.log(h)))
                                  + np.finfo(float).eps)


def _window_case_ln20000():
    x = substream("kde-window", "n20000").lognormal(1.0, 0.5, 20_000)
    bw = select_bandwidth(fit_mle(FamilyId.GAMMA, x), x)
    work, h = np.sort(np.log(x))[None, :], np.array([bw.h])
    return (work, h) + range_bounds(work, h)


def _window_case_outliers():
    # samples 3h and 30h beyond each end of the range fall in the edge bins
    rng = substream("kde-window", "outliers")
    work, h = np.sort(rng.normal(0.0, 1.0, (2, 500)), axis=1), np.array([0.25, 0.6])
    lower, upper = range_bounds(work, h)
    work[:, :4] = np.column_stack([lower - 3 * h, lower - 30 * h, upper + 3 * h, upper + 30 * h])
    work.sort(axis=1)
    return work, h, lower, upper


def _window_case_cauchy():
    # ranges of hundreds of bandwidths whose tail panels have empty windows
    work = np.sort(substream("kde-window", "cauchy").standard_cauchy((3, 2000)), axis=1)
    h = np.array([0.2, 0.5, 1.0])
    return (work, h) + range_bounds(work, h)


def _window_case_ties():
    # heavy ties: 2000 draws on 7 values
    work = np.sort(substream("kde-window", "ties").integers(0, 7, (2, 2000)).astype(float), axis=1)
    h = np.array([0.05, 0.3])
    return (work, h) + range_bounds(work, h)


def _window_case_n5():
    # every window is capped at n
    return _kde_rows_case(5, 2)


def _window_case_far_outliers():
    # samples 1e6 bandwidths beyond each end of the range fall in the edge
    # bins, so they share the window of the tail block
    rng = substream("kde-window", "far-outliers")
    work, h = np.sort(rng.normal(0.0, 1.0, (2, 3000)), axis=1), np.array([0.2, 0.05])
    lower, upper = range_bounds(work, h)
    work[:, 0], work[:, 1] = lower - 1e6 * h, upper + 1e6 * h
    work.sort(axis=1)
    return work, h, lower, upper


def _window_case_wide():
    # a range of 1e4 bandwidths: hundreds of blocks, whose ladder-rounded
    # windows in the sparse tails reach samples thousands of bandwidths away
    work = np.sort(substream("kde-window", "wide").standard_cauchy((1, 1000)), axis=1)
    q_low, q_high = np.quantile(work, [0.001, 0.999], axis=1)
    h = (q_high - q_low) / (1e4 - 10.0)
    return (work, h) + range_bounds(work, h)


def _window_case_mixed_n5000():
    # rows of several blocks at n = 5000: lognormal (ln scale) and Laplace
    # draws with their nulls' bandwidths, 22 to 30 panels and a reach of 5
    # panels, and a normal row whose h gives 9 panels, a reach of 6 and a
    # last block of one panel
    rng = substream("kde-window", "mixed-n5000")
    x, y = rng.lognormal(1.0, 0.5, (3, 5000)), rng.laplace(0.0, 1.0, (3, 5000))
    work = np.sort(np.vstack([np.log(x), y, rng.normal(0.0, 1.0, (1, 5000))]), axis=1)
    q_low, q_high = np.quantile(work[-1], [0.001, 0.999])
    h = np.array([select_bandwidth(fit_mle(FamilyId.GAMMA, r), r).h for r in x]
                 + [select_bandwidth(fit_mle(FamilyId.LAPLACE, r), r).h for r in y]
                 + [(q_high - q_low) / 6.1])
    return (work, h) + range_bounds(work, h)


def _window_case_faithful_laplace():
    # faithful-sized Laplace rows of 17 to 22 panels: a block of 16 home
    # panels, then a last block of 1 to 6
    rows = [substream("kde-window", "faithful-laplace", i).laplace(0.0, 1.0, 272)
            for i in (5, 15, 2, 37, 6, 4)]
    h = np.array([select_bandwidth(fit_mle(FamilyId.LAPLACE, x), x).h for x in rows])
    work = np.sort(np.array(rows), axis=1)
    lower, upper = range_bounds(work, h)
    assert sorted(np.ceil((upper - lower) / (2.0 * h)).tolist()) == list(range(17, 23))
    return work, h, lower, upper


@pytest.mark.parametrize("case", [
    _window_case_ln20000, _window_case_outliers, _window_case_cauchy, _window_case_ties,
    _window_case_n5, _window_case_far_outliers, _window_case_wide,
    _window_case_mixed_n5000, _window_case_faithful_laplace,
])
def test_kde_rows_match_dense_oracle(case):
    work, h, lower, upper = case()
    windowed = _kde_entropy_rows(work, h, lower, upper)
    dense = _dense_kde_entropy_rows(work, h, lower, upper)
    assert np.all(np.abs(windowed - dense) <= _kde_window_bound(h, lower, upper))


def test_kde_rows_of_several_blocks_bit_identical_alone_or_in_any_chunk():
    work, h, lower, upper = _window_case_mixed_n5000()
    full = _kde_entropy_rows(work, h, lower, upper)
    for a in range(work.shape[0]):
        for b in range(a + 1, work.shape[0] + 1):
            part = _kde_entropy_rows(work[a:b].copy(), h[a:b], lower[a:b], upper[a:b])
            assert part.tobytes() == full[a:b].tobytes(), (a, b)


def test_kde_rows_of_several_blocks_bit_identical_across_kernel_blocks(monkeypatch):
    import ddetest.entropy as entropy_mod

    work, h, lower, upper = _window_case_mixed_n5000()
    full = _kde_entropy_rows(work, h, lower, upper)
    for cap in (8 * 100, 8 * 100 * 7, 8 * 100 * 64):
        monkeypatch.setattr(entropy_mod, "KDE_BLOCK_BYTES", cap)
        assert _kde_entropy_rows(work, h, lower, upper).tobytes() == full.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kde_rows_nonfinite_sample_is_quadrature_error(bad):
    work, h, lower, upper = _kde_rows_case(100, 3)
    work[2, 40] = bad
    work.sort(axis=1)
    with pytest.raises(QuadratureError):
        _kde_entropy_rows(work, h, lower, upper)


def _de_kde_oracle(data, bw):
    """de_kde's integral by the adaptive integrator at tol 1e-12."""
    working = np.log(data) if bw.scale is Scale.LN else data
    shift = float(np.mean(working)) if bw.scale is Scale.LN else 0.0
    norm = 1.0 / (working.size * bw.h * math.sqrt(2.0 * math.pi))

    def integrand(pts):
        z = (pts[:, None] - working[None, :]) / bw.h
        t = np.exp(-0.5 * z * z).sum(axis=1) * norm
        return -xlogy(t, t)

    return integrate(integrand, *range_bounds(np.sort(working), bw.h), tol=1e-12) + shift


@pytest.mark.parametrize("family,data_model", [
    (FamilyId.NORMAL, FittedModel(FamilyId.NORMAL, (0.0, 1.0))),
    (FamilyId.LAPLACE, FittedModel(FamilyId.LAPLACE, (0.0, 1.0))),
    (FamilyId.GAMMA, FittedModel(FamilyId.GAMMA, (2.0, 1.0))),
    (FamilyId.NORMAL, FittedModel(FamilyId.CAUCHY, (0.0, 1.0))),
])
def test_fixed_rule_de_kde_matches_adaptive_oracle(family, data_model):
    for n in (50, 100, 500):
        for i in range(3):
            x = sample(data_model, n, substream("kde-oracle", family.value, n, i))
            bw = select_bandwidth(fit_mle(family, x), x)
            assert abs(de_kde(x, bw) - _de_kde_oracle(x, bw)) <= 1e-8


def test_fixed_rule_de_kde_matches_adaptive_oracle_large_ln_space():
    x = substream("kde-oracle", "n20000").lognormal(1.0, 0.5, 20_000)
    bw = select_bandwidth(fit_mle(FamilyId.GAMMA, x), x)
    value = de_kde(x, bw)
    assert abs(value - _de_kde_oracle(x, bw)) <= 1e-8


# --------------------------------------------------------------------------
# bias diagnostics
# --------------------------------------------------------------------------

def test_ml_bias_values():
    n50 = FittedModel(FamilyId.EXPONENTIAL, (2.0,))
    assert ml_entropy_bias(n50, 50) == pytest.approx(-0.01)
    lap = FittedModel(FamilyId.LAPLACE, (0.0, 1.0))
    assert ml_entropy_bias(lap, 100) == pytest.approx(-0.005)
    norm = FittedModel(FamilyId.NORMAL, (0.0, 1.0))
    # exact digamma form at n=50: 0.5 (psi(24.5) - ln 25) = -0.0203749...
    val = ml_entropy_bias(norm, 50)
    assert val == pytest.approx(0.5 * (float(digamma(24.5)) - math.log(25.0)), abs=1e-15)
    assert val == pytest.approx(-0.0203749, abs=5e-7)
    gam = FittedModel(FamilyId.GAMMA, (3.0, 1.0))
    expected = 1.0 / (2 * 50 * 3.0) + ((1 - 3.0) / (2 * 50)) * (1 - 2.0 * (math.pi**2 / 6 - 1.25))
    assert ml_entropy_bias(gam, 50) == pytest.approx(expected, abs=1e-12)


def test_ml_bias_unsupported_family():
    with pytest.raises(InvalidParameterError):
        ml_entropy_bias(FittedModel(FamilyId.LOGNORMAL, (0.0, 1.0)), 50)


def test_kde_smoothing_bias_values():
    # normal: h^2/(2 sigma^2) - W/(4 sqrt(pi) n h) + 1/(2n)
    m = FittedModel(FamilyId.NORMAL, (0.0, 1.0))
    val = kde_smoothing_bias(m, h=0.3, n=100, width=9.0)
    expected = 0.045 - 9.0 / (4 * math.sqrt(math.pi) * 100 * 0.3) + 0.005
    assert val == pytest.approx(expected, abs=1e-12)
    assert val == pytest.approx(0.007686, abs=5e-7)
    # ln-exponential smoothing term +h^2/2 (Fisher information 1)
    e = FittedModel(FamilyId.EXPONENTIAL, (1.0,))
    v = kde_smoothing_bias(e, h=0.3, n=10**9, width=9.0)
    assert v == pytest.approx(0.045, abs=1e-7)
    # ln-gamma: +(h^2/2) alpha
    g = FittedModel(FamilyId.GAMMA, (3.0, 2.0))
    v = kde_smoothing_bias(g, h=0.2, n=10**9, width=9.0)
    assert v == pytest.approx(0.02 * 3.0, abs=1e-7)
    # laplace: +h^2/(2 b^2)
    l = FittedModel(FamilyId.LAPLACE, (0.0, 0.5))
    v = kde_smoothing_bias(l, h=0.2, n=10**9, width=9.0)
    assert v == pytest.approx(0.08, abs=1e-7)


@pytest.mark.parametrize("h, n, width, match", [
    (0.3, 0, 9.0, "n >= 2"),
    (0.3, 1, 9.0, "n >= 2"),
    (float("nan"), 100, 9.0, "bandwidth must be finite"),
    (float("inf"), 100, 9.0, "bandwidth must be finite"),
    (0.0, 100, 9.0, "bandwidth must be > 0"),
    (0.3, 100, float("nan"), "range width"),
    (0.3, 100, float("inf"), "range width"),
    (0.3, 100, 0.0, "range width"),
    (0.3, 100, -9.0, "range width"),
])
def test_kde_smoothing_bias_rejects_bad_inputs(h, n, width, match):
    # a typed error that names the input, never a bare ZeroDivisionError, a
    # warning or a NaN
    m = FittedModel(FamilyId.NORMAL, (0.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match=match):
            kde_smoothing_bias(m, h, n, width)


def test_variance_term_vanishes_as_nh_grows():
    m = FittedModel(FamilyId.NORMAL, (0.0, 1.0))
    smooth_only = 0.3**2 / 2.0
    # W/(4 sqrt(pi) n h) is about 4e-8 at n = 1e8, so go to n = 1e10
    vals = [kde_smoothing_bias(m, h=0.3, n=n, width=9.0)
            for n in (10**2, 10**4, 10**10)]
    gaps = [abs(v - smooth_only) for v in vals]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-8


def test_integral_estimator_empirical_bias_characterization():
    """Characterization of the integral plug-in's true bias at n=100.

    The mean error under N(0,1) tracks +0.5 ln(1 + h^2) (entropy of the
    kernel-smoothed density) minus an O((nh)^-1) variance correction; it is
    positive at Silverman bandwidths.  ``kde_smoothing_bias`` averaged over
    the replicates' integration widths gives +0.0634 at h = 1.06 n^-0.2.
    Frozen from a 2000-replicate study: mean error +0.0646 (SE 0.0016).
    """
    n, reps = 100, 200
    h = 1.06 * n ** -0.2
    errs = np.empty(reps)
    for r in range(reps):
        x = substream("char-bias", r).normal(0.0, 1.0, n)
        errs[r] = de_kde(x, _bw(h, n)) - HALF_LN_2PIE
    se = errs.std(ddof=1) / math.sqrt(reps)
    assert abs(errs.mean() - 0.0646) < 4.0 * math.hypot(se, 0.0016)


def test_kde_entropy_same_bits_on_any_permutation():
    # _kde_entropy sorts each row itself; on positive support it adds the
    # mean of the rows as given, taken before the sort
    rng = substream("kde-perm")
    x = np.vstack([rng.normal(0.0, 1.0, 300), np.round(rng.standard_cauchy(300), 1),
                   rng.exponential(1.0, 300)])
    h = np.array([0.3, 0.5, 0.2])
    base = _kde_entropy(x.copy(), h, Support.REAL)
    for _ in range(5):
        perm = np.ascontiguousarray(x[:, rng.permutation(x.shape[1])])
        assert _kde_entropy(perm.copy(), h, Support.REAL).tobytes() == base.tobytes()
        shifted = _kde_entropy(perm.copy(), h, Support.POSITIVE)
        assert shifted.tobytes() == (base + perm.mean(axis=1)).tobytes()
    alone = [_kde_entropy(x[r:r + 1].copy(), h[r:r + 1], Support.REAL) for r in range(3)]
    assert np.concatenate(alone).tobytes() == base.tobytes()


@pytest.mark.parametrize("scale", [Scale.RAW, Scale.LN])
def test_de_kde_leaves_the_data_unchanged(scale):
    data = substream("kde-caller", scale.value).lognormal(0.0, 1.0, 500)
    kept = data.copy()
    de_kde(data, _bw(0.2, data.size, scale))
    assert data.tobytes() == kept.tobytes()
