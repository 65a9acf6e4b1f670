import math

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddetest import (
    FamilyId, FittedModel, TESTABLE_NULLS, closed_form_entropy, fit_mle,
    load_dataset, log_pdf, mean_log_likelihood, null_kurtosis, sample, substream,
)
from ddetest import families
from ddetest.entropy import de_ml
from ddetest.errors import (
    DataError, DdeError, DegenerateDataError, FitError, InvalidParameterError, SupportError,
)
from ddetest.families import Support, get_family
from ddetest.montecarlo import NULL_MEMBERS, SIMULATED_NULLS, table4_alternatives
from ddetest.streams import _PrefixStreams

from oracles import DEFAULT_TOL, _de_ml_quadrature, integrate

HALF_LN_2PIE = 0.5 * math.log(2.0 * math.pi * math.e)


def test_family_table_contract():
    # every per-family fact the pipeline looks up lives on Family
    for fid in FamilyId:
        fam = get_family(fid)
        assert all(callable(f) for f in (fam.log_pdf, fam.sampler)), fid
        assert set(fam.positive) <= set(fam.param_names), fid
    for fid in TESTABLE_NULLS:
        fam = get_family(fid)
        for name in ("fit", "entropy", "kurtosis", "working_moments"):
            assert callable(getattr(fam, name)), (fid, name)
    for null in SIMULATED_NULLS:
        for model in (NULL_MEMBERS[null], *table4_alternatives(null)):
            assert callable(get_family(model.family).moments), model
    for name in ("ml_bias", "kde_smoothing"):
        assert {f for f in FamilyId if getattr(get_family(f), name) is not None} == set(SIMULATED_NULLS)


# --------------------------------------------------------------------------
# log-densities
# --------------------------------------------------------------------------

def test_standard_normal_peak():
    m = FittedModel(FamilyId.NORMAL, (0.0, 1.0))
    assert log_pdf(m, 0.0) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)


def test_exponential_density_at_origin_limit():
    m = FittedModel(FamilyId.EXPONENTIAL, (2.0,))
    assert log_pdf(m, 1e-12) == pytest.approx(math.log(0.5), abs=1e-9)
    assert log_pdf(m, 0.0) == -math.inf
    assert log_pdf(m, -1.0) == -math.inf


def test_gamma_density_hand_value():
    # Gamma(3, 1) at x=2: x^2 e^-x / Gamma(3) = 4 e^-2 / 2 = 2 e^-2
    m = FittedModel(FamilyId.GAMMA, (3.0, 1.0))
    assert log_pdf(m, 2.0) == pytest.approx(math.log(2.0) - 2.0, abs=1e-12)


@pytest.mark.parametrize("fid", list(FamilyId), ids=lambda f: f.value)
def test_log_pdf_vectorized_with_support_mask(fid):
    # an array of x's shape for an array x, a float equal to the matching
    # element for a scalar x, and -inf off the support
    fam = get_family(fid)
    m = FittedModel(fid, (1.0,) * fam.n_params)
    x = np.array([-1.0, 0.0, 0.5, 2.0])
    vals = log_pdf(m, x)
    assert isinstance(vals, np.ndarray) and vals.shape == x.shape
    assert log_pdf(m, x.reshape(2, 2)).tolist() == vals.reshape(2, 2).tolist()
    for xi, v in zip(x, vals):
        for scalar in (xi, float(xi), np.array(xi)):
            value = log_pdf(m, scalar)
            assert type(value) is float and value == v, (xi, type(scalar))
    if fam.support is Support.POSITIVE:
        outside = x < 0 if fid is FamilyId.LOMAX else x <= 0
    else:
        outside = np.zeros(x.shape, dtype=bool)
    assert np.all(vals[outside] == -math.inf) and np.all(np.isfinite(vals[~outside]))
    if fid is FamilyId.LOGNORMAL:
        standard = FittedModel(fid, (0.0, 1.0))
        assert log_pdf(standard, 1.0) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)


def test_invalid_parameters_rejected():
    with pytest.raises(InvalidParameterError):
        FittedModel(FamilyId.NORMAL, (0.0, -1.0))
    with pytest.raises(InvalidParameterError):
        FittedModel(FamilyId.GAMMA, (0.0, 1.0))
    with pytest.raises(InvalidParameterError):
        FittedModel(FamilyId.GENGAMMA, (1.0, 1.0))  # wrong arity


# --------------------------------------------------------------------------
# closed-form entropies
# --------------------------------------------------------------------------

def test_exponential_entropy_unit_mean():
    assert closed_form_entropy(FittedModel(FamilyId.EXPONENTIAL, (1.0,))) == pytest.approx(1.0)


def test_laplace_entropy_half_diversity():
    # 1 + ln(2b) with b = 1/2
    assert closed_form_entropy(FittedModel(FamilyId.LAPLACE, (0.0, 0.5))) == pytest.approx(1.0)


def test_normal_entropy_location_free():
    vals = [closed_form_entropy(FittedModel(FamilyId.NORMAL, (u, 1.0)))
            for u in (-7.0, 0.0, 3.5)]
    assert all(v == pytest.approx(HALF_LN_2PIE, abs=1e-12) for v in vals)


def test_gamma_entropy_value():
    # ln Γ(3) + (1-3)ψ(3) + 3 evaluated: 1.8475785...
    v = closed_form_entropy(FittedModel(FamilyId.GAMMA, (3.0, 1.0)))
    assert v == pytest.approx(1.8475785103630111, abs=1e-12)


@pytest.mark.parametrize("family, theta, entropy", [
    # 40-digit mpmath values of a + ln b + ln Γ(a) + (1-a)ψ(a) and its GG form;
    # the direct form loses 2e-11 at a = 1e4 and 7.5e-8 at a = 1e8
    (FamilyId.GAMMA, (1e4, 0.1), 3.7214902920320406489),
    (FamilyId.GAMMA, (1e6, 1e-3), 1.4189381998712560751),
    (FamilyId.GAMMA, (1e8, 1e-5), -0.8836465631227062839),
    (FamilyId.GENGAMMA, (1.0, 1e6, 1.0), 8.3266934788533931272),
    (FamilyId.GENGAMMA, (5.0, 3e8, 3.0), -1.1403493003547308231),
])
def test_entropy_large_shape(family, theta, entropy):
    assert closed_form_entropy(FittedModel(family, theta)) == pytest.approx(entropy, abs=1e-13)


def test_gengamma_reduces_to_gamma_at_unit_power():
    # a=beta, d=alpha, p=1
    for alpha, beta in [(0.7, 2.0), (3.0, 1.0), (5.5, 0.25)]:
        gg = FittedModel(FamilyId.GENGAMMA, (beta, alpha, 1.0))
        ga = FittedModel(FamilyId.GAMMA, (alpha, beta))
        assert closed_form_entropy(gg) == pytest.approx(closed_form_entropy(ga), abs=1e-10)
        for x in (0.1, 1.0, 4.2):
            assert log_pdf(gg, x) == pytest.approx(log_pdf(ga, x), abs=1e-10)


def test_gengamma_reduces_to_weibull_and_rayleigh():
    wb = FittedModel(FamilyId.WEIBULL, (1.7915, 3.3727))
    gg = FittedModel(FamilyId.GENGAMMA, (3.3727, 1.7915, 1.7915))
    assert closed_form_entropy(gg) == pytest.approx(closed_form_entropy(wb), abs=1e-12)
    ray = FittedModel(FamilyId.RAYLEIGH, (1.3,))
    gg2 = FittedModel(FamilyId.GENGAMMA, (1.3 * math.sqrt(2.0), 2.0, 2.0))
    assert closed_form_entropy(gg2) == pytest.approx(closed_form_entropy(ray), abs=1e-12)


@pytest.mark.parametrize("family, theta", [
    (FamilyId.NORMAL, (0.5, 2.25)),
    (FamilyId.EXPONENTIAL, (0.4,)),
    (FamilyId.GAMMA, (0.6, 3.0)),
    (FamilyId.LAPLACE, (-1.0, 2.0)),
    (FamilyId.LOGNORMAL, (0.3, 0.49)),
    (FamilyId.GENGAMMA, (2.0, 3.0, 1.5)),
])
def test_closed_form_matches_quadrature(family, theta):
    fitted = FittedModel(family, theta)
    closed = de_ml(fitted)
    quad = _de_ml_quadrature(fitted, tol=DEFAULT_TOL)
    assert closed == pytest.approx(quad, abs=1e-6)


@pytest.mark.parametrize("family, theta", [
    (FamilyId.NORMAL, (1.0, 4.0)),
    (FamilyId.NORMAL, (-0.5, 0.25)),
    (FamilyId.EXPONENTIAL, (2.5,)),
    (FamilyId.EXPONENTIAL, (0.3,)),
    (FamilyId.GAMMA, (2.0, 0.5)),
    (FamilyId.GAMMA, (0.5, 3.0)),
    (FamilyId.LAPLACE, (0.0, 1.5)),
    (FamilyId.LAPLACE, (2.0, 0.25)),
    (FamilyId.LOGNORMAL, (-0.5, 1.0)),
    (FamilyId.LOGNORMAL, (1.0, 2.0)),
    (FamilyId.GENGAMMA, (1.5, 2.5, 0.8)),
    (FamilyId.GENGAMMA, (1.0, 0.7, 0.6)),
])
def test_density_normalizes(family, theta):
    # exp(log_pdf) integrates to 1 over the working scale
    from ddetest.quadrature import IntegrationRange

    fitted = FittedModel(family, theta)
    mean, sd = get_family(family).working_moments(theta)
    rng = IntegrationRange(mean - 45.0 * sd, mean + 45.0 * sd)
    if fitted.support is Support.POSITIVE:
        def f(y):
            return np.exp(log_pdf(fitted, np.exp(y)) + y)
    else:
        def f(y):
            return np.exp(log_pdf(fitted, y))
    assert integrate(f, rng, tol=1e-10) == pytest.approx(1.0, abs=1e-6)


# --------------------------------------------------------------------------
# MLE fitting
# --------------------------------------------------------------------------

def test_fit_mean_is_bit_identical_to_np_mean():
    # the fits and the bandwidth rule take means as add.reduce / size, which
    # must give np.mean's bits, so reports do not move
    rng = np.random.default_rng(20)
    for _ in range(3000):
        n = int(rng.integers(5, 3001))
        scale = 10.0 ** rng.uniform(-5.0, 5.0)
        v = scale * (rng.standard_normal(n) + rng.uniform(-3.0, 3.0))
        for arr in (v, v[::3], np.abs(v)):
            assert families._mean(arr).tobytes() == np.mean(arr).tobytes()
    # and row by row along a (rows, n) array, as the bootstrap takes them
    for rows, n in ((1, 5), (7, 50), (1310, 100), (41, 3000), (6, 20000)):
        block = rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(-5.0, 5.0, (rows, 1))
        expected = np.array([np.mean(row) for row in block])
        assert families._mean(block).tobytes() == expected.tobytes()


@pytest.mark.parametrize("family", TESTABLE_NULLS)
def test_row_fit_is_the_one_row_fit_of_each_row(family):
    # fitting a group of rows gives each row's fit_mle bits, and each failing
    # row carries the error fit_mle raises on it alone
    rows = substream("row-fit", family.value).gamma(2.0, 1.5, size=(12, 40))
    rows[3] = 1.0  # degenerate
    rows[5, 7] = np.inf  # non-finite
    rows[8, 2] = -1.0  # outside the positive support
    rows[10] = np.abs(rows[10]) ** 6  # a row the gamma solver takes longer over
    theta, failures = families._fit_rows(family, rows)
    assert set(failures) >= {3, 5}
    for i, row in enumerate(rows):
        try:
            expected = fit_mle(family, row).theta
        except DdeError as exc:
            assert type(failures[i]) is type(exc) and str(failures[i]) == str(exc)
        else:
            assert i not in failures
            assert tuple(float(col[i]) for col in theta) == expected


def test_exponential_mle_is_sample_mean():
    data = np.array([1.0, 2.0, 3.0, 2.0])
    m = fit_mle(FamilyId.EXPONENTIAL, data)
    assert m.theta == (2.0,)
    assert m.n_fit == 4


def test_normal_mle_divisor_n():
    m = fit_mle(FamilyId.NORMAL, np.array([-1.0, 0.0, 1.0]))
    assert m.theta[0] == pytest.approx(0.0)
    assert m.theta[1] == pytest.approx(2.0 / 3.0)


def test_laplace_mle_lower_median():
    # even n: the lower of the two central order statistics
    data = np.array([0.0, 1.0, 5.0, 10.0])
    m = fit_mle(FamilyId.LAPLACE, data)
    assert m.theta[0] == 1.0
    assert m.theta[1] == pytest.approx(np.mean(np.abs(data - 1.0)))


def test_lognormal_mle_is_log_moments():
    data = np.exp(np.array([0.1, 0.5, -0.3, 0.9]))
    m = fit_mle(FamilyId.LOGNORMAL, data)
    lx = np.log(data)
    assert m.theta[0] == pytest.approx(lx.mean())
    assert m.theta[1] == pytest.approx(lx.var())


def _gamma_grid_oracle(data, center, half_width=0.08, stages=3, points=81):
    """Zooming grid search maximizing the mean log-likelihood (no digamma)."""
    a_lo, a_hi = center[0] * (1 - half_width), center[0] * (1 + half_width)
    b_lo, b_hi = center[1] * (1 - half_width), center[1] * (1 + half_width)
    best = None
    for _ in range(stages):
        alphas = np.linspace(a_lo, a_hi, points)
        betas = np.linspace(b_lo, b_hi, points)
        ll = np.full((points, points), -np.inf)
        slog, smean = np.log(data).mean(), data.mean()
        for i, a in enumerate(alphas):
            for j, b in enumerate(betas):
                ll[i, j] = ((a - 1) * slog - smean / b - a * math.log(b)
                            - math.lgamma(a))
        i, j = np.unravel_index(np.argmax(ll), ll.shape)
        best = (alphas[i], betas[j])
        da, db = alphas[1] - alphas[0], betas[1] - betas[0]
        a_lo, a_hi = best[0] - 2 * da, best[0] + 2 * da
        b_lo, b_hi = best[1] - 2 * db, best[1] + 2 * db
    return best


def test_gamma_mle_matches_grid_search():
    data = sample(FittedModel(FamilyId.GAMMA, (3.0, 1.0)), 10, substream("gamma-fit"))
    m = fit_mle(FamilyId.GAMMA, data)
    a_star, b_star = _gamma_grid_oracle(data, m.theta)
    assert m.theta[0] == pytest.approx(a_star, abs=1e-4)
    assert m.theta[1] == pytest.approx(b_star, abs=1e-4)


def test_fit_preconditions():
    with pytest.raises(DataError):
        fit_mle(FamilyId.NORMAL, np.array([1.0, 2.0]))  # below min size
    with pytest.raises(SupportError):
        fit_mle(FamilyId.GAMMA, np.array([1.0, 2.0, -0.5]))
    with pytest.raises(DegenerateDataError):
        fit_mle(FamilyId.NORMAL, np.array([2.0, 2.0, 2.0]))
    with pytest.raises(FitError):
        fit_mle(FamilyId.CAUCHY, np.array([1.0, 2.0, 3.0]))  # sampler-only


@pytest.mark.parametrize("family, theta", [
    (FamilyId.NORMAL, (0.5, 2.0)),
    (FamilyId.EXPONENTIAL, (2.0,)),
    (FamilyId.GAMMA, (3.0, 1.0)),
    (FamilyId.LAPLACE, (0.0, 1.0 / math.sqrt(2.0))),
    (FamilyId.LOGNORMAL, (0.2, 0.8)),
    (FamilyId.GENGAMMA, (2.0, 3.0, 1.5)),
])
def test_fit_is_local_maximum(family, theta):
    truth = FittedModel(family, theta)
    data = sample(truth, 400, substream("localmax", family.value))
    m = fit_mle(family, data)
    base = mean_log_likelihood(m, data)
    for k, t_k in enumerate(m.theta):
        for eps in (-1e-3, 1e-3):
            perturbed = list(m.theta)
            perturbed[k] = t_k * (1.0 + eps) if t_k != 0 else eps
            try:
                cand = FittedModel(family, tuple(perturbed))
            except InvalidParameterError:
                continue
            # small slack: the GG fit's Newton steps in ln p stop at 1e-10, and
            # its (a, d) follow from p through a profile evaluated in rounding
            assert mean_log_likelihood(cand, data) <= base + 1e-7


def test_gengamma_fit_faithful_reaches_profile_maximum():
    x = load_dataset("faithful-hardle").values
    assert fit_mle(FamilyId.GENGAMMA, x).theta[2] == pytest.approx(17.9573, rel=1e-4)


def _log_deviations(rows):
    lx = np.log(np.atleast_2d(rows))
    return lx - families._mean(lx)[:, None]


def _profile(dev, ln_p):
    """The GG profile's log-likelihood, score and curvature in ln p."""
    ll, k, _ = families._gamma_profile(dev, ln_p)
    g, v = families._profile_moments(dev, ln_p)
    return (ll, *families._profile_slopes(k, g, v))


_PROFILE_SAMPLES = [
    pytest.param(load_dataset("faithful-hardle").values, False, id="faithful"),
    pytest.param(substream("gg-slopes", "wide").lognormal(0.0, 2.0, 200), True, id="wide"),
    pytest.param(substream("gg-slopes", "narrow").lognormal(0.0, 0.05, 200), False, id="narrow"),
    pytest.param(substream("gg-slopes", "gg").gamma(4.0 / 3.0, 1.0, 100) ** (2.0 / 3.0), False,
                 id="gg"),
]


@pytest.mark.parametrize("x, shifted", _PROFILE_SAMPLES)
def test_gengamma_profile_slopes_match_differences(x, shifted):
    # oracle: central differences of the profile's own log-likelihood (for
    # the score) and score (for the curvature) in ln p, at steps 1e-3 and
    # 2e-3, Richardson-extrapolated, at every grid point; the wide sample
    # takes p dev past the shift at 500, and every sample reaches the shape's
    # series branch at k >= 20
    dev = _log_deviations(x)
    u = families._GG_LN_P[None, :]
    k = families._gamma_profile(dev, u)[1]
    assert ((np.exp(u) * dev.max()).max() > 500.0) == shifted
    assert (k >= families._SERIES_FROM).any()
    _, score, curv = _profile(dev, u)

    def diff(j, h):
        d = lambda h: (_profile(dev, u + h)[j] - _profile(dev, u - h)[j]) / (2.0 * h)
        return (4.0 * d(h / 2.0) - d(h)) / 3.0

    assert score == pytest.approx(diff(0, 2e-3), rel=1e-6)
    # the curvature crosses 0 on the wide sample's grid
    assert curv == pytest.approx(diff(1, 2e-3), rel=1e-6, abs=1e-10)


def _bootstrap_rows(rows, n):
    """Bootstrap rows of the faithful GG fit."""
    fitted = fit_mle(FamilyId.GENGAMMA, load_dataset("faithful-hardle").values)
    streams = _PrefixStreams(123, "boot")
    return np.array([sample(fitted, n, streams(r, 0)) for r in range(rows)])


@pytest.mark.parametrize("rows", [
    *(pytest.param(param.values[0][None, :], id=param.id) for param in _PROFILE_SAMPLES),
    pytest.param(_bootstrap_rows(40, 272), id="40-rows"),
    # a row's 60 points of p dev do not fit one block, so they are split
    pytest.param(_bootstrap_rows(3, 3000), id="long-rows"),
])
def test_gengamma_profile_bits_do_not_depend_on_the_block_layout(rows):
    # the grid call equals its one-column and one-row calls bit for bit
    dev = _log_deviations(rows)
    grid = np.broadcast_to(families._GG_LN_P, (rows.shape[0], families._GG_LN_P.size))
    for f in (families._gamma_profile, families._profile_moments):
        whole = f(dev, grid)
        by_col = [f(dev, grid[:, j:j + 1]) for j in range(grid.shape[1])]
        by_row = [f(dev[i:i + 1], grid[i:i + 1]) for i in range(grid.shape[0])]
        for t, col in enumerate(whole):
            assert col.tobytes() == np.hstack([c[t] for c in by_col]).tobytes(), (f, t)
            assert col.tobytes() == np.vstack([r[t] for r in by_row]).tobytes(), (f, t)


def test_gengamma_fit_memory_stays_linear_in_n():
    # p dev is built in blocks of at most 2^16 elements: a whole (60, n)
    # grid block would take 9.6 MB at this size
    x = substream("gg-memory").gamma(2.0, 1.0, 20_000)
    tracemalloc.start()
    try:
        fit_mle(FamilyId.GENGAMMA, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_gengamma_fit_lands_on_the_profile_score_root():
    # bootstrap rows of the faithful fit at three sizes: each fitted row's p
    # is a root of its profile score, not a nearby point the refinement left
    # behind or the grid point it started from; 1e-13 allows for the
    # profile's own rounding
    fitted_rows = 0
    for n in (30, 100, 272):
        rows = _bootstrap_rows(60, n)
        theta, failures = families._fit_rows(FamilyId.GENGAMMA, rows)
        ok = np.array([i not in failures for i in range(len(rows))])
        u = np.log(theta[2][ok])[:, None] + np.log1p([[0.0, -1e-6, 1e-6]])
        ll, score, _ = _profile(_log_deviations(rows[ok]), u)
        assert np.abs(score[:, 0]).max() <= 1e-9
        assert (ll[:, :1] >= ll[:, 1:] - 1e-13).all()
        fitted_rows += int(ok.sum())
    assert fitted_rows >= 120


def test_gengamma_lone_fit_takes_few_profile_calls(monkeypatch):
    # the grid scan, then a few Newton steps rather than a crawl along the bracket
    calls = []

    def counted(dev, ln_p):
        calls.append(ln_p.shape)
        return real(dev, ln_p)

    real = families._gamma_profile
    monkeypatch.setattr(families, "_gamma_profile", counted)
    fit_mle(FamilyId.GENGAMMA, load_dataset("faithful-hardle").values)
    assert calls[0] == (1, families._GG_LN_P.size) and len(calls) <= 10


@pytest.mark.parametrize("theta", [
    (1.0, 2.0, 0.5), (1.0, 0.7, 0.6), (2.0, 3.0, 1.5), (1.0, 5.0, 3.0), (10.0, 4.0, 8.0),
])
def test_gengamma_fit_beats_dense_profile_oracle(theta):
    # oracle: for fixed p, x^p ~ Gamma(d/p, a^p); the gamma MLE of x^p mapped
    # back to (a, d, p) on 400 log-spaced p, up to where x^p stays in range
    x = sample(FittedModel(FamilyId.GENGAMMA, theta), 300, substream("gg-oracle", *theta))
    fit = mean_log_likelihood(fit_mle(FamilyId.GENGAMMA, x), x)
    p_hi = min(200.0, 700.0 / float(np.max(np.abs(np.log(x)))))
    best = -math.inf
    for p in np.geomspace(0.05, p_hi, 400):
        k, scale = fit_mle(FamilyId.GAMMA, x ** p).theta
        oracle = FittedModel(FamilyId.GENGAMMA, (math.exp(math.log(scale) / p), p * k, p))
        best = max(best, mean_log_likelihood(oracle, x))
    assert fit >= best - 1e-12


def _cv_sample(generator, cv, n, seed):
    rng = np.random.default_rng(seed)
    if generator == "normal":
        return rng.normal(1000.0, 1000.0 * cv, n)
    if generator == "gamma":
        return rng.gamma(1.0 / cv**2, 1000.0 * cv**2, n)
    return rng.lognormal(0.0, math.sqrt(math.log1p(cv**2)), n)


@settings(max_examples=150, deadline=None)
@given(
    generator=st.sampled_from(["normal", "gamma", "lognormal"]),
    cv=st.floats(-4.0, 1.0).map(lambda u: 10.0 ** u),
    n=st.integers(10, 300),
    seed=st.integers(0, 2**32 - 1),
)
@example(generator="normal", cv=0.01, n=300, seed=0)
@example(generator="normal", cv=0.02, n=300, seed=0)
def test_gamma_and_gengamma_fit_any_coefficient_of_variation(generator, cv, n, seed):
    # every draw either fits to finite parameters or fails with a typed data
    # error (values <= 0) or, for the GG only, a fit error; the fitter itself
    # never produces invalid parameters
    x = _cv_sample(generator, cv, n, seed)
    for family, allowed in ((FamilyId.GAMMA, DataError), (FamilyId.GENGAMMA, (FitError, DataError))):
        try:
            theta = fit_mle(family, x).theta
        except allowed as exc:
            assert not isinstance(exc.__cause__, InvalidParameterError), exc
        else:
            assert all(math.isfinite(t) and t > 0.0 for t in theta)


@pytest.mark.parametrize("cv", [1e-4, 1e-3, 1e-2])
def test_gamma_fit_small_coefficient_of_variation(cv):
    # reference: s = ln mean(x) - mean(ln x) from the Taylor series of
    # mean(e^dev) in the moments of dev = ln x - mean(ln x), then the shape
    # from ln a - psi(a) = 1/(2a) + 1/(12a^2) + O(a^-4), exact here to ~1e-13
    x = _cv_sample("normal", cv, 300, 0)
    dev = np.log(x) - np.log(x).mean()
    m1 = dev.mean()
    gap = math.log1p(sum(np.mean(dev**j) / math.factorial(j) for j in range(1, 11))) - m1
    a_ref = (6.0 + math.sqrt(36.0 + 48.0 * gap)) / (24.0 * gap)
    alpha, beta = fit_mle(FamilyId.GAMMA, x).theta
    assert alpha == pytest.approx(a_ref, rel=1e-9)
    assert alpha * beta == pytest.approx(x.mean(), rel=1e-12)


def test_nonfinite_fit_raises_fit_error(monkeypatch):
    # an invalid fitted theta is a failed fit (exit 4), not a usage error
    real = families.FAMILIES[FamilyId.NORMAL]

    def fit(rows):
        return (np.full(len(rows), math.nan), np.ones(len(rows))), {}

    monkeypatch.setitem(families.FAMILIES, FamilyId.NORMAL, dataclasses.replace(real, fit=fit))
    with pytest.raises(FitError, match="invalid parameters") as info:
        fit_mle(FamilyId.NORMAL, np.array([1.0, 2.0, 4.0]))
    assert info.value.exit_code == 4
    assert isinstance(info.value.__cause__, InvalidParameterError)


def test_exponential_fit_scale_equivariant():
    data = sample(FittedModel(FamilyId.EXPONENTIAL, (2.0,)), 100, substream("scale-eq"))
    base = fit_mle(FamilyId.EXPONENTIAL, data).theta[0]
    for c in (0.5, 2.0, 4.0):  # dyadic factors scale floats exactly
        assert fit_mle(FamilyId.EXPONENTIAL, c * data).theta[0] == c * base
    assert fit_mle(FamilyId.EXPONENTIAL, 7.0 * data).theta[0] == pytest.approx(7.0 * base, rel=1e-14)


def test_gamma_fit_scale_equivariant():
    data = sample(FittedModel(FamilyId.GAMMA, (3.0, 1.0)), 200, substream("scale-eq-g"))
    a0, b0 = fit_mle(FamilyId.GAMMA, data).theta
    for c in (0.5, 4.0):
        a1, b1 = fit_mle(FamilyId.GAMMA, c * data).theta
        assert a1 == pytest.approx(a0, rel=1e-9)
        assert b1 == pytest.approx(c * b0, rel=1e-9)


@pytest.mark.parametrize("family, theta", [
    (FamilyId.NORMAL, (0.0, 1.0)),
    (FamilyId.EXPONENTIAL, (2.0,)),
    (FamilyId.GAMMA, (3.0, 1.0)),
    (FamilyId.LAPLACE, (0.0, 1.0 / math.sqrt(2.0))),
    (FamilyId.LOGNORMAL, (0.3466, math.log(2.0))),
    (FamilyId.GENGAMMA, (2.0, 3.0, 1.5)),
])
def test_sample_fit_roundtrip(family, theta):
    # mean of 16 replicate fits at n=10^4 within 5 MC SEs of the truth
    reps, n = 16, 10_000
    fits = []
    for r in range(reps):
        data = sample(FittedModel(family, theta), n, substream("roundtrip", family.value, r))
        fits.append(fit_mle(family, data).theta)
    fits = np.asarray(fits)
    mean = fits.mean(axis=0)
    se = fits.std(axis=0, ddof=1) / math.sqrt(reps)
    for j, t_j in enumerate(theta):
        assert abs(mean[j] - t_j) <= 5.0 * se[j], (
            f"param {j}: mean {mean[j]:.5f} vs {t_j} (se {se[j]:.5f})"
        )


# --------------------------------------------------------------------------
# sampling
# --------------------------------------------------------------------------

def test_sample_rejects_nonpositive_n():
    with pytest.raises(InvalidParameterError):
        sample(FittedModel(FamilyId.NORMAL, (0.0, 1.0)), 0, substream("s"))


def test_sample_deterministic_given_stream():
    m = FittedModel(FamilyId.GAMMA, (3.0, 1.0))
    a = sample(m, 1, substream("det", 1))
    b = sample(m, 1, substream("det", 1))
    assert a == b


def test_sample_respects_support():
    for family in TESTABLE_NULLS:
        fam = get_family(family)
        theta = {
            FamilyId.NORMAL: (0.0, 1.0), FamilyId.EXPONENTIAL: (2.0,),
            FamilyId.GAMMA: (3.0, 1.0), FamilyId.LAPLACE: (0.0, 1.0),
            FamilyId.LOGNORMAL: (0.0, 1.0), FamilyId.GENGAMMA: (2.0, 3.0, 1.5),
        }[family]
        x = sample(FittedModel(family, theta), 2000, substream("supp", family.value))
        if fam.support is Support.POSITIVE:
            assert np.min(x) > 0.0


def test_exponential_sample_mean_clt():
    m = FittedModel(FamilyId.EXPONENTIAL, (2.0,))
    x = sample(m, 10**5, substream("clt-exp"))
    se = 2.0 / math.sqrt(10**5)
    assert abs(x.mean() - 2.0) < 4.0 * se


def test_scaled_t_unit_variance():
    # t(3)/sqrt(3) has variance 1; heavy tails make the sample variance
    # noisy, hence the 5% band at n=1e5 with a fixed stream
    m = FittedModel(FamilyId.SCALED_T, (3.0, 1.0 / math.sqrt(3.0)))
    x = sample(m, 10**5, substream("clt-t3"))
    assert abs(x.var() - 1.0) < 0.05


# --------------------------------------------------------------------------
# null-implied kurtosis
# --------------------------------------------------------------------------

def test_kurtosis_normal_and_laplace():
    assert null_kurtosis(FittedModel(FamilyId.NORMAL, (3.0, 2.0))) == 3.0
    assert null_kurtosis(FittedModel(FamilyId.LAPLACE, (0.0, 1.0))) == 6.0


def test_laplace_kurtosis_against_monte_carlo():
    x = sample(FittedModel(FamilyId.LAPLACE, (0.0, 1.0)), 10**6, substream("kurt-lap"))
    c = x - x.mean()
    k = np.mean(c**4) / np.mean(c**2) ** 2
    assert abs(k - 6.0) < 0.2


def test_positive_support_kurtosis_is_ln_scale():
    # exponential: kurtosis of ln X = 3 + psi'''(1)/psi'(1)^2 = 5.4
    k = null_kurtosis(FittedModel(FamilyId.EXPONENTIAL, (2.0,)))
    assert k == pytest.approx(5.4, abs=1e-12)
    # gamma(3): 3 + psi'''(3)/psi'(3)^2, checked against a 10^6-draw ln-sample
    m = FittedModel(FamilyId.GAMMA, (3.0, 1.0))
    k0 = null_kurtosis(m)
    y = np.log(sample(m, 10**6, substream("kurt-gam")))
    c = y - y.mean()
    assert abs(np.mean(c**4) / np.mean(c**2) ** 2 - k0) < 0.05
    # 3 + psi'''(3)/psi'(3)^2 with psi'''(3) = 6 zeta(4) - 51/8, psi'(3) = pi^2/6 - 5/4
    zeta4 = math.pi ** 4 / 90.0
    expected = 3.0 + (6.0 * zeta4 - 51.0 / 8.0) / (math.pi ** 2 / 6.0 - 1.25) ** 2
    assert k0 == pytest.approx(expected, abs=1e-12)


def test_kurtosis_unsupported_family():
    with pytest.raises(InvalidParameterError):
        null_kurtosis(FittedModel(FamilyId.CAUCHY, (0.0, 1.0)))
