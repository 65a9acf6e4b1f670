import numpy as np
import pytest

from ddetest import (
    FamilyId, FittedModel, InvalidParameterError, fit_mle, sample, select_bandwidth,
    shape_multiplier, small_sample_inflation, substream,
)
from ddetest.bandwidth import Regime, truncate_kurtosis
from ddetest.errors import DataError, DegenerateDataError
from ddetest.quadrature import Scale


def _regime(null_family, data):
    """The bandwidth regime of testing ``null_family`` on ``data``."""
    return select_bandwidth(fit_mle(null_family, data), data).regime


def _standardized_normal(n, tag):
    x = substream("bw", tag, n).normal(0.0, 1.0, n)
    return (x - x.mean()) / x.std()


def test_small_sample_inflation_anchor_points():
    assert small_sample_inflation(50) == 1.25
    assert small_sample_inflation(100) == 1.0
    assert small_sample_inflation(1000) == 1.0
    assert small_sample_inflation(75) == pytest.approx(1.125)


def test_small_sample_inflation_below_fifty():
    # linear extension with a floor at k(30) = 1.35
    assert small_sample_inflation(40) == pytest.approx(1.30)
    assert small_sample_inflation(30) == pytest.approx(1.35)
    assert small_sample_inflation(10) == pytest.approx(1.35)


def test_kurtosis_truncation():
    assert truncate_kurtosis(1.2) == 2.0
    assert truncate_kurtosis(5.5) == 5.5
    assert truncate_kurtosis(40.0) == 10.0


def test_shape_multiplier_rule():
    assert shape_multiplier(Regime.GAUSSIAN, 3.0, 9.9) == 1.0
    assert shape_multiplier(Regime.NEAR_GAUSSIAN, 6.0, 3.0) == 1.0
    # kappa0 = 2 tau  ->  c = 1 + 0.1 log2(2) = 1.1
    assert shape_multiplier(Regime.NON_GAUSSIAN_REAL, 6.0, 3.0) == pytest.approx(1.1)
    # ratio 16 clamps at 1.15 (raw value would be 1.4)
    assert shape_multiplier(Regime.RIGHT_SKEWED_POSITIVE, 32.0, 2.0) == 1.15
    # inverse ratio clamps at 0.85
    assert shape_multiplier(Regime.NON_GAUSSIAN_REAL, 2.0, 40.0) == 0.85


def test_regime_classification():
    data = _standardized_normal(200, "regime")
    assert _regime(FamilyId.NORMAL, data) is Regime.GAUSSIAN
    assert _regime(FamilyId.NORMAL, data**3) is Regime.GAUSSIAN  # null decides
    assert _regime(FamilyId.GAMMA, np.abs(data) + 0.1) is Regime.RIGHT_SKEWED_POSITIVE
    # near-Gaussian: real-line null, |skew| <= .5, kurtosis in [2, 4]
    assert _regime(FamilyId.LAPLACE, data) is Regime.NEAR_GAUSSIAN
    heavy = np.concatenate([data, [18.0, -18.0]])
    assert _regime(FamilyId.LAPLACE, heavy) is Regime.NON_GAUSSIAN_REAL


def test_regime_needs_four_observations():
    with pytest.raises(DataError):
        _regime(FamilyId.NORMAL, np.array([1.0, 2.0, 3.0]))


def test_bandwidth_gaussian_rate_value():
    # n = 250, sigma_hat = 1, c = k = 1  ->  h = 250^(-1/5)
    data = _standardized_normal(250, "rate")
    fitted = fit_mle(FamilyId.NORMAL, data)
    bw = select_bandwidth(fitted, data)
    assert bw.c == 1.0 and bw.k_n == 1.0
    assert bw.shape.sigma_hat == pytest.approx(1.0, abs=1e-12)
    assert bw.h == pytest.approx(250.0 ** -0.2, abs=1e-12)
    assert bw.scale is Scale.RAW
    assert bw.h == bw.k_n * bw.c * bw.shape.sigma_hat * bw.n ** -0.2


def test_bandwidth_small_sample_values():
    for n, k_expected in [(50, 1.25), (75, 1.125), (100, 1.0)]:
        data = _standardized_normal(n, f"k{n}")
        fitted = fit_mle(FamilyId.NORMAL, data)
        bw = select_bandwidth(fitted, data)
        assert bw.k_n == pytest.approx(k_expected)


def test_bandwidth_scales_linearly_in_sigma():
    data = substream("bw", "lin").normal(2.0, 3.0, 157)
    fitted = fit_mle(FamilyId.NORMAL, data)
    h1 = select_bandwidth(fitted, data).h
    fitted2 = fit_mle(FamilyId.NORMAL, 2.0 * data)
    h2 = select_bandwidth(fitted2, 2.0 * data).h
    assert h2 == pytest.approx(2.0 * h1, rel=1e-14)


def test_bandwidth_rate_in_n():
    # standardized data: h * n^(1/5) = k(n) * c; constant = 1 for n >= 100
    for n in (100, 250, 500, 2000):
        data = _standardized_normal(n, "rate2")
        fitted = fit_mle(FamilyId.NORMAL, data)
        bw = select_bandwidth(fitted, data)
        assert bw.h * n ** 0.2 == pytest.approx(1.0, abs=1e-12)


def test_bootstrap_regime_stability_under_normal_null():
    # every resample drawn from a fitted normal classifies as Gaussian
    fitted = FittedModel(FamilyId.NORMAL, (0.0, 1.0))
    for r in range(20):
        x = sample(fitted, 60, substream("bw-regime", r))
        assert _regime(FamilyId.NORMAL, x) is Regime.GAUSSIAN


def test_bounds_on_c_and_k():
    # c within [0.85, 1.15] and k_n within [1.0, 1.25] for n >= 50,
    # across adversarial samples
    rng = substream("bw-bounds")
    for r in range(40):
        n = int(rng.integers(50, 400))
        kind = r % 4
        if kind == 0:
            data = rng.standard_cauchy(n)
            null = FamilyId.LAPLACE
        elif kind == 1:
            data = np.abs(rng.standard_cauchy(n)) + 1e-6
            null = FamilyId.GAMMA
        elif kind == 2:
            data = rng.exponential(2.0, n)
            null = FamilyId.EXPONENTIAL
        else:
            data = rng.normal(0.0, 1.0, n) ** 3
            null = FamilyId.LAPLACE
        try:
            fitted = fit_mle(null, data)
        except DataError:
            continue
        bw = select_bandwidth(fitted, data)
        assert 0.85 <= bw.c <= 1.15
        assert 1.0 <= bw.k_n <= 1.25
        assert bw.h > 0.0


def test_ln_scale_stats_for_positive_nulls():
    m = FittedModel(FamilyId.GAMMA, (3.0, 1.0))
    data = sample(m, 300, substream("bw-ln"))
    fitted = fit_mle(FamilyId.GAMMA, data)
    bw = select_bandwidth(fitted, data)
    assert bw.scale is Scale.LN
    assert bw.regime is Regime.RIGHT_SKEWED_POSITIVE
    lx = np.log(data)
    assert bw.shape.sigma_hat == pytest.approx(lx.std(), abs=1e-12)
    # gamma_kurt consistency: kappa0 / tau(kappa_hat)
    assert bw.shape.gamma_kurt == pytest.approx(
        bw.shape.kappa0 / truncate_kurtosis(bw.shape.kappa_hat))


def test_degenerate_data_rejected():
    fitted = FittedModel(FamilyId.NORMAL, (0.0, 1.0))
    with pytest.raises(DegenerateDataError):
        select_bandwidth(fitted, np.ones(50))


def test_missing_null_kurtosis_is_a_usage_error():
    # weibull has no null-implied kurtosis (not a testable null): the rule refuses it
    fitted = FittedModel(FamilyId.WEIBULL, (1.7915, 3.3727))
    data = sample(fitted, 120, substream("bw-fallback"))
    with pytest.raises(InvalidParameterError, match="no null-implied kurtosis"):
        select_bandwidth(fitted, data)


def test_unrelated_kurtosis_error_propagates(monkeypatch):
    # an error from the kurtosis hook reaches the caller unchanged
    import ddetest.bandwidth as bw_mod

    def broken(model):
        raise ZeroDivisionError("bug in the kurtosis hook")

    monkeypatch.setattr(bw_mod, "null_kurtosis", broken)
    fitted = FittedModel(FamilyId.GAMMA, (3.0, 1.0))
    data = sample(fitted, 120, substream("bw-propagate"))
    with pytest.raises(ZeroDivisionError):
        select_bandwidth(fitted, data)


def test_sample_shape_matches_central_moments():
    from ddetest.bandwidth import _shape_rows

    x = substream("bw-shape").gamma(2.0, 3.0, 500)
    d = x - x.mean()
    m2, m3, m4 = (np.mean(d ** k) for k in (2, 3, 4))
    (sigma,), (skew,), (kurt,) = _shape_rows(x[None, :])[0]
    assert sigma == pytest.approx(np.sqrt(m2), rel=1e-14)
    assert skew == pytest.approx(m3 / m2 ** 1.5, rel=1e-13)
    assert kurt == pytest.approx(m4 / m2 ** 2, rel=1e-13)


def test_non_finite_working_variance_is_a_data_error():
    fitted = FittedModel(FamilyId.LAPLACE, (0.0, 1.0))
    data = np.array([-1e300, 1e300, 0.0, 5.0, -3.0])
    with pytest.raises(DataError, match="not finite"):
        select_bandwidth(fitted, data)
    with pytest.raises(DataError, match="not finite"):
        _regime(FamilyId.LAPLACE, data)


@pytest.mark.parametrize("family", [FamilyId.NORMAL, FamilyId.LAPLACE])
def test_huge_scale_data_runs_to_a_result(family):
    # the third and fourth moments of faithful-hardle x 1e150 overflow
    # unless they are taken on the standardized sample
    from ddetest import load_dataset, run_test

    data = load_dataset("faithful-hardle").values * 1e150
    res = run_test(family, data, n_boot=20, seed=1)
    assert np.isfinite(res.observed_dde) and res.boot.values.size == 20
    assert np.isfinite(res.bandwidth.shape.kappa_hat)
