"""The gamma-function helpers of ``ddetest.families`` against scipy.special.

The package computes ln k - psi(k), 1 - k psi'(k), k ln k - k - ln Gamma(k)
and the ln-gamma kurtosis 3 + psi'''/psi'^2 from the recurrence and
asymptotic series; ``scipy.special`` is the oracle here and is used by the
tests only.  Each check allows a few dozen roundings of the oracle's own
terms, since the oracle's direct differences cancel where the package's
forms do not.
"""
import math

import numpy as np
import pytest
from scipy.special import digamma, gammaln, polygamma

from ddetest import families

EPS = np.finfo(float).eps
ULPS = 32.0  # allowed error, in roundings of the oracle's largest term
# a log grid over the shapes the fits reach, and the lift's threshold
K = np.concatenate([np.geomspace(1e-3, 1e4, 2001),
                    [19.999, families._SERIES_FROM, 20.001]])


def _gap(k):
    return families._shape_gap(k)[0]


def _dgap(k):
    return families._shape_gap(k)[1]


def _trigamma(k):
    return families._log_gamma_cumulants(k)[0]


def _oracle_kurtosis(k):
    return 3.0 + polygamma(3, k) / polygamma(1, k) ** 2


# each helper with its oracle and the oracle's rounding scale
CASES = {
    "gap": (_gap, lambda k: np.log(k) - digamma(k),
            lambda k: np.abs(np.log(k)) + np.abs(digamma(k))),
    "dgap": (_dgap, lambda k: 1.0 - k * polygamma(1, k), lambda k: 1.0 + k * polygamma(1, k)),
    "free_loglik": (families._free_loglik, lambda k: k * np.log(k) - k - gammaln(k),
                    lambda k: np.abs(k * np.log(k)) + k + np.abs(gammaln(k))),
    "trigamma": (_trigamma, lambda k: polygamma(1, k), lambda k: polygamma(1, k)),
    "kurtosis": (families._ln_gamma_kurtosis, _oracle_kurtosis, _oracle_kurtosis),
}


@pytest.mark.parametrize("name", CASES)
def test_matches_scipy_oracle(name):
    f, oracle, scale = CASES[name]
    err = np.abs(f(K) - oracle(K)) / (EPS * scale(K))
    assert err.max() <= ULPS, K[np.argmax(err)]


@pytest.mark.parametrize("name", CASES)
def test_each_value_is_its_own(name):
    # an element's value is bit-identical alone (0-d, a Python float, a
    # one-element array) and inside any larger array, in any order or shape
    f = CASES[name][0]
    full = f(K)
    assert full.shape == K.shape
    order = np.random.default_rng(5).permutation(K.size)
    assert np.array_equal(f(K[order]), full[order])
    assert np.array_equal(f(K.reshape(-1, 4)), full.reshape(-1, 4))
    for i in range(0, K.size, 37):
        for alone in (K[i], float(K[i]), np.array(K[i]), K[i:i + 1]):
            assert np.asarray(f(alone)).ravel()[0] == full[i], (name, K[i])


def test_large_shapes_are_the_series_alone():
    # at k >= 20 the lift takes no step: the values are the series' own
    k = K[K >= families._SERIES_FROM]
    gap, dgap = families._shape_gap(k)
    assert np.array_equal(gap, families._gap_series(k))
    assert np.array_equal(dgap, families._dgap_series(k))
    tail = 0.5 * np.log(k / (2.0 * math.pi)) + families._stirling_tail(k)
    assert np.array_equal(families._free_loglik(k), tail)


def test_nan_stays_nan_without_warning():
    # a failed shape solve leaves NaN in k; the helpers pass it on quietly
    # (warnings are errors under the test configuration) and leave the other
    # elements as they are
    k = np.array([0.5, np.nan, 30.0])
    for name, (f, _, _) in CASES.items():
        out = f(k)
        assert np.isnan(out[1]), name
        assert np.array_equal(out[[0, 2]], f(k[[0, 2]])), name
    assert np.isnan(families._free_loglik(float("nan")))


def test_exact_values_at_one():
    # psi'(1) = pi^2/6 and psi'''(1) = pi^4/15, so the kurtosis of ln E for
    # E ~ Exp(1) is exactly 27/5
    trigamma, pentagamma = families._log_gamma_cumulants(1.0)
    assert trigamma == pytest.approx(math.pi ** 2 / 6.0, rel=EPS)
    assert pentagamma == pytest.approx(math.pi ** 4 / 15.0, rel=2 * EPS)
    assert families._ln_gamma_kurtosis(1.0) == 5.4
    # ln 1 - psi(1) is Euler's constant; 1 ln 1 - 1 - ln Gamma(1) = -1
    assert families._gap(1.0) == pytest.approx(np.euler_gamma, rel=4 * EPS)
    assert families._free_loglik(1.0) == pytest.approx(-1.0, rel=4 * EPS)
