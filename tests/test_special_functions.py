"""The gamma-function helpers of ``ddetest.families`` against scipy.special.

The package computes ln k - psi(k), 1 - k psi'(k), k ln k - k - ln Gamma(k)
and the ln-gamma kurtosis 3 + psi'''/psi'^2 from the recurrence and
asymptotic series, and tabulates the gamma profile phi(s) and shape k*(s)
for the generalized-gamma fit; ``scipy`` is the oracle here and is used by
the tests only.  Each check allows a few dozen roundings of the oracle's own
terms, since the oracle's direct differences cancel where the package's
forms do not.
"""
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import digamma, gammaln, polygamma

from ddetest import families
from oracles import gamma_profile, gamma_shape

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


# the table's stated error against the exact path: phi absolute, k and
# dk/ds relative
TABLE_ERROR = {"phi": 1.5e-14, "k": 1e-14, "dk": 2e-12}
# 20 000 log-uniform s across the table's range, and every piece boundary
TABLE_S = np.concatenate([
    np.exp(np.random.default_rng(29).uniform(families._TABLE_FROM, families._TABLE_TO, 20_000)),
    np.exp(families._TABLE_FROM + families._TABLE_WIDTH * np.arange(families._TABLE_PIECES + 1)),
])


def test_profile_table_matches_exact_path_and_scipy_oracle():
    s = TABLE_S
    phi, k, dk = families._shape_profile(s)
    exact_phi, exact_k = families._exact_profile(s)
    exact_dk = exact_k / families._shape_gap(exact_k)[1]
    assert np.abs(phi - exact_phi).max() <= TABLE_ERROR["phi"]
    assert np.abs(k / exact_k - 1.0).max() <= TABLE_ERROR["k"]
    assert np.abs(dk / exact_dk - 1.0).max() <= TABLE_ERROR["dk"]
    # against scipy: the stated error plus ULPS roundings of the oracle's
    # terms.  ln k - psi(k) = s and k ln k - k - ln Gamma(k) cancel to about
    # 1/(2k) at large k, so the oracle itself is loose at small s
    oracle_k = gamma_shape(s)
    dgap = 1.0 - oracle_k * polygamma(1, oracle_k)
    scales = {
        "phi": (np.abs(oracle_k * np.log(oracle_k)) + oracle_k + np.abs(gammaln(oracle_k))
                + oracle_k * s),
        "k": (np.abs(np.log(oracle_k)) + np.abs(digamma(oracle_k)) + s) / np.abs(dgap),
        "dk": (1.0 + oracle_k * polygamma(1, oracle_k)) / np.abs(dgap),
    }
    errors = {
        "phi": np.abs(phi - gamma_profile(s, oracle_k)),
        "k": np.abs(k / oracle_k - 1.0),
        "dk": np.abs(dk * dgap / oracle_k - 1.0),  # the oracle's dk/ds is k / dgap
    }
    for name, scale in scales.items():
        err = (errors[name] - TABLE_ERROR[name]) / (EPS * scale)
        assert err.max() <= ULPS, (name, s[np.argmax(err)])


def test_profile_table_values_are_their_own():
    # an element's (phi, k, dk/ds) is bit-identical alone and inside any
    # array, in any order or shape, with or without the slopes
    s = TABLE_S[:2000]
    full = families._shape_profile(s)
    assert np.array_equal(families._shape_profile(s, slopes=False)[0], full[0])
    grid = families._shape_profile(s.reshape(-1, 40))
    order = np.random.default_rng(6).permutation(s.size)
    shuffled = families._shape_profile(s[order])
    for t, col in enumerate(full):
        assert np.array_equal(grid[t].ravel(), col)
        assert np.array_equal(shuffled[t], col[order])
    for i in range(0, s.size, 97):
        alone = families._shape_profile(s[i:i + 1])
        assert all(a[0] == col[i] for a, col in zip(alone, full))


def test_profile_outside_the_table_is_the_exact_path():
    # s beyond [e^-14, e^9], s <= 0 and NaN take the exact path's bits,
    # alone and mixed with s inside the table
    off = np.array([1e-12, 1e-7, 0.99 * families._TABLE_S[0], 1.01 * families._TABLE_S[1],
                    1e5, 1e12, 0.0, -1.0, np.nan])
    exact_phi, exact_k = families._exact_profile(off)
    exact_dk = exact_k / families._shape_gap(exact_k)[1]
    assert (exact_phi[-3:] == -np.inf).all() and np.isnan(exact_k[-3:]).all()
    mixed = np.insert(off, [2, 5], [1e-3, 2.0])
    for s, at in ((off, slice(None)), (mixed, np.r_[0:2, 3:6, 7:11])):
        for got, want in zip(families._shape_profile(s), (exact_phi, exact_k, exact_dk)):
            assert got[at].tobytes() == want.tobytes()


def test_profile_table_is_built_on_first_use():
    # importing the package builds no table, so the CLI starts no slower
    code = ("import ddetest.cli, ddetest.families as f; "
            "print(f._profile_table.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                         text=True, check=True, env=os.environ)
    assert out.stdout.strip() == "0"
