import math

import numpy as np

from ddetest.special import digamma, log_gamma, trigamma


def test_digamma_recurrence():
    # psi(x+1) = psi(x) + 1/x
    x = np.linspace(0.5, 50.0, 397)
    lhs = digamma(x + 1.0)
    rhs = digamma(x) + 1.0 / x
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_trigamma_recurrence():
    x = np.linspace(0.5, 50.0, 199)
    assert np.max(np.abs(trigamma(x + 1.0) - (trigamma(x) - 1.0 / x ** 2))) < 1e-10


def test_log_gamma_on_integers():
    # ln Gamma(k) = ln (k-1)!
    fact = 1.0
    for k in range(2, 25):
        fact *= k - 1
        assert abs(log_gamma(k) - math.log(fact)) <= 1e-12 * abs(math.log(fact))
    assert log_gamma(1.0) == 0.0
