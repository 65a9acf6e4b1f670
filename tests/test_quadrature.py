import math

import numpy as np
import pytest

from ddetest.errors import DegenerateDataError, InvalidParameterError
from ddetest.families import Support
from ddetest.quadrature import IntegrationRange, Scale, entropy_range
from ddetest.streams import substream

from oracles import integrate

HALF_LN_2PIE = 0.5 * math.log(2.0 * math.pi * math.e)


def phi(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


# the oracle integrator of tests/oracles.py, which criteria 1 and 2 rely on

def test_constant_integrand_exact():
    val = integrate(lambda x: np.ones_like(x), IntegrationRange(0.0, 1.0), tol=1e-8)
    assert val == pytest.approx(1.0, abs=1e-14)


def test_normal_pdf_normalizes():
    val = integrate(phi, IntegrationRange(-8.0, 8.0), tol=1e-12)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_normal_entropy_integrand():
    def nent(x):
        p = phi(x)
        return np.where(p > 0, -p * np.log(np.where(p > 0, p, 1.0)), 0.0)

    val = integrate(nent, IntegrationRange(-8.0, 8.0), tol=1e-10)
    assert val == pytest.approx(HALF_LN_2PIE, abs=1e-8)


@pytest.mark.parametrize("f, lo, hi", [
    (lambda x: np.sin(x) ** 2, 0.0, 3.0),
    (phi, -6.0, 6.0),
    (lambda x: x ** 7 - 3 * x ** 2 + 1, -2.0, 2.0),
    (lambda x: np.exp(-np.abs(x)), -10.0, 10.0),
])
def test_tolerance_refinement_consistent(f, lo, hi):
    # loosening the tolerance from 1e-10 to 1e-6 moves the answer by <= 2e-6
    r = IntegrationRange(lo, hi)
    coarse = integrate(f, r, tol=1e-6)
    fine = integrate(f, r, tol=1e-10)
    assert abs(coarse - fine) <= 2e-6


def test_range_requires_order_and_finiteness():
    with pytest.raises(InvalidParameterError):
        IntegrationRange(1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        IntegrationRange(0.0, math.inf)


def test_entropy_range_rule():
    data = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    # q(.001) ~ min, q(.999) ~ max for a 5-point sample under linear interpolation
    r = entropy_range(data, h=0.5, support=Support.REAL)
    q_low, q_high = np.quantile(data, [0.001, 0.999])
    assert r.lower == pytest.approx(q_low - 2.5)
    assert r.upper == pytest.approx(q_high + 2.5)
    assert r.scale is Scale.RAW


def test_entropy_range_positive_uses_ln_scale():
    ln_data = np.array([-1.0, 0.0, 0.5, 1.0])
    r = entropy_range(np.exp(ln_data), h=0.3, support=Support.POSITIVE)
    q_low, q_high = np.quantile(ln_data, [0.001, 0.999])
    assert r.scale is Scale.LN
    assert r.lower == pytest.approx(q_low - 1.5, abs=1e-9)
    assert r.upper == pytest.approx(q_high + 1.5, abs=1e-9)


def test_entropy_range_degenerate_data():
    with pytest.raises(DegenerateDataError):
        entropy_range(np.ones(10), h=0.5, support=Support.POSITIVE)


def test_entropy_range_translation_equivariant():
    data = substream("qrange", 0).normal(0.0, 1.0, 200)
    base = entropy_range(data, h=0.4, support=Support.REAL)
    shifted = entropy_range(data + 5.0, h=0.4, support=Support.REAL)
    assert shifted.lower == pytest.approx(base.lower + 5.0, abs=1e-12)
    assert shifted.upper == pytest.approx(base.upper + 5.0, abs=1e-12)


def test_widening_range_multiple_is_immaterial():
    # tail-truncation insensitivity: m=5 vs m=8 changes a smooth KDE entropy
    # integral by < 1e-6
    data = substream("qrange", 1).normal(0.0, 1.0, 500)
    h = data.std() * data.size ** -0.2
    norm = 1.0 / (data.size * h * math.sqrt(2 * math.pi))

    def integrand(pts):
        z = (pts[:, None] - data[None, :]) / h
        t = np.exp(-0.5 * z * z).sum(axis=1) * norm
        return np.where(t > 0, -t * np.log(np.where(t > 0, t, 1.0)), 0.0)

    v5 = integrate(integrand, entropy_range(data, h, Support.REAL, m=5.0), tol=1e-10)
    v8 = integrate(integrand, entropy_range(data, h, Support.REAL, m=8.0), tol=1e-10)
    assert abs(v5 - v8) < 1e-6
