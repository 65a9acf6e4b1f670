import math

import numpy as np
import pytest

from ddetest.bandwidth import BandwidthSpec, Regime, ShapeStats
from ddetest.entropy import de_kde
from ddetest.errors import DegenerateDataError
from ddetest.quadrature import RANGE_BANDWIDTH_MULTIPLE, Scale, range_bounds
from ddetest.streams import substream

from oracles import integrate

HALF_LN_2PIE = 0.5 * math.log(2.0 * math.pi * math.e)


def phi(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


# the oracle integrator of tests/oracles.py, which criteria 1 and 2 rely on

def test_constant_integrand_exact():
    val = integrate(lambda x: np.ones_like(x), 0.0, 1.0, tol=1e-8)
    assert val == pytest.approx(1.0, abs=1e-14)


def test_normal_pdf_normalizes():
    val = integrate(phi, -8.0, 8.0, tol=1e-12)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_normal_entropy_integrand():
    def nent(x):
        p = phi(x)
        return np.where(p > 0, -p * np.log(np.where(p > 0, p, 1.0)), 0.0)

    val = integrate(nent, -8.0, 8.0, tol=1e-10)
    assert val == pytest.approx(HALF_LN_2PIE, abs=1e-8)


@pytest.mark.parametrize("f, lo, hi", [
    (lambda x: np.sin(x) ** 2, 0.0, 3.0),
    (phi, -6.0, 6.0),
    (lambda x: x ** 7 - 3 * x ** 2 + 1, -2.0, 2.0),
    (lambda x: np.exp(-np.abs(x)), -10.0, 10.0),
])
def test_tolerance_refinement_consistent(f, lo, hi):
    # loosening the tolerance from 1e-10 to 1e-6 moves the answer by <= 2e-6
    coarse = integrate(f, lo, hi, tol=1e-6)
    fine = integrate(f, lo, hi, tol=1e-10)
    assert abs(coarse - fine) <= 2e-6


def _bw(h, n, scale):
    stats = ShapeStats(3.0, 0.0, 3.0, 3.0, 1.0, 1.0)
    return BandwidthSpec(h=h, c=1.0, k_n=1.0, n=n, scale=scale, shape=stats,
                         regime=Regime.RIGHT_SKEWED_POSITIVE)


def test_entropy_range_rule():
    data = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    # q(.001) ~ min, q(.999) ~ max for a 5-point sample under linear interpolation
    lower, upper = range_bounds(data, 0.5)
    q_low, q_high = np.quantile(data, [0.001, 0.999])
    assert lower == pytest.approx(q_low - 2.5)
    assert upper == pytest.approx(q_high + 2.5)


def test_entropy_range_positive_uses_ln_scale():
    # the rule runs on the working scale: ln x for an ln-scale bandwidth
    ln_data = np.array([-1.0, 0.0, 0.5, 1.0])
    lower, upper = range_bounds(np.log(np.exp(ln_data)), 0.3)
    q_low, q_high = np.quantile(ln_data, [0.001, 0.999])
    assert lower == pytest.approx(q_low - 1.5, abs=1e-9)
    assert upper == pytest.approx(q_high + 1.5, abs=1e-9)


def test_entropy_range_degenerate_data():
    with pytest.raises(DegenerateDataError):
        de_kde(np.ones(10), _bw(0.5, 10, Scale.LN))


def test_entropy_range_translation_equivariant():
    data = substream("qrange", 0).normal(0.0, 1.0, 200)
    base = range_bounds(np.sort(data), 0.4)
    shifted = range_bounds(np.sort(data + 5.0), 0.4)
    assert shifted[0] == pytest.approx(base[0] + 5.0, abs=1e-12)
    assert shifted[1] == pytest.approx(base[1] + 5.0, abs=1e-12)


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

    q_low, q_high = np.quantile(data, [0.001, 0.999])
    assert RANGE_BANDWIDTH_MULTIPLE == 5.0
    v5 = integrate(integrand, *range_bounds(np.sort(data), h), tol=1e-10)
    v8 = integrate(integrand, q_low - 8.0 * h, q_high + 8.0 * h, tol=1e-10)
    assert abs(v5 - v8) < 1e-6


def _range_rows(kind, rows, n, rng):
    if kind == "cauchy":
        return rng.standard_cauchy((rows, n))
    if kind == "ties":
        return np.round(rng.normal(0.0, 1.0, (rows, n)), 1)
    x = rng.normal(0.0, 1.0, (rows, n))
    x[:, rng.integers(0, n)] = np.inf
    x[:, rng.integers(0, n)] = -np.inf
    return x


@pytest.mark.parametrize("kind", ["cauchy", "ties", "inf"])
def test_range_bounds_on_sorted_rows_is_numpy_linear_quantile(kind):
    # the order statistics of the sorted rows give np.quantile's bits
    rng = substream("qrange", "sorted", kind)
    for n in [4, 5, 7, 100, 999, 1000, 1001, 1002, 2345, 5000]:
        rows = int(rng.integers(1, 9))
        x, h = _range_rows(kind, rows, n, rng), rng.uniform(0.01, 2.0, rows)
        with np.errstate(invalid="ignore"):  # inf - inf in the interpolation
            lower, upper = range_bounds(np.sort(x, axis=1), h)
            q_low, q_high = np.quantile(x, [0.001, 0.999], axis=1, method="linear")
            assert lower.tobytes() == (q_low - RANGE_BANDWIDTH_MULTIPLE * h).tobytes()
            assert upper.tobytes() == (q_high + RANGE_BANDWIDTH_MULTIPLE * h).tobytes()
            one = range_bounds(np.sort(x[0]), h[0])
        assert np.float64(one[0]).tobytes() == lower[:1].tobytes()
        assert np.float64(one[1]).tobytes() == upper[:1].tobytes()
