"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Criteria 5 and 6 run at desk scale by default (reps=300/n_boot=300 and
reps=200/n_boot=300); set DDETEST_FULL_SCALE=1 to run the full
1000 x 1000 study design over n in {50, 100, 250, 500}.  Both run at the
default thread count (``resolve_threads``): reports are the same at any
thread count, which criterion 9 checks.
"""
import math
import os
import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import ddetest as d
from ddetest.bandwidth import BandwidthSpec, Regime, ShapeStats
from ddetest.cli import main as cli_main
from ddetest.dde import BootstrapDistribution, resolve_threads
from ddetest.entropy import _kde_entropy_rows
from ddetest.families import FamilyId, FittedModel
from ddetest.montecarlo import NULL_MEMBERS
from ddetest.quadrature import Scale, range_bounds

from oracles import _de_ml_quadrature, integrate

FULL_SCALE = os.environ.get("DDETEST_FULL_SCALE", "") not in ("", "0")
HALF_LN_2PIE = 0.5 * math.log(2.0 * math.pi * math.e)


def _report(num: int, desc: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    line = f"[ACCEPTANCE {num:2d}] {status} — {desc}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert passed, line


# --------------------------------------------------------------------------
# 1. closed-form entropies against quadrature of the entropy integral
# --------------------------------------------------------------------------

GRIDS = {
    FamilyId.NORMAL: [(u, s2) for u in (-3.0, -1.0, 0.0, 2.0, 10.0)
                      for s2 in (0.25, 0.5, 1.0, 2.0, 5.0)],
    FamilyId.EXPONENTIAL: [(t,) for t in (0.2, 0.5, 1.0, 2.0, 10.0)],
    FamilyId.GAMMA: [(a, b) for a in (0.5, 1.0, 2.0, 3.0, 8.0)
                     for b in (0.25, 1.0, 2.0, 5.0, 10.0)],
    FamilyId.LAPLACE: [(u, b) for u in (-2.0, 0.0, 1.0, 3.0, 7.0)
                       for b in (0.25, 0.5, 1.0, 2.0, 5.0)],
    FamilyId.LOGNORMAL: [(u, s2) for u in (-1.0, 0.0, 0.5, 1.0, 2.0)
                         for s2 in (0.25, 0.5, 1.0, 2.0, 4.0)],
    FamilyId.GENGAMMA: [(a, dd, p) for a in (0.5, 1.0, 2.0, 3.0, 5.0)
                        for dd in (0.5, 1.0, 2.0, 3.0, 6.0)
                        for p in (0.5, 1.0, 1.5, 2.0, 3.0)],
}


def test_criterion_1_entropy_oracle_equivalence():
    worst = 0.0
    count = 0
    for family, grid in GRIDS.items():
        for theta in grid:
            fitted = FittedModel(family, theta)
            gap = abs(d.closed_form_entropy(fitted) - _de_ml_quadrature(fitted, tol=1e-9))
            worst = max(worst, gap)
            count += 1
    _report(1, "closed-form entropies match quadrature of the entropy integral "
               f"to 1e-6 over {count} grid points", worst < 1e-6,
            f"worst |gap| = {worst:.2e}")


# --------------------------------------------------------------------------
# 2. ln-space change-of-variables identity at the estimator level
# --------------------------------------------------------------------------

def test_criterion_2_ln_space_identity():
    gens = [
        FittedModel(FamilyId.GAMMA, (3.0, 1.0)),
        FittedModel(FamilyId.LOGNORMAL, (0.5, 0.8)),
        FittedModel(FamilyId.WEIBULL, (1.7915, 3.3727)),
        FittedModel(FamilyId.EXPONENTIAL, (2.0,)),
        FittedModel(FamilyId.GENGAMMA, (2.0, 3.0, 1.5)),
    ]
    worst = 0.0
    for i in range(20):
        gen = gens[i % len(gens)]
        n = [30, 75, 150, 300][i % 4]
        data = d.sample(gen, n, d.substream("acc2", i))
        y = np.log(data)
        h = 1.06 * y.std() * n ** -0.2
        # the identity is exact on matched domains wide enough that kernel
        # tails are fully integrated; q -/+ 12h puts truncation below 1e-30
        work, hs = np.sort(y)[None, :], np.array([h])
        q_low, q_high = np.quantile(work, [0.001, 0.999], axis=1)
        ln_lower, ln_upper = q_low - 12.0 * hs, q_high + 12.0 * hs
        ln_value = float(_kde_entropy_rows(work, hs, ln_lower, ln_upper)[0]
                         + work.mean(axis=1)[0])

        norm = 1.0 / (n * h * math.sqrt(2.0 * math.pi))

        def raw_image(x, y=y, h=h, norm=norm):
            ly = np.log(x)
            z = (ly[:, None] - y[None, :]) / h
            fx = np.exp(-0.5 * z * z).sum(axis=1) * norm / x
            return np.where(fx > 0, -fx * np.log(np.where(fx > 0, fx, 1.0)), 0.0)

        raw_lower, raw_upper = math.exp(ln_lower[0]), math.exp(ln_upper[0])
        # break the range at log-spaced points: the integrand's structure
        # lives on the ln scale, so equally spaced raw panels would alias it
        edges = np.exp(np.linspace(ln_lower[0], ln_upper[0], 257))
        edges[0], edges[-1] = raw_lower, raw_upper
        raw_value = integrate(raw_image, raw_lower, raw_upper, tol=1e-10, edges=edges)
        worst = max(worst, abs(raw_value - ln_value))
    _report(2, "ln-space value + mean(ln x) equals raw-space change-of-variables "
               "quadrature to 1e-8 on 20 samples", worst < 1e-8,
            f"worst |gap| = {worst:.2e}")


# --------------------------------------------------------------------------
# 3. parametric plug-in entropy bias against Monte Carlo
# --------------------------------------------------------------------------

def test_criterion_3_ml_bias_monte_carlo():
    n, reps = 50, 10**5
    rng = d.substream("acc3")
    results = []

    x = rng.normal(0.0, 1.0, (reps, n))
    err = 0.5 * np.log(2 * math.pi * math.e * x.var(axis=1)) - HALF_LN_2PIE
    pred = d.ml_entropy_bias(FittedModel(FamilyId.NORMAL, (0.0, 1.0)), n)
    se = err.std(ddof=1) / math.sqrt(reps)
    results.append(("normal", err.mean(), pred, se, abs(err.mean() - pred) < 3 * se))

    x = rng.exponential(2.0, (reps, n))
    err = 1.0 + np.log(x.mean(axis=1)) - (1.0 + math.log(2.0))
    pred = d.ml_entropy_bias(FittedModel(FamilyId.EXPONENTIAL, (2.0,)), n)
    se = err.std(ddof=1) / math.sqrt(reps)
    results.append(("exponential", err.mean(), pred, se, abs(err.mean() - pred) < 3 * se))

    detail = "; ".join(
        f"{name}: mc {mc:+.5f} vs {pred:+.5f} (se {se:.5f})"
        for name, mc, pred, se, _ in results
    )
    _report(3, "ML entropy bias matches 1e5-replicate Monte Carlo at n=50 "
               "within 3 SEs (Normal digamma form; Exponential)",
            all(ok for *_, ok in results), detail)


# --------------------------------------------------------------------------
# 4. KDE entropy bias against the classical leading-order diagnostic
# --------------------------------------------------------------------------

def test_criterion_4_kde_bias_monte_carlo():
    # The prediction is the integral estimator's expansion, averaged over the
    # same replicates: +h^2/(2 sigma^2) from smoothing, and
    # -W/(4 sqrt(pi) n h) + 1/(2n) from the kernel variance over the range of
    # width W that de_kde integrates.
    n, reps = 100, 2000
    errs = np.empty(reps)
    preds = np.empty(reps)
    null = FittedModel(FamilyId.NORMAL, (0.0, 1.0))
    for r in range(reps):
        x = d.substream("acc4", r).normal(0.0, 1.0, n)
        h = 1.06 * x.std() * n ** -0.2
        stats = ShapeStats(3.0, 0.0, 3.0, 3.0, 1.0, float(x.std()))
        bw = BandwidthSpec(h=h, c=1.06, k_n=1.0, n=n, scale=Scale.RAW,
                           shape=stats, regime=Regime.GAUSSIAN)
        errs[r] = d.de_kde(x, bw) - HALF_LN_2PIE
        lower, upper = range_bounds(np.sort(x), h)
        preds[r] = d.kde_smoothing_bias(null, h, n, upper - lower)
    predicted = float(preds.mean())
    se = errs.std(ddof=1) / math.sqrt(reps)
    _report(4, "KDE entropy bias at Silverman bandwidth matches "
               "h^2/(2 sigma^2) - W/(4 sqrt(pi) n h) + 1/(2n) within 3 SEs",
            abs(errs.mean() - predicted) < 3 * se,
            f"mc {errs.mean():+.5f} vs predicted {predicted:+.5f}, 3se {3*se:.5f}")


# --------------------------------------------------------------------------
# 5. empirical size of the test for the four simulated nulls
# --------------------------------------------------------------------------

def _size_band(reps: int) -> tuple[float, float]:
    if reps == 300:
        return (0.019, 0.093)  # band stated with the criterion
    from scipy.stats import binom

    lo, hi = binom.interval(0.99, reps, 0.05)
    return lo / reps, hi / reps


def test_criterion_5_empirical_size():
    reps = 1000 if FULL_SCALE else 300
    n_boot = 1000 if FULL_SCALE else 300
    n_grid = (50, 100, 250, 500) if FULL_SCALE else (50, 100)
    lo, hi = _size_band(reps)
    rows = []
    ok = True
    for null in (FamilyId.NORMAL, FamilyId.EXPONENTIAL, FamilyId.GAMMA, FamilyId.LAPLACE):
        spec = d.ExperimentSpec(
            null_family=null, dgp=NULL_MEMBERS[null], n_grid=n_grid,
            reps=reps, n_boot=n_boot, alpha=0.05, master_seed=20250805,
        )
        t0 = time.time()
        report = d.run_experiment(spec, threads=resolve_threads(None))
        for cell in report.cells:
            inside = lo <= cell.rate <= hi
            ok = ok and inside
            rows.append(f"{null.value}/n={cell.n}: {cell.rate:.3f}")
        print(f"  (size: {null.value} done in {time.time()-t0:.0f}s)", flush=True)
    _report(5, f"size within [{lo:.3f}, {hi:.3f}] at alpha=0.05 for four nulls, "
               f"n in {list(n_grid)}, reps={reps}, n_boot={n_boot}",
            ok, "; ".join(rows))


# --------------------------------------------------------------------------
# 6. power against Cauchy and Laplace alternatives under a Normal null
# --------------------------------------------------------------------------

def test_criterion_6_power_monotonicity_and_magnitude():
    reps = 1000 if FULL_SCALE else 200
    n_boot = 1000 if FULL_SCALE else 300
    n_grid = (50, 100, 250, 500) if FULL_SCALE else (50, 100, 250)
    alts = {
        "cauchy": FittedModel(FamilyId.CAUCHY, (0.0, 1.0)),
        "laplace": FittedModel(FamilyId.LAPLACE, (0.0, 1.0 / math.sqrt(2.0))),
    }
    ok = True
    details = []
    cauchy_at_100 = None
    for name, dgp in alts.items():
        spec = d.ExperimentSpec(
            null_family=FamilyId.NORMAL, dgp=dgp, n_grid=n_grid,
            reps=reps, n_boot=n_boot, alpha=0.05, master_seed=20250806,
        )
        t0 = time.time()
        cells = d.run_experiment(spec, threads=resolve_threads(None)).cells
        rates = [c.rate for c in cells]
        ses = [c.mc_se for c in cells]
        for i in range(len(rates) - 1):
            slack = 2.0 * math.hypot(ses[i], ses[i + 1])
            ok = ok and (rates[i + 1] >= rates[i] - slack)
        if name == "cauchy":
            cauchy_at_100 = rates[list(n_grid).index(100)]
        details.append(f"{name}: " + " -> ".join(f"{r:.3f}" for r in rates))
        print(f"  (power: {name} done in {time.time()-t0:.0f}s)", flush=True)
    ok = ok and cauchy_at_100 is not None and cauchy_at_100 > 0.9
    _report(6, "power nondecreasing in n (within 2 combined SEs) and "
               "Cauchy power at n=100 exceeds 0.9", ok, "; ".join(details))


# --------------------------------------------------------------------------
# 7. Old Faithful waiting times (Härdle fixture)
# --------------------------------------------------------------------------

def test_criterion_7_old_faithful():
    data = d.load_dataset("faithful-hardle").values
    assert data.size == 272
    outcomes = {}
    for family in ("gamma", "lognormal", "normal", "gengamma"):
        res = d.run_test(family, data, n_boot=1000, seed=20250807)
        outcomes[family] = res.p_value
        print(f"  (faithful {family}: p = {res.p_value:.4f}, "
              f"DDE = {res.observed_dde:+.4f})", flush=True)
    ok = (outcomes["gamma"] < 0.01 and outcomes["lognormal"] < 0.01
          and outcomes["normal"] < 0.01 and outcomes["gengamma"] > 0.10)
    _report(7, "faithful-hardle: Gamma/Lognormal/Normal rejected (p < 0.01), "
               "Generalized Gamma not rejected (p > 0.10)", ok,
            "; ".join(f"{k}: p={v:.4f}" for k, v in outcomes.items()))


# --------------------------------------------------------------------------
# 8. plus-one p-value exactness
# --------------------------------------------------------------------------

@settings(max_examples=400, deadline=None)
@given(
    values=st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=1, max_size=80),
    observed=st.floats(-1e9, 1e9, allow_nan=False),
    make_tie=st.booleans(),
)
def test_criterion_8_property(values, observed, make_tie):
    vals = list(values)
    if make_tie:
        center = float(np.mean(vals))
        vals.append(2.0 * center - observed)
    boot = BootstrapDistribution(values=np.asarray(vals, dtype=float),
                                 n_boot=len(vals), seed=0)
    m = boot.mean
    expected = (1 + sum(1 for b in vals if abs(b - m) >= abs(observed - m))) / (len(vals) + 1)
    assert d.p_value(observed, boot) == expected
    assert 1.0 / (len(vals) + 1) <= expected <= 1.0


def test_criterion_8_report():
    # the property test above must have run green to reach this line
    _report(8, "plus-one p-value formula bit-exact under random vectors, "
               "ties, and the 1/(n_boot+1) floor", True)


# --------------------------------------------------------------------------
# 9. byte-identical outputs across thread counts
# --------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    blobs = []
    for threads in ("1", "4"):
        out = tmp_path / f"t{threads}.json"
        code = cli_main(["test", "--family", "gamma", "--data", "faithful-hardle",
                         "--nboot", "50", "--seed", "17", "--threads", threads,
                         "--out", str(out)])
        assert code == 0
        blobs.append(out.read_bytes())
    test_ok = blobs[0] == blobs[1]

    sims = []
    for threads in ("1", "4"):
        out = tmp_path / f"sim{threads}"
        code = cli_main(["simulate", "--null", "normal", "--alt", "table4",
                         "--n", "50", "--reps", "2", "--nboot", "20",
                         "--seed", "23", "--threads", threads, "--out", str(out)])
        assert code == 0
        sims.append((out / "cells.csv").read_bytes() + (out / "manifest.json").read_bytes())
    sim_ok = sims[0] == sims[1]
    _report(9, "cmd_test and cmd_simulate outputs byte-identical at "
               "thread counts {1, 4}", test_ok and sim_ok)


# --------------------------------------------------------------------------
# 10. bandwidth rule conformance
# --------------------------------------------------------------------------

def test_criterion_10_bandwidth_rule():
    ok = d.small_sample_inflation(50) == 1.25 and d.small_sample_inflation(100) == 1.0

    # c clamped on adversarial ratios
    for kappa0, kappa_hat in [(1e6, 2.0), (32.0, 2.0), (3.0, 1e9), (1e-6, 10.0)]:
        c = d.shape_multiplier(Regime.NON_GAUSSIAN_REAL, kappa0, kappa_hat)
        ok = ok and 0.85 <= c <= 1.15
    # adversarial data through the full selector
    rng = d.substream("acc10")
    for r in range(25):
        data = rng.standard_cauchy(60) ** 3
        try:
            fitted = d.fit_mle(FamilyId.LAPLACE, data)
        except d.DdeError:
            continue
        bw = d.select_bandwidth(fitted, data)
        ok = ok and 0.85 <= bw.c <= 1.15

    # Gaussian regime pins c = 1 regardless of the sample's shape
    for r in range(10):
        data = rng.standard_cauchy(80)
        fitted = d.fit_mle(FamilyId.NORMAL, data)
        bw = d.select_bandwidth(fitted, data)
        ok = ok and bw.c == 1.0 and bw.regime is Regime.GAUSSIAN
    _report(10, "k(50)=1.25 and k(100)=1.00 exactly; c clamped to [0.85, 1.15] "
                "on adversarial inputs; c=1 in the Gaussian regime", ok)
