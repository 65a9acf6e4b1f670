import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddetest import (
    FamilyId, FittedModel, bootstrap_null, closed_form_entropy, critical_interval, de_kde,
    fit_mle, load_dataset, p_value, run_test, sample, select_bandwidth, substream,
)
from ddetest.dde import BootstrapDistribution, resolve_threads
from ddetest.errors import (
    DataError, DegenerateDataError, FitError, QuadratureError, SupportError, UsageError,
)


def _boot(values, seed=0):
    vals = np.asarray(values, dtype=float)
    return BootstrapDistribution(values=vals, n_boot=vals.size, seed=seed)


# --------------------------------------------------------------------------
# p-value rule
# --------------------------------------------------------------------------

def test_p_value_hand_count():
    # boot {-1, 0, 1} (mean 0), observed 0.5: (1 + 2)/4
    assert p_value(0.5, _boot([-1.0, 0.0, 1.0])) == pytest.approx(0.75)


def test_p_value_floor():
    boot = _boot(np.linspace(-1, 1, 999))
    assert p_value(50.0, boot) == pytest.approx(1.0 / 1000.0)


def test_p_value_center_case():
    boot = _boot([0.2, 0.4, 0.9, 1.3])
    assert p_value(boot.mean, boot) == 1.0


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=60
    ),
    observed=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    tie_index=st.integers(min_value=0, max_value=59),
)
def test_p_value_formula_bit_exact(values, observed, tie_index):
    # the plus-one rank formula, including deliberate ties via >= counting
    vals = list(values)
    if tie_index < len(vals):
        center = float(np.mean(vals))
        vals[tie_index] = 2.0 * center - observed  # same |deviation| as observed
    boot = _boot(vals)
    m = boot.mean
    expected = (1 + sum(1 for b in vals if abs(b - m) >= abs(observed - m))) / (len(vals) + 1)
    assert p_value(observed, boot) == expected
    assert 1.0 / (len(vals) + 1) <= p_value(observed, boot) <= 1.0


# --------------------------------------------------------------------------
# critical interval
# --------------------------------------------------------------------------

def test_critical_interval_interpolated_order_statistics():
    boot = _boot(np.arange(1.0, 101.0))
    lo, hi = critical_interval(boot, 0.05)
    # linear order-statistic interpolation: position q(n-1) zero-indexed
    assert lo == pytest.approx(3.475)
    assert hi == pytest.approx(97.525)


def test_critical_interval_narrows_as_alpha_grows():
    boot = _boot(substream("ci").normal(0.0, 1.0, 500))
    widths = []
    for alpha in (0.01, 0.05, 0.2, 0.8):
        lo, hi = critical_interval(boot, alpha)
        assert lo <= hi
        widths.append(hi - lo)
    assert widths == sorted(widths, reverse=True)


def test_critical_interval_symmetry():
    vals = substream("ci-sym").normal(0.0, 1.0, 4001)
    boot = _boot(np.concatenate([vals, -vals]))
    lo, hi = critical_interval(boot, 0.1)
    assert lo == pytest.approx(-hi, abs=1e-12)


def test_critical_interval_alpha_validation():
    boot = _boot([1.0, 2.0])
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(UsageError):
            critical_interval(boot, bad)


# --------------------------------------------------------------------------
# statistic and bootstrap
# --------------------------------------------------------------------------

def _dde(fitted, data, bw):
    """DE_ML - DE_KDE from the one-row API."""
    return closed_form_entropy(fitted) - de_kde(data, bw)


def test_dde_small_under_true_null_large_sample():
    data = substream("dde-null").normal(0.0, 1.0, 10_000)
    fitted = fit_mle(FamilyId.NORMAL, data)
    bw = select_bandwidth(fitted, data)
    assert abs(_dde(fitted, data, bw)) < 0.05


def test_dde_diverges_for_cauchy_against_normal_null():
    # the fitted normal's variance blows up on cauchy data, so the implied
    # entropy races away from the kernel estimate
    for r in range(10):
        data = sample(FittedModel(FamilyId.CAUCHY, (0.0, 1.0)), 500, substream("dde-div", r))
        fitted = fit_mle(FamilyId.NORMAL, data)
        bw = select_bandwidth(fitted, data)
        assert abs(_dde(fitted, data, bw)) > 0.2


def test_bootstrap_single_replicate_deterministic():
    fitted = FittedModel(FamilyId.EXPONENTIAL, (2.0,), n_fit=40)
    a = bootstrap_null(fitted, 40, 1, seed=9)
    b = bootstrap_null(fitted, 40, 1, seed=9)
    assert a.values.size == 1 and np.isfinite(a.values[0])
    assert a.values[0] == b.values[0]


def test_bootstrap_disjoint_seeds_agree_within_mc_error():
    fitted = FittedModel(FamilyId.NORMAL, (0.0, 1.0), n_fit=60)
    a = bootstrap_null(fitted, 60, 400, seed=11)
    b = bootstrap_null(fitted, 60, 400, seed=12)
    pooled = math.hypot(a.values.std(ddof=1) / 20.0, b.values.std(ddof=1) / 20.0)
    assert abs(a.mean - b.mean) < 4.0 * pooled


def test_bootstrap_mean_matches_independent_simulation_oracle():
    """The bootstrap mean reproduces the statistic's deterministic bias gap.

    Oracle: a direct Monte Carlo of E[DDE] under fresh samples from the same
    fitted null (independent seeds, no bootstrap machinery).
    """
    fitted = FittedModel(FamilyId.EXPONENTIAL, (2.0,), n_fit=100)
    boot = bootstrap_null(fitted, 100, 500, seed=77)

    reps = 500
    direct = np.empty(reps)
    for r in range(reps):
        x = sample(fitted, 100, substream("oracle-gap", r))
        refit = fit_mle(FamilyId.EXPONENTIAL, x)
        bw = select_bandwidth(refit, x)
        direct[r] = _dde(refit, x, bw)
    se = math.hypot(boot.values.std(ddof=1) / math.sqrt(boot.values.size),
                    direct.std(ddof=1) / math.sqrt(reps))
    assert abs(boot.mean - direct.mean()) < 3.0 * se


_NULL_MODELS = [  # gamma and laplace first: their ids (model0, model1) predate the others
    FittedModel(FamilyId.GAMMA, (2.0, 1.5), n_fit=60),
    FittedModel(FamilyId.LAPLACE, (1.0, 2.0), n_fit=60),
    FittedModel(FamilyId.NORMAL, (0.5, 2.0), n_fit=60),
    FittedModel(FamilyId.EXPONENTIAL, (2.0,), n_fit=60),
    FittedModel(FamilyId.LOGNORMAL, (0.3, 0.5), n_fit=60),
    FittedModel(FamilyId.GENGAMMA, (2.0, 3.0, 1.5), n_fit=60),
]


def _draw(fitted, n, seed, r, attempt):
    return sample(fitted, n, substream(seed, "boot", r, attempt))


def _replayed(fitted, n, seed, r, poisoned=()):
    """Replicate r's DDE under the retry policy, replayed one draw at a time:
    the first attempt whose draw is not poisoned and fits."""
    for attempt in range(4):
        if (r, attempt) in poisoned:
            continue
        x = _draw(fitted, n, seed, r, attempt)
        try:
            refit = fit_mle(fitted.family, x)
            bw = select_bandwidth(refit, x)
        except (FitError, DataError):
            continue
        return _dde(refit, x, bw)
    return math.nan


def _poison_fits(monkeypatch, fitted, n, seed, n_boot, poisoned, fail):
    """Swap the null's row-wise fitter for one that fails the rows drawn at
    the (replicate, attempt) pairs in ``poisoned`` (all pairs if None), in
    the way ``fail(theta, failures, i)`` sets, and fits the rest for real.
    Returns the (replicate, attempt) of every row the fitter saw, in order."""
    from ddetest import families

    real = families.FAMILIES[fitted.family]
    draws = {_draw(fitted, n, seed, r, a).tobytes(): (r, a)
             for r in range(n_boot) for a in range(4)}
    seen = []

    def fit(rows):
        theta, failures = real.fit(rows)
        theta = tuple(np.array(col, dtype=float) for col in theta)
        for i, row in enumerate(rows):
            seen.append(draws[row.tobytes()])
            if poisoned is None or seen[-1] in poisoned:
                fail(theta, failures, i)
        return theta, failures

    monkeypatch.setitem(families.FAMILIES, fitted.family, dataclasses.replace(real, fit=fit))
    return seen


def _raise_fit_error(theta, failures, i):
    failures[i] = FitError("transient")


def _nan_mean(theta, failures, i):
    theta[0][i] = math.nan  # a non-finite refit: FitError from the parameter check


def _degenerate(theta, failures, i):
    failures[i] = DegenerateDataError("all observations are identical")


def test_replicate_retries_use_fresh_substreams(monkeypatch):
    # a fit that fails on its first two samples succeeds on the third attempt,
    # whose draw comes from the (seed, "boot", r, 2) sub-stream
    fitted = FittedModel(FamilyId.NORMAL, (0.0, 1.0), n_fit=50)
    poisoned = {(0, 0), (0, 1)}
    seen = _poison_fits(monkeypatch, fitted, 50, 4, 1, poisoned, _raise_fit_error)
    boot = bootstrap_null(fitted, 50, 1, seed=4)
    assert boot.n_failed == 0 and boot.values.size == 1
    assert seen == [(0, 0), (0, 1), (0, 2)]
    monkeypatch.undo()
    x = _draw(fitted, 50, 4, 0, 2)
    refit = fit_mle(FamilyId.NORMAL, x)
    assert boot.values[0] == _dde(refit, x, select_bandwidth(refit, x))


def test_bootstrap_aborts_when_failures_exceed_tolerance(monkeypatch):
    # every replicate fails on all four of its sub-streams, then the run aborts
    fitted = FittedModel(FamilyId.NORMAL, (0.0, 1.0), n_fit=50)
    seen = _poison_fits(monkeypatch, fitted, 50, 4, 40, None, _raise_fit_error)
    with pytest.raises(FitError, match="bootstrap replicates failed"):
        bootstrap_null(fitted, 50, 40, seed=4)
    assert sorted(seen) == [(r, a) for r in range(40) for a in range(4)]


def test_nonfinite_refit_is_retried(monkeypatch):
    # every first attempt refits to NaN: a FitError, retried on a fresh stream
    fitted = FittedModel(FamilyId.NORMAL, (0.0, 1.0), n_fit=50)
    poisoned = {(r, 0) for r in range(5)}
    seen = _poison_fits(monkeypatch, fitted, 50, 4, 5, poisoned, _nan_mean)
    boot = bootstrap_null(fitted, 50, 5, seed=4)
    assert boot.n_failed == 0 and boot.values.size == 5
    assert sorted(seen) == [(r, a) for r in range(5) for a in (0, 1)]
    monkeypatch.undo()
    assert boot.values.tolist() == [_replayed(fitted, 50, 4, r, poisoned) for r in range(5)]


def test_nonfinite_refits_abort_with_fit_error(monkeypatch):
    fitted = FittedModel(FamilyId.NORMAL, (0.0, 1.0), n_fit=50)
    seen = _poison_fits(monkeypatch, fitted, 50, 4, 10, None, _nan_mean)
    with pytest.raises(FitError, match="bootstrap replicates failed") as info:
        bootstrap_null(fitted, 50, 10, seed=4)
    assert info.value.exit_code == 4
    assert sorted(seen) == [(r, a) for r in range(10) for a in range(4)]


def test_data_error_in_a_replicate_is_retried(monkeypatch):
    # a DataError (here a degenerate sample) is retried like a FitError
    fitted = FittedModel(FamilyId.LAPLACE, (0.0, 1.0), n_fit=40)
    poisoned = {(2, 0), (2, 1), (5, 0)}
    seen = _poison_fits(monkeypatch, fitted, 40, 9, 8, poisoned, _degenerate)
    boot = bootstrap_null(fitted, 40, 8, seed=9)
    assert boot.n_failed == 0 and boot.values.size == 8
    assert sorted(seen) == sorted([(r, 0) for r in range(8)] + [(2, 1), (2, 2), (5, 1)])
    monkeypatch.undo()
    assert boot.values.tolist() == [_replayed(fitted, 40, 9, r, poisoned) for r in range(8)]


@pytest.mark.parametrize("threads", [1, 2])
def test_failed_rows_are_retried_together(monkeypatch, threads):
    # the rows of a group that fail an attempt are redrawn together at the
    # next one: one fitter call per attempt, not one per failed row
    from ddetest import families

    fitted = FittedModel(FamilyId.NORMAL, (0.0, 1.0), n_fit=40)
    poisoned = {(0, 0), (2, 0), (2, 1), (3, 0)}
    _poison_fits(monkeypatch, fitted, 40, 6, 16, poisoned, _raise_fit_error)
    poisoned_fam = families.FAMILIES[fitted.family]
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return poisoned_fam.fit(rows)

    monkeypatch.setitem(families.FAMILIES, fitted.family,
                        dataclasses.replace(poisoned_fam, fit=counted))
    boot = bootstrap_null(fitted, 40, 16, seed=6, threads=threads)
    assert boot.n_failed == 0 and boot.values.size == 16
    if threads == 1:  # forked workers do not report their calls back
        assert calls == [16, 3, 1]
    monkeypatch.undo()
    assert boot.values.tolist() == [_replayed(fitted, 40, 6, r, poisoned) for r in range(16)]


def test_quadrature_error_aborts_the_bootstrap(monkeypatch):
    # a non-finite KDE entropy is not retried: the bootstrap stops with it
    import ddetest.dde as dde_mod

    real, calls = dde_mod._kde_entropy, []

    def broken(*args):  # the observed statistic's KDE passes, every later one fails
        calls.append(1)
        if len(calls) == 1:
            return real(*args)
        raise QuadratureError("KDE entropy integrand is not finite inside the range")

    monkeypatch.setattr(dde_mod, "_kde_entropy", broken)
    data = sample(FittedModel(FamilyId.NORMAL, (0.0, 1.0)), 50, substream("qerr"))
    with pytest.raises(QuadratureError) as info:
        run_test(FamilyId.NORMAL, data, n_boot=20, seed=1)
    assert info.value.stage == "bootstrap" and info.value.exit_code == 5


@pytest.mark.parametrize("model", _NULL_MODELS)
def test_bootstrap_values_byte_identical_across_threads(model):
    runs = [bootstrap_null(model, 80, 37, seed=21, threads=t) for t in (1, 2, 3)]
    assert all(b.values.size == 37 for b in runs)
    assert runs[1].values.tobytes() == runs[0].values.tobytes()
    assert runs[2].values.tobytes() == runs[0].values.tobytes()


@pytest.mark.parametrize("model", _NULL_MODELS)
def test_bootstrap_value_is_the_observed_statistic_of_its_sample(model, monkeypatch):
    # a replicate's batched DDE equals the one-row API on the same draw, also
    # for replicate 1, whose first draw is made to fail
    poisoned = {(1, 0)}
    _poison_fits(monkeypatch, model, 60, 5, 4, poisoned, _raise_fit_error)
    boot = bootstrap_null(model, 60, 4, seed=5)
    monkeypatch.undo()
    assert boot.values.size == 4
    assert boot.values.tolist() == [_replayed(model, 60, 5, r, poisoned) for r in range(4)]


@pytest.mark.parametrize("family", [FamilyId.NORMAL, FamilyId.LAPLACE])
def test_near_degenerate_data_complete(family):
    # 30 values spread over 1e-12 around 1: the adaptive integrator could
    # not reach its tolerance on these bootstrap samples
    data = 1.0 + 1e-12 * substream("near-degenerate").normal(0.0, 1.0, 30)
    res = run_test(family, data, n_boot=100, seed=3)
    assert res.boot.values.size == 100 and np.all(np.isfinite(res.boot.values))
    assert 0.0 < res.p_value <= 1.0


def test_bootstrap_validates_sizes():
    fitted = FittedModel(FamilyId.NORMAL, (0.0, 1.0))
    with pytest.raises(UsageError):
        bootstrap_null(fitted, 50, 0, seed=1)
    with pytest.raises(DataError):
        bootstrap_null(fitted, 2, 10, seed=1)


@pytest.mark.parametrize("family, theta, n", [
    (FamilyId.NORMAL, (0.0, 1.0), 3),
    (FamilyId.LAPLACE, (0.0, 1.0), 3),
    (FamilyId.EXPONENTIAL, (1.0,), 2),
    (FamilyId.EXPONENTIAL, (1.0,), 3),
])
def test_bootstrap_below_the_bandwidth_minimum_is_a_data_error(family, theta, n):
    # the fit would take n values but the bandwidth rule needs 4: every
    # replicate would fail, so the call is refused before drawing any
    with pytest.raises(DataError, match="bandwidth rule") as info:
        bootstrap_null(FittedModel(family, theta), n, 20, seed=1)
    assert info.value.exit_code == 3


# --------------------------------------------------------------------------
# run_test
# --------------------------------------------------------------------------

def test_run_test_deterministic_and_consistent():
    data = sample(FittedModel(FamilyId.NORMAL, (0.0, 1.0)), 100, substream("rt", 0))
    a = run_test(FamilyId.NORMAL, data, n_boot=200, seed=5)
    b = run_test(FamilyId.NORMAL, data, n_boot=200, seed=5)
    assert a.observed_dde == b.observed_dde
    assert np.array_equal(a.boot.values, b.boot.values)
    assert a.p_value == b.p_value == p_value(a.observed_dde, a.boot)
    assert (a.critical_low, a.critical_high) == critical_interval(a.boot, a.alpha)
    assert a.reject == (a.p_value <= a.alpha)
    assert a.interval_reject == (
        not a.critical_low <= a.observed_dde <= a.critical_high)


def test_run_test_thread_count_invariance():
    data = sample(FittedModel(FamilyId.EXPONENTIAL, (2.0,)), 60, substream("rt", 1))
    a = run_test(FamilyId.EXPONENTIAL, data, n_boot=64, seed=3, threads=1)
    b = run_test(FamilyId.EXPONENTIAL, data, n_boot=64, seed=3, threads=4)
    assert a.p_value == b.p_value
    assert np.array_equal(a.boot.values, b.boot.values)


@pytest.mark.parametrize("model", _NULL_MODELS, ids=lambda m: m.family.value)
def test_one_row_api_agrees_with_run_test(model):
    # the fit, the bandwidth and the observed DDE of a test are, bit for bit,
    # what fit_mle, select_bandwidth, closed_form_entropy and de_kde give on the
    # same data
    fid = model.family
    samples = [load_dataset("faithful-hardle").values]
    samples += [sample(model, 60 + 70 * k, substream("one-row", k)) for k in range(3)]
    for data in samples:
        res = run_test(fid, data, n_boot=1, seed=1)
        fitted = fit_mle(fid, data)
        bw = select_bandwidth(fitted, data)
        assert res.fitted == fitted
        assert res.bandwidth == bw
        assert res.observed_dde == _dde(fitted, data, bw)


def _faithful(scale):
    return load_dataset("faithful-hardle").values * scale


def _kde_fails(monkeypatch):
    import ddetest.dde as dde_mod
    import ddetest.entropy as entropy_mod

    def broken(*args):
        raise QuadratureError("KDE entropy integrand is not finite inside the range")

    for mod in (dde_mod, entropy_mod):
        monkeypatch.setattr(mod, "_kde_entropy", broken)
    return _faithful(1.0)


_OBSERVED_FAILURES = [  # (null, data, error class, stage, exit code, message)
    (FamilyId.NORMAL, lambda mp: np.r_[_faithful(1.0), np.nan], DataError, "fit", 3,
     "non-finite values"),
    (FamilyId.GAMMA, lambda mp: np.r_[_faithful(1.0), 0.0], SupportError, "fit", 3,
     "positive support"),
    (FamilyId.NORMAL, lambda mp: np.full(50, 2.5), DegenerateDataError, "fit", 3,
     "all observations are identical"),
    (FamilyId.GENGAMMA, lambda mp: np.array([1.0, 2.0, 3.5]), DataError, "fit", 3,
     "fit needs at least 4"),
    (FamilyId.EXPONENTIAL, lambda mp: np.array([1.0, 2.0, 3.5]), DataError, "bandwidth", 3,
     "bandwidth selection needs at least 4"),
    (FamilyId.NORMAL, lambda mp: np.ones((10, 10)), DataError, "fit", 3,
     "one-dimensional"),
    (FamilyId.GENGAMMA, lambda mp: substream("gg-bound").lognormal(0.0, 1.0, 300), FitError,
     "fit", 4, r"bound p = 0\.05"),
    (FamilyId.NORMAL, lambda mp: _faithful(1e200), DataError, "fit", 3,
     "variance is not finite"),
    (FamilyId.LAPLACE, lambda mp: _faithful(1e200), DataError, "bandwidth", 3,
     "variance on the working scale is not finite"),
    (FamilyId.NORMAL, lambda mp: _faithful(1e-200), DegenerateDataError, "fit", 3,
     "zero variance"),
    (FamilyId.WEIBULL, lambda mp: _faithful(1.0), FitError, "fit", 4,
     "not a testable null"),
    (FamilyId.NORMAL, _kde_fails, QuadratureError, "entropy", 5,
     "not finite inside the range"),
]


@pytest.mark.parametrize("family, make, cls, stage, code, message", _OBSERVED_FAILURES)
def test_observed_stage_error_contract(monkeypatch, family, make, cls, stage, code, message):
    data = make(monkeypatch)
    with pytest.raises(cls, match=message) as info:
        run_test(family, data, n_boot=10, seed=1)
    assert type(info.value) is cls
    assert (info.value.stage, info.value.exit_code) == (stage, code)


# --------------------------------------------------------------------------
# worker count
# --------------------------------------------------------------------------

def test_resolve_threads_default_is_the_cores_this_process_may_use(monkeypatch):
    monkeypatch.delenv("DDETEST_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert resolve_threads(None) == 3


def test_resolve_threads_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delenv("DDETEST_THREADS", raising=False)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert resolve_threads(None) == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert resolve_threads(None) == 1


def test_resolve_threads_explicit_then_environment(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setenv("DDETEST_THREADS", "5")
    assert resolve_threads(None) == 5
    assert resolve_threads(3) == 3
    monkeypatch.setenv("DDETEST_THREADS", "")
    assert resolve_threads(None) == 2
    with pytest.raises(UsageError):
        resolve_threads(0)


@pytest.mark.parametrize("value", ["0", "-2", "two", "1.5"])
def test_resolve_threads_rejects_bad_environment(monkeypatch, value):
    monkeypatch.setenv("DDETEST_THREADS", value)
    with pytest.raises(UsageError, match="DDETEST_THREADS"):
        resolve_threads(None)


def test_run_test_alpha_validation():
    data = sample(FittedModel(FamilyId.NORMAL, (0.0, 1.0)), 50, substream("rt", 2))
    with pytest.raises(UsageError):
        run_test(FamilyId.NORMAL, data, alpha=1.5, n_boot=10, seed=1)


def test_run_test_error_carries_stage():
    bad = np.array([1.0, 2.0, -3.0, 4.0, 5.0])
    with pytest.raises(DataError) as err:
        run_test(FamilyId.GAMMA, bad, n_boot=10, seed=1)
    assert err.value.stage == "fit"


def test_normal_fit_past_the_float_range_is_a_data_error():
    # the squared deviations overflow; under warnings as errors, an overflow
    # warning would surface here in place of the typed error
    data = sample(FittedModel(FamilyId.NORMAL, (0.0, 1.0)), 50, substream("rt", 9)) * 1e200
    with pytest.raises(DataError, match="variance is not finite") as err:
        run_test(FamilyId.NORMAL, data, n_boot=10, seed=1)
    assert err.value.stage == "fit" and err.value.exit_code == 3


def test_exponential_null_scale_equivariant_p_values():
    # DDE under an exponential null is scale-free, and dyadic rescaling is
    # float-exact, so matched seeds give identical p-values
    data = sample(FittedModel(FamilyId.EXPONENTIAL, (2.0,)), 80, substream("rt", 4))
    base = run_test(FamilyId.EXPONENTIAL, data, n_boot=150, seed=21)
    for c in (0.5, 2.0):
        scaled = run_test(FamilyId.EXPONENTIAL, c * data, n_boot=150, seed=21)
        assert scaled.p_value == base.p_value


def test_power_nondecreasing_in_n_under_fixed_wrong_null():
    # laplace data tested against a normal null: rejection rate rises with n
    # (coarse check at unit-test scale; the full sweep is an acceptance run)
    rates = []
    for n in (50, 250):
        rejections = 0
        reps = 40
        for r in range(reps):
            data = sample(FittedModel(FamilyId.LAPLACE, (0.0, 1.0 / math.sqrt(2))),
                          n, substream("power", n, r))
            res = run_test(FamilyId.NORMAL, data, n_boot=120, seed=1000 + r)
            rejections += int(res.reject)
        rates.append(rejections / reps)
    se = math.sqrt(sum(r * (1 - r) for r in rates) / 40)
    assert rates[1] >= rates[0] - 2.0 * se


@pytest.mark.parametrize("family", [FamilyId.NORMAL, FamilyId.GAMMA])
def test_run_test_leaves_the_data_unchanged(family):
    # the KDE sorts its rows in place, on copies of its own
    data = load_dataset("faithful-hardle").values
    kept = data.copy()
    run_test(family, data, n_boot=8, seed=3)
    assert data.tobytes() == kept.tobytes()
