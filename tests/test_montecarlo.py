import math

import pytest

from ddetest import (
    FamilyId, FittedModel, TESTABLE_NULLS, bootstrap_null, dgp_moments, sample, substream,
)
from ddetest.bandwidth import MIN_SIZE as BANDWIDTH_MIN_SIZE
from ddetest.errors import DataError, UsageError
from ddetest.families import get_family
from ddetest.montecarlo import (
    ExperimentSpec, NULL_MEMBERS, SIMULATED_NULLS, SimCell, dgp_label, run_experiment,
    table4_alternatives, table4_campaign,
)


def test_alternatives_cover_the_four_simulated_nulls():
    for null in SIMULATED_NULLS:
        alts = table4_alternatives(null)
        assert len(alts) == 4
    with pytest.raises(UsageError):
        table4_alternatives(FamilyId.LOGNORMAL)


def test_normal_row_alternatives():
    fams = [m.family for m in table4_alternatives(FamilyId.NORMAL)]
    assert fams == [FamilyId.LAPLACE, FamilyId.LOGISTIC, FamilyId.CAUCHY, FamilyId.SCALED_T]
    # unit-variance members
    for alt in table4_alternatives(FamilyId.NORMAL):
        mean, var = dgp_moments(alt)
        if alt.family is FamilyId.CAUCHY:
            assert math.isnan(var)
        else:
            assert mean == pytest.approx(0.0)
            assert var == pytest.approx(1.0, abs=1e-12)


def test_exponential_row_targets():
    alts = {m.family: m for m in table4_alternatives(FamilyId.EXPONENTIAL)}
    mean, var = dgp_moments(alts[FamilyId.RAYLEIGH])
    assert mean == pytest.approx(3.8261, abs=5e-5)
    assert var == pytest.approx(4.0, abs=1e-12)
    mean, var = dgp_moments(alts[FamilyId.LOGLOGISTIC])
    assert mean == pytest.approx(2.0, abs=1e-3)
    assert var == pytest.approx(4.0, abs=1e-2)
    mean, var = dgp_moments(alts[FamilyId.LOMAX])
    assert mean == pytest.approx(2.0)   # mean target met
    assert var == pytest.approx(12.0)   # variance 4 is unattainable for lomax
    mean, var = dgp_moments(alts[FamilyId.LOGNORMAL])
    assert mean == pytest.approx(2.0, abs=1e-4)
    assert var == pytest.approx(4.0, abs=1e-3)


def test_gamma_row_targets():
    # gamma(3,1) has mean 3, variance 3; alternatives match
    for alt in table4_alternatives(FamilyId.GAMMA):
        mean, var = dgp_moments(alt)
        assert mean == pytest.approx(3.0, abs=0.01)
        assert var == pytest.approx(3.0, abs=0.01)


def test_null_members_match_study_design():
    assert NULL_MEMBERS[FamilyId.NORMAL].theta == (0.0, 1.0)
    assert NULL_MEMBERS[FamilyId.EXPONENTIAL].theta == (2.0,)
    assert NULL_MEMBERS[FamilyId.GAMMA].theta == (3.0, 1.0)
    # unit-variance laplace: b = 1/sqrt(2)
    assert NULL_MEMBERS[FamilyId.LAPLACE].theta[1] == pytest.approx(1 / math.sqrt(2))
    assert dgp_moments(NULL_MEMBERS[FamilyId.LAPLACE])[1] == pytest.approx(1.0)


@pytest.mark.parametrize("null", list(SIMULATED_NULLS))
def test_sampler_moments_against_documented_values(null):
    # 10^6-draw check of every study sampler against its analytic moments
    n = 10**6
    for alt in [NULL_MEMBERS[null], *table4_alternatives(null)]:
        mean, var = dgp_moments(alt)
        if math.isnan(mean):
            continue  # cauchy
        x = sample(alt, n, substream("mc-moments", dgp_label(alt)))
        assert abs(x.mean() - mean) < 0.02 * max(1.0, abs(mean)), dgp_label(alt)
        if alt.family in (FamilyId.LOGLOGISTIC, FamilyId.LOMAX, FamilyId.SCALED_T):
            tol = 0.12 * var  # fourth moment infinite: sample variance converges slowly
        else:
            tol = 0.02 * var
        assert abs(x.var() - var) < tol, dgp_label(alt)


def test_experiment_spec_validation():
    dgp = NULL_MEMBERS[FamilyId.NORMAL]
    with pytest.raises(UsageError):
        ExperimentSpec(FamilyId.NORMAL, dgp, (50,), reps=0, n_boot=10, alpha=0.05, master_seed=1)
    with pytest.raises(UsageError):
        ExperimentSpec(FamilyId.NORMAL, dgp, (2,), reps=5, n_boot=10, alpha=0.05, master_seed=1)
    with pytest.raises(UsageError):
        ExperimentSpec(FamilyId.NORMAL, dgp, (50,), reps=5, n_boot=10, alpha=1.2, master_seed=1)
    # one minimum test size, the larger of the fit's and the bandwidth
    # rule's, for the spec and the bootstrap alike; the bootstrap keeps theta
    # fixed, since a 4-point sample rarely has an interior GG maximum
    for fid in TESTABLE_NULLS:
        need = max(get_family(fid).min_fit_size, BANDWIDTH_MIN_SIZE)
        model = FittedModel(fid, (1.0,) * get_family(fid).n_params)
        with pytest.raises(UsageError, match=f"below {need}, the minimum test size"):
            ExperimentSpec(fid, model, (need - 1,), reps=5, n_boot=10, alpha=0.05, master_seed=1)
        with pytest.raises(DataError, match=f"below {need}"):
            bootstrap_null(model, need - 1, 10, seed=1, theta_fixed=True)
        ExperimentSpec(fid, model, (need,), reps=5, n_boot=10, alpha=0.05, master_seed=1)
        assert bootstrap_null(model, need, 10, seed=1, theta_fixed=True).values.size == 10


def test_single_replicate_smoke_campaign():
    spec = ExperimentSpec(FamilyId.NORMAL, NULL_MEMBERS[FamilyId.NORMAL],
                          (50,), reps=1, n_boot=19, alpha=0.05, master_seed=3)
    report = run_experiment(spec)
    (cell,) = report.cells
    assert cell.reps_completed == 1
    assert cell.rate in (0.0, 1.0)
    assert cell.mc_se == 0.0


def test_report_reproducible_and_thread_invariant():
    spec = ExperimentSpec(FamilyId.EXPONENTIAL, NULL_MEMBERS[FamilyId.EXPONENTIAL],
                          (50, 100), reps=4, n_boot=30, alpha=0.05, master_seed=9)
    a = run_experiment(spec, threads=1)
    b = run_experiment(spec, threads=1)
    c = run_experiment(spec, threads=3)
    assert a.cells == b.cells == c.cells


def test_mc_se_formula():
    spec = ExperimentSpec(FamilyId.NORMAL, NULL_MEMBERS[FamilyId.LAPLACE],
                          (60,), reps=12, n_boot=40, alpha=0.2, master_seed=12)
    (cell,) = run_experiment(spec).cells
    r = cell.rate
    assert cell.mc_se == pytest.approx(math.sqrt(r * (1 - r) / cell.reps_completed))


def test_cell_aborts_when_replicate_failures_exceed_tolerance(monkeypatch):
    import ddetest.montecarlo as mc_mod
    from ddetest.errors import DdeError, FitError

    def always_fail(*args, **kwargs):
        raise FitError("broken")

    monkeypatch.setattr(mc_mod, "run_test", always_fail)
    spec = ExperimentSpec(FamilyId.NORMAL, NULL_MEMBERS[FamilyId.NORMAL],
                          (50,), reps=10, n_boot=20, alpha=0.05, master_seed=2)
    with pytest.raises(DdeError, match="aborted"):
        run_experiment(spec)


def test_exit_code_taxonomy():
    from ddetest.errors import (
        DataError, DdeError, FitError, NumericError, UsageError,
    )

    assert UsageError("x").exit_code == 2
    assert DataError("x").exit_code == 3
    assert FitError("x").exit_code == 4
    assert NumericError("x").exit_code == 5
    assert DdeError("x").exit_code == 1


def test_campaign_is_size_row_plus_alternatives():
    specs = table4_campaign(FamilyId.NORMAL, (50, 100, 250, 500), reps=10,
                            n_boot=100, alpha=0.05, master_seed=7)
    assert len(specs) == 5  # size row + 4 power rows
    assert specs[0].dgp == NULL_MEMBERS[FamilyId.NORMAL]
    # 4 sizes x 5 dgps = 20 cells = 16 power + 4 size
    assert sum(len(s.n_grid) for s in specs) == 20


# --------------------------------------------------------------------------
# one process pool per experiment
# --------------------------------------------------------------------------

def _pool_spec(n_grid=(30, 60), reps=3, master_seed=4):
    return ExperimentSpec(FamilyId.EXPONENTIAL, NULL_MEMBERS[FamilyId.EXPONENTIAL],
                          n_grid, reps=reps, n_boot=20, alpha=0.1, master_seed=master_seed)


def test_experiment_opens_one_pool_and_no_pool_inside_a_worker(monkeypatch):
    import os
    from concurrent.futures import ProcessPoolExecutor

    import ddetest.dde as dde_mod

    parent = os.getpid()
    opened = []

    class CountedPool(ProcessPoolExecutor):
        # forked workers inherit this class: a pool opened inside one raises,
        # which fails that rep and run_experiment with it
        def __init__(self, max_workers):
            if os.getpid() != parent:
                raise RuntimeError("process pool opened inside a pool worker")
            opened.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(dde_mod, "ProcessPoolExecutor", CountedPool)
    spec = _pool_spec()
    pooled = run_experiment(spec, threads=2)
    assert opened == [2]
    assert run_experiment(spec, threads=1).cells == pooled.cells
    assert opened == [2]  # threads=1 opens none
    run_experiment(_pool_spec(n_grid=(30,), reps=1), threads=4)
    assert opened == [2]  # nor does a single rep


@pytest.mark.parametrize("threads", [1, 2])
def test_progress_once_per_completed_rep_in_grid_order(threads):
    spec = _pool_spec()
    calls = []
    run_experiment(spec, threads=threads, progress=lambda *a: calls.append(a))
    label = dgp_label(spec.dgp)
    assert calls == [("exponential", label, n, rep) for n in (30, 60) for rep in range(3)]


def _injected_failures(monkeypatch, spec, bad_reps, log=None):
    """Replace run_test by a stand-in that fails on the (n, rep) pairs in
    ``bad_reps`` and otherwise rejects when its seed is divisible by 3."""
    import time
    from types import SimpleNamespace

    import ddetest.montecarlo as mc_mod
    from ddetest.errors import FitError
    from ddetest.streams import stable_seed

    label = dgp_label(spec.dgp)
    bad = {stable_seed(spec.master_seed, "mc", spec.null_family.value, label, n, rep, "test")
           for n, rep in bad_reps}

    def fake_run_test(family, data, *, seed, **kwargs):
        assert kwargs["threads"] == 1
        if log is not None:
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{seed}\n")
            time.sleep(0.01)
        if seed in bad:
            raise FitError("injected")
        return SimpleNamespace(reject=seed % 3 == 0)

    monkeypatch.setattr(mc_mod, "run_test", fake_run_test)


def test_failed_reps_give_the_same_report_at_any_thread_count(monkeypatch):
    # 2% of 50 reps: one failure per cell is tolerated
    spec = _pool_spec(n_grid=(30, 60, 90), reps=50)
    _injected_failures(monkeypatch, spec, {(30, 0), (60, 49), (90, 17)})
    runs = []
    for threads in (1, 2):
        calls = []
        report = run_experiment(spec, threads=threads, progress=lambda *a: calls.append(a))
        runs.append((report.cells, calls))
    assert runs[0] == runs[1]
    cells, calls = runs[0]
    assert [c.reps_completed for c in cells] == [49, 49, 49]
    assert len(calls) == 147 and (30, 0) not in [(c[2], c[3]) for c in calls]
    assert 0 < sum(c.rejections for c in cells) < 147


def test_cell_abort_message_is_the_same_at_any_thread_count(monkeypatch):
    from ddetest.errors import DdeError

    spec = _pool_spec(n_grid=(30, 60, 90), reps=50)
    _injected_failures(monkeypatch, spec, {(30, 3), (60, 10), (60, 20), (90, 0)})
    outcomes = []
    for threads in (1, 2):
        calls = []
        with pytest.raises(DdeError, match="aborted") as exc:
            run_experiment(spec, threads=threads, progress=lambda *a: calls.append(a))
        outcomes.append((str(exc.value), calls))
    assert outcomes[0] == outcomes[1]
    message, calls = outcomes[0]
    assert message == (f"cell (exponential, {dgp_label(spec.dgp)}, n=60) aborted: "
                       "2 replicate failures out of 50")
    assert len(calls) == 49 + 19


def test_abort_cancels_reps_not_yet_started(monkeypatch, tmp_path):
    from ddetest.errors import DdeError

    spec = _pool_spec(n_grid=(30, 60, 90), reps=50)
    log = tmp_path / "started.txt"
    _injected_failures(monkeypatch, spec, {(30, 0), (30, 1)}, log=log)
    with pytest.raises(DdeError, match="n=30"):
        run_experiment(spec, threads=2)
    # the abort comes after the second rep; the other 148 are not waited on
    assert len(log.read_text().splitlines()) < 75


def test_multi_size_report_thread_invariant_and_pinned():
    # values from the serial loop before reps ran in a pool
    spec = ExperimentSpec(FamilyId.GAMMA, table4_alternatives(FamilyId.GAMMA)[3],
                          (30, 60), reps=10, n_boot=40, alpha=0.1, master_seed=5)
    label = "lognormal(0.9548,0.287682)"
    expected = [
        SimCell(FamilyId.GAMMA, label, 30, 10, 10, 6, 0.6, 0.15491933384829668),
        SimCell(FamilyId.GAMMA, label, 60, 10, 10, 6, 0.6, 0.15491933384829668),
    ]
    for threads in (1, 2, 3):
        assert run_experiment(spec, threads=threads).cells == expected
