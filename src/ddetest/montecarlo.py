"""Size/power experiment harness: rejection-rate tables over (null, DGP, n) grids.

The simulated design tests four null families (Normal, Exponential, Gamma,
Laplace) against four alternatives each, chosen to match the null's variance
(and mean, where feasible):

    Normal null, N(0,1):       Laplace(0, 1/sqrt(2)), Logistic(0, sqrt(3)/pi),
                               Cauchy(0, 1), t(3)/sqrt(3)
    Exponential null, Exp(2):  Rayleigh(sqrt(8/(4-pi))), LogLogistic(2.6954, 1.5764),
                               Lomax(3, 4), LogNormal(0.3466, ln 2)
    Gamma null, Gamma(3,1):    Weibull(1.7915, 3.3727), LogLogistic(3.72, 2.66),
                               InvGaussian(3, 9), LogNormal(0.9548, ln(4/3))
    Laplace null, La(0,1/√2):  N(0,1), Logistic(0, sqrt(3)/pi), Cauchy(0, 1),
                               t(3)/sqrt(3)

LogLogistic parameters are (shape, scale) — the only reading with finite
variance; the Exponential-row member then has mean 2.000 and variance 4.000.
Lomax(3, 4) is (shape, scale) with mean 2 and variance 12: no Lomax with
mean 2 attains variance 4 (the infimum as shape grows), so only the mean
target is met there.  Analytic means/variances are exposed via
``dgp_moments`` and verified against large-sample draws in the test suite.

An experiment parallelizes over its Monte Carlo reps: ``run_experiment``
spreads the (n, rep) grid over one pool of ``threads`` workers and runs each
test's bootstrap serially, where a lone test spreads its bootstrap replicates
instead (see ``dde``).  The CLI's default worker count is DDETEST_THREADS,
else the cores this process may run on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .dde import _ordered_map, run_test
from .errors import DdeError, UsageError
from .families import FamilyId, FittedModel, get_family, sample
from .streams import stable_seed, substream

SIMULATED_NULLS = (
    FamilyId.NORMAL, FamilyId.EXPONENTIAL, FamilyId.GAMMA, FamilyId.LAPLACE,
)

# members of the null families used for the size rows of the study
NULL_MEMBERS: dict[FamilyId, FittedModel] = {
    FamilyId.NORMAL: FittedModel(FamilyId.NORMAL, (0.0, 1.0)),
    FamilyId.EXPONENTIAL: FittedModel(FamilyId.EXPONENTIAL, (2.0,)),
    FamilyId.GAMMA: FittedModel(FamilyId.GAMMA, (3.0, 1.0)),
    FamilyId.LAPLACE: FittedModel(FamilyId.LAPLACE, (0.0, 1.0 / math.sqrt(2.0))),
}

_REAL_LINE_ALTERNATIVES = (
    FittedModel(FamilyId.LAPLACE, (0.0, 1.0 / math.sqrt(2.0))),
    FittedModel(FamilyId.LOGISTIC, (0.0, math.sqrt(3.0) / math.pi)),
    FittedModel(FamilyId.CAUCHY, (0.0, 1.0)),
    FittedModel(FamilyId.SCALED_T, (3.0, 1.0 / math.sqrt(3.0))),
)

_TABLE4: dict[FamilyId, tuple[FittedModel, ...]] = {
    FamilyId.NORMAL: _REAL_LINE_ALTERNATIVES,
    FamilyId.EXPONENTIAL: (
        FittedModel(FamilyId.RAYLEIGH, (math.sqrt(8.0 / (4.0 - math.pi)),)),
        FittedModel(FamilyId.LOGLOGISTIC, (2.6954, 1.5764)),
        FittedModel(FamilyId.LOMAX, (3.0, 4.0)),
        FittedModel(FamilyId.LOGNORMAL, (0.3466, math.log(2.0))),
    ),
    FamilyId.GAMMA: (
        FittedModel(FamilyId.WEIBULL, (1.7915, 3.3727)),
        FittedModel(FamilyId.LOGLOGISTIC, (3.72, 2.66)),
        FittedModel(FamilyId.INV_GAUSSIAN, (3.0, 9.0)),
        FittedModel(FamilyId.LOGNORMAL, (0.9548, math.log(4.0 / 3.0))),
    ),
    FamilyId.LAPLACE: (
        FittedModel(FamilyId.NORMAL, (0.0, 1.0)),
    ) + _REAL_LINE_ALTERNATIVES[1:],
}


def table4_alternatives(null_family: FamilyId | str) -> list[FittedModel]:
    """The four study alternatives for one of the simulated nulls."""
    fid = FamilyId(null_family)
    if fid not in _TABLE4:
        raise UsageError(
            f"{fid.value} is not one of the simulated nulls "
            f"({', '.join(f.value for f in SIMULATED_NULLS)})"
        )
    return list(_TABLE4[fid])


def dgp_label(model: FittedModel) -> str:
    params = ",".join(f"{t:g}" for t in model.theta)
    return f"{model.family.value}({params})"


def dgp_moments(model: FittedModel) -> tuple[float, float]:
    """Analytic (mean, variance) of a generator spec; NaN where undefined."""
    fam = get_family(model.family)
    if fam.moments is None:
        raise UsageError(f"no moments available for {fam.family_id.value}")
    return fam.moments(model.theta)


@dataclass(frozen=True)
class ExperimentSpec:
    """One (null, DGP) pair swept over sample sizes."""

    null_family: FamilyId
    dgp: FittedModel
    n_grid: tuple[int, ...]
    reps: int
    n_boot: int
    alpha: float
    master_seed: int

    def __post_init__(self):
        object.__setattr__(self, "null_family", FamilyId(self.null_family))
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        if self.reps < 1:
            raise UsageError(f"reps must be >= 1, got {self.reps}")
        if self.n_boot < 1:
            raise UsageError(f"n_boot must be >= 1, got {self.n_boot}")
        if not 0.0 < self.alpha < 1.0:
            raise UsageError(f"alpha must be in (0, 1), got {self.alpha}")
        min_n = get_family(self.null_family).min_fit_size
        for n in self.n_grid:
            if n < max(min_n, 4):
                raise UsageError(f"sample size {n} is below the minimum usable size")


@dataclass(frozen=True)
class SimCell:
    null_family: FamilyId
    dgp: str
    n: int
    reps_requested: int
    reps_completed: int
    rejections: int
    rate: float
    mc_se: float


@dataclass
class SimReport:
    cells: list[SimCell] = field(default_factory=list)

    def extend(self, other: "SimReport"):
        self.cells.extend(other.cells)


_CELL_FAILURE_FRACTION = 0.02


def _run_rep(task) -> bool | None:
    """One Monte Carlo rep: draw its data and test it, with the bootstrap run
    serially; the reject flag, or None if the test failed."""
    spec, label, n, rep = task
    data_stream = substream(
        spec.master_seed, "mc", spec.null_family.value, label, n, rep, "data"
    )
    data = sample(spec.dgp, n, data_stream)
    test_seed = stable_seed(
        spec.master_seed, "mc", spec.null_family.value, label, n, rep, "test"
    )
    try:
        res = run_test(
            spec.null_family, data, alpha=spec.alpha,
            n_boot=spec.n_boot, seed=test_seed, threads=1,
        )
    except DdeError:
        return None
    return res.reject


def run_experiment(spec: ExperimentSpec, *, threads: int = 1,
                   progress=None) -> SimReport:
    """Rejection rates for one (null, dgp) pair across the sample-size grid.

    Every replicate's data stream and test seed derive from
    (master_seed, null, dgp, n, rep), so the report is bit-reproducible
    regardless of execution order.  The whole (n, rep) grid is spread over
    one pool of ``threads`` workers, each rep a whole test whose bootstrap
    runs serially; at ``threads=1`` it runs in this process.  Results are
    taken in (n, rep) order, and ``progress`` is called once per completed
    rep in that order.  A cell aborts if more than 2% of its replicates
    fail; reps not yet started are then cancelled.
    """
    label = dgp_label(spec.dgp)
    tasks = [(spec, label, n, rep) for n in spec.n_grid for rep in range(spec.reps)]
    results = _ordered_map(_run_rep, tasks, threads)
    cells = []
    try:
        for n in spec.n_grid:
            rejections = 0
            completed = 0
            failed = 0
            for rep in range(spec.reps):
                reject = next(results)
                if reject is None:
                    failed += 1
                    if failed > _CELL_FAILURE_FRACTION * spec.reps:
                        raise DdeError(
                            f"cell ({spec.null_family.value}, {label}, n={n}) aborted: "
                            f"{failed} replicate failures out of {spec.reps}"
                        )
                    continue
                completed += 1
                rejections += int(reject)
                if progress is not None:
                    progress(spec.null_family.value, label, n, rep)
            rate = rejections / completed if completed else float("nan")
            mc_se = math.sqrt(rate * (1.0 - rate) / completed) if completed else float("nan")
            cells.append(SimCell(
                null_family=spec.null_family, dgp=label, n=n,
                reps_requested=spec.reps, reps_completed=completed,
                rejections=rejections, rate=rate, mc_se=mc_se,
            ))
    finally:
        results.close()
    return SimReport(cells=cells)


def table4_campaign(
    null_family: FamilyId | str,
    n_grid: tuple[int, ...],
    reps: int,
    n_boot: int,
    alpha: float,
    master_seed: int,
) -> list[ExperimentSpec]:
    """Size row (DGP = fitted null member) plus the four study alternatives."""
    fid = FamilyId(null_family)
    dgps = [NULL_MEMBERS[fid], *table4_alternatives(fid)]
    return [
        ExperimentSpec(
            null_family=fid, dgp=dgp, n_grid=tuple(n_grid), reps=reps,
            n_boot=n_boot, alpha=alpha, master_seed=master_seed,
        )
        for dgp in dgps
    ]
