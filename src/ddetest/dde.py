"""The entropy-gap statistic and its parametric-bootstrap calibration.

The statistic is DDE = DE_ML - DE_KDE: the gap between the entropy implied
by the fitted null and the entropy carried by the data's kernel density.
Calibration resamples from the fitted null, repeats the entire pipeline
(refit, reselect bandwidth, re-estimate both entropies) on every replicate,
and reads p-values and critical intervals off the bootstrap distribution:

* plus-one two-sided p-value, centered at the bootstrap mean:
  p = [1 + #{b : |DDE_b - m| >= |DDE - m|}] / (n_boot + 1);
* critical interval: the uncentered α/2 and 1-α/2 bootstrap quantiles
  (linear interpolation of order statistics).

The reject flag follows the p-value rule (the exact finite-simulation rank
test); the interval decision is reported alongside.

The pipeline of a replicate runs row-wise over a group of replicates at
once: ``_dde_rows`` takes the group's samples as a (rows, n) array and runs
the refit (``families._fit_rows``), the bandwidth rule
(``bandwidth._bandwidth_rows``), DE_ML (the family's entropy over the fitted
parameter columns) and DE_KDE (``entropy._kde_entropy``) once over them.
Each attempt of a group makes one such call: attempt 0 on every replicate,
attempts 1-3 on the rows that failed the attempt before, redrawn together.
A group holds at most ``KDE_BLOCK_BYTES`` of samples, and with a pool (at
n_boot >= 8) at most ⌈n_boot / (4 threads)⌉ replicates; each pool task is
one group.  The observed statistic is one more such call, on the data as a
single row; ``fit_mle``, ``select_bandwidth``, ``closed_form_entropy`` and
``de_kde`` are the one-row calls of its stages, each taking every input
once (the family from the fit, the scale from the bandwidth).  Every
replicate draws from a stream that is a pure function of (seed, replicate,
attempt), and every row-wise stage reduces along rows only, so a
replicate's value is bit-identical alone or in any group, and results are
bit-identical regardless of how replicates are scheduled across workers.

Parallelism happens at one level, with one process pool.  A lone test
(``ddetest test``) spreads groups of bootstrap replicates over ``threads``
workers; a Monte Carlo experiment (``montecarlo.run_experiment``) instead
spreads whole tests over its workers and runs each bootstrap serially.  Both
go through ``_ordered_map``.  The default worker count is the number of cores
this process may run on (``resolve_threads``).
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bandwidth import (
    MIN_SIZE as MIN_BANDWIDTH_SIZE, BandwidthSpec, _bandwidth_rows, _bandwidth_spec, _working_rows,
)
from .entropy import KDE_BLOCK_BYTES, _kde_entropy
from .errors import (
    DataError, DdeError, FitError, InvalidParameterError, QuadratureError, UsageError,
    first_failures, raise_row_failure,
)
from .families import Family, FamilyId, FittedModel, _fit_rows, get_family
from .streams import _PrefixStreams

DEFAULT_N_BOOT = 1000
DEFAULT_ALPHA = 0.05
_MAX_ATTEMPTS = 4  # first try plus up to 3 retries with fresh sub-streams
_MAX_FAILURE_FRACTION = 0.01


@dataclass(frozen=True)
class BootstrapDistribution:
    """Bootstrapped DDE values in replicate order (failed replicates dropped)."""

    values: np.ndarray
    n_boot: int
    seed: int
    n_failed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.size < 1:
            raise InvalidParameterError("bootstrap distribution is empty")

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))


@dataclass(frozen=True)
class DdeResult:
    """Everything a test run produced, sufficient to replay or audit it."""

    observed_dde: float
    fitted: FittedModel
    bandwidth: BandwidthSpec
    boot: BootstrapDistribution
    p_value: float
    alpha: float
    critical_low: float
    critical_high: float
    reject: bool
    interval_reject: bool
    seed: int

    @property
    def n_boot(self) -> int:
        return self.boot.n_boot


def _dde_rows(fam: Family, rows: np.ndarray):
    """DDE of each row of a (rows, n) array under the null ``fam``: fit,
    working scale, bandwidth, DE_ML and DE_KDE.

    Returns (values, the fitted parameter columns, the bandwidth parts
    (κ0, h, c, shape statistics), failures), where failures holds the rows
    whose fit, bandwidth or their data checks raised FitError or DataError,
    each error's ``stage`` set to "fit" or "bandwidth".  A failed row's
    value is NaN, and the row never reaches the KDE.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # failed rows carry on as garbage
        theta, fit_failures = _fit_rows(fam.family_id, rows)
        working, working_failures = _working_rows(fam.family_id, rows)
        kappa0 = fam.kurtosis(theta)
        h, c, shape, bw_failures = _bandwidth_rows(fam.family_id, kappa0, working)
        ml = np.full(h.shape, fam.entropy(theta))
    failures = first_failures(fit_failures, working_failures, bw_failures)
    for i, exc in failures.items():
        exc.stage = "fit" if i in fit_failures else "bandwidth"
    ok = np.ones(h.shape, dtype=bool)
    ok[list(failures)] = False
    values = np.full(h.shape, np.nan)
    # working[ok] is a copy, which _kde_entropy sorts in place
    values[ok] = ml[ok] - _kde_entropy(working[ok], h[ok], fam.support)
    return values, theta, (kappa0, h, c, shape), failures


def _replicate_group(args) -> np.ndarray:
    """Bootstrap DDE values for replicates start..stop-1; NaN where every
    attempt failed.

    Attempt a draws every replicate still pending from its own stream
    (seed, "boot", r, a) and runs ``_dde_rows`` once over them; the rows
    that failed stay pending for the next attempt.
    """
    fitted, n, seed, start, stop = args
    fam = get_family(fitted.family)
    streams = _PrefixStreams(seed, "boot")
    out = np.full(stop - start, np.nan)
    pending = np.arange(start, stop)
    for attempt in range(_MAX_ATTEMPTS):
        rows = np.array([fam.sampler(fitted.theta, n, streams(r, attempt)) for r in pending])
        values, _, _, failures = _dde_rows(fam, rows)
        out[pending - start] = values
        pending = pending[sorted(failures)]
        if not pending.size:
            break
    return out


def resolve_threads(threads: int | None) -> int:
    """Explicit value, else DDETEST_THREADS, else the cores this process may
    run on."""
    if threads is not None:
        if threads < 1:
            raise UsageError(f"threads must be >= 1, got {threads}")
        return threads
    env = os.environ.get("DDETEST_THREADS")
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise UsageError(f"DDETEST_THREADS is not an integer: {env!r}") from exc
        if value < 1:
            raise UsageError(f"DDETEST_THREADS must be >= 1, got {value}")
        return value
    try:  # CPU affinity, so taskset and cgroup cpusets count
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _ordered_map(fn, tasks, threads: int):
    """Yield ``fn(task)`` for each task, in task order.

    Serial (in this process, one task at a time) at ``threads <= 1`` or for
    a single task; otherwise over one process pool of at most
    ``min(threads, len(tasks))`` workers.  Closing the generator early
    cancels the tasks that have not started.
    """
    tasks = list(tasks)
    workers = min(threads, len(tasks))
    if workers <= 1:
        for task in tasks:
            yield fn(task)
        return
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        yield from pool.map(fn, tasks)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _min_test_size(family: FamilyId | str) -> int:
    """The smallest sample a test of the null takes: the larger of the fit's
    minimum and the bandwidth rule's."""
    return max(get_family(family).min_fit_size, MIN_BANDWIDTH_SIZE)


def bootstrap_null(
    fitted: FittedModel,
    n: int,
    n_boot: int,
    seed: int,
    *,
    threads: int = 1,
) -> BootstrapDistribution:
    """Bootstrap distribution of DDE under the fitted null.

    Each replicate resamples n draws from ``fitted`` and computes their DDE
    as ``run_test`` computes the data's: it refits, reselects the bandwidth
    with the same rule and recomputes both entropy estimates, in the groups
    of replicates the module docstring describes.

    Failure policy inside a replicate, by error class:

    * ``FitError`` or ``DataError`` (the refit, the bandwidth rule or the
      data checks before them): the replicate is redrawn from a fresh
      sub-stream, ``(seed, "boot", r, attempt)`` for attempts 1-3, together
      with the other replicates of its group that failed the same attempt,
      and dropped after its fourth failure; the run aborts with
      ``FitError`` if more than 1% of the replicates are dropped.
    * ``QuadratureError`` (a non-finite KDE entropy): the bootstrap aborts;
      ``run_test`` reports it at stage ``bootstrap``.
    """
    if n_boot < 1:
        raise UsageError(f"n_boot must be >= 1, got {n_boot}")
    fam = get_family(fitted.family)
    if not fam.testable:
        raise FitError(f"{fam.family_id.value} is not a testable null (sampler-only)")
    need = _min_test_size(fam.family_id)
    if n < need:
        raise DataError(
            f"bootstrap sample size {n} is below {need}, the minimum of the "
            f"{fam.family_id.value} fit and of the bandwidth rule"
        )
    group = max(1, KDE_BLOCK_BYTES // (8 * n))
    if threads > 1 and n_boot >= 8:
        group = min(group, math.ceil(n_boot / (threads * 4)))
    tasks = [(fitted, n, seed, s, min(s + group, n_boot)) for s in range(0, n_boot, group)]
    values = np.concatenate(list(_ordered_map(_replicate_group, tasks, threads)))
    failed = int(np.count_nonzero(np.isnan(values)))
    if failed > _MAX_FAILURE_FRACTION * n_boot:
        raise FitError(
            f"{failed} of {n_boot} bootstrap replicates failed to fit "
            f"(> {_MAX_FAILURE_FRACTION:.0%} tolerance)",
            stage="bootstrap",
        )
    if failed:
        values = values[~np.isnan(values)]
    return BootstrapDistribution(values=values, n_boot=n_boot, seed=seed, n_failed=failed)


def p_value(observed: float, boot: BootstrapDistribution) -> float:
    """Plus-one two-sided p-value centered at the bootstrap mean; ties count."""
    center = boot.mean
    exceed = int(np.count_nonzero(np.abs(boot.values - center) >= abs(observed - center)))
    return (1.0 + exceed) / (boot.values.size + 1.0)


def critical_interval(boot: BootstrapDistribution, alpha: float) -> tuple[float, float]:
    """(α/2, 1-α/2) bootstrap quantiles by linear order-statistic interpolation."""
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"alpha must be in (0, 1), got {alpha}")
    lo, hi = np.quantile(boot.values, [alpha / 2.0, 1.0 - alpha / 2.0], method="linear")
    return float(lo), float(hi)


def run_test(
    family: FamilyId | str,
    data,
    *,
    alpha: float = DEFAULT_ALPHA,
    n_boot: int = DEFAULT_N_BOOT,
    seed: int,
    threads: int = 1,
) -> DdeResult:
    """Fit, compute the observed DDE, bootstrap the null, decide.

    One ``_dde_rows`` call on the data as a single row, the function every
    bootstrap replicate computes, gives the observed DDE, the fitted null and
    the bandwidth.  An error carries the stage it failed in: "fit",
    "bandwidth", "entropy" (the observed KDE) or "bootstrap".
    """
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"alpha must be in (0, 1), got {alpha}")
    fam = get_family(family)
    data = np.asarray(data, dtype=float)
    if data.ndim != 1:
        raise DataError("expected a one-dimensional sample", stage="fit")
    n = int(data.size)
    try:
        values, theta, parts, failures = _dde_rows(fam, data[None, :])
    except DdeError as exc:  # the KDE's, or the fit's refusal of the null or of n
        exc.stage = "entropy" if isinstance(exc, QuadratureError) else "fit"
        raise
    raise_row_failure(failures)
    observed = float(values[0])
    fitted = FittedModel(fam.family_id, tuple(float(col[0]) for col in theta), n_fit=n)
    bw = _bandwidth_spec(fam.family_id, n, *parts)
    try:
        boot = bootstrap_null(fitted, n, n_boot, seed, threads=threads)
    except DdeError as exc:
        exc.stage = exc.stage or "bootstrap"
        raise
    p = p_value(observed, boot)
    lo, hi = critical_interval(boot, alpha)
    return DdeResult(
        observed_dde=observed,
        fitted=fitted,
        bandwidth=bw,
        boot=boot,
        p_value=p,
        alpha=alpha,
        critical_low=lo,
        critical_high=hi,
        reject=p <= alpha,
        interval_reject=not (lo <= observed <= hi),
        seed=seed,
    )
