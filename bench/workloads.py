"""The benchmark's three workloads and the checks on their outputs.

Each workload runs in one process from a workload seed.  A *unit* is one
result a user waits for: one ``ddetest test`` report for the two test
workloads, one simulated cell written as CSV for the simulate workload.
Unit ``i`` derives its own seed from (workload seed, i); a workload has a
fixed number of units (``units``), which the timed run repeats in passes and
the traced run runs once per phase, so trace counts repeat exactly per seed.

Why these three (see bench/README.md for the measured split):

* gengamma-faithful: the 3-start Nelder-Mead GG fit is ~94% of a replicate;
  fit-layer work shows here and KDE or pool work should not.
* simulate-normal-n100: many small tests, each starting its own process
  pool; per-replicate overhead, batching and pool work show here.
* kde-n20000: one test on n = 20 000 positive values; the ln-space KDE
  integral is ~96% of a replicate and sets peak memory.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from ddetest import cli, montecarlo, report
from ddetest.families import FamilyId

ALPHA = 0.05
GG_FAITHFUL_P = 17.9573  # global GG MLE of p on faithful-hardle
GG_P_RTOL = 1e-4


class CheckFailed(Exception):
    """A workload produced an output that is wrong."""


def derive_seed(*parts) -> int:
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)


@dataclass
class Unit:
    wall_s: float
    tests_ms: list[float]
    attempted: int  # bootstrap replicates requested
    failed: int  # dropped replicates + failed Monte Carlo reps
    failed_reps: int
    output: bytes


class CliTest:
    """In-process ``ddetest test`` on one dataset; one report per unit."""

    name = ""
    family = ""
    units = 1

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.units = 1 if tiny else self.units
        self.data = self.prepare_data(tiny)

    def prepare_data(self, tiny: bool) -> str:
        raise NotImplementedError

    def threads(self) -> int:
        return 1

    def warm(self, threads: int):
        """Load lazily imported code and fill caches before timing."""
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["test", "--family", self.family, "--data", self.data, "--threads",
                      str(threads), "--seed", "0", "--nboot", "8"])

    def run_unit(self, i: int, threads: int) -> Unit:
        out = os.path.join(self.workdir, f"{self.name}-{i}.json")
        argv = ["test", "--family", self.family, "--data", self.data,
                "--threads", str(threads), "--seed", str(derive_seed(self.seed, self.name, i)),
                "--nboot", str(self.n_boot), "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc = cli.main(argv)
            wall = time.perf_counter() - t0
        if rc != 0:
            raise CheckFailed(f"{self.name}: ddetest test exited {rc}")
        with open(out, "rb") as fh:
            output = fh.read()
        os.remove(out)
        result = json.loads(output)["result"]
        boot = result["bootstrap"]
        values = boot["values"]
        if boot["n_failed"] != 0:
            raise CheckFailed(f"{self.name}: {boot['n_failed']} bootstrap replicates failed")
        if len(values) != self.n_boot or not all(math.isfinite(v) for v in values):
            raise CheckFailed(f"{self.name}: report does not hold {self.n_boot} finite values")
        if result["reject"] is not True:
            raise CheckFailed(f"{self.name}: expected a rejection, p = {result['p_value']}")
        self.check(result)
        return Unit(wall_s=wall, tests_ms=[wall * 1e3], attempted=self.n_boot,
                    failed=boot["n_failed"], failed_reps=0, output=output)

    def check(self, result: dict):
        pass


class GengammaFaithful(CliTest):
    name = "gengamma-faithful"
    family = "gengamma"
    # at B = 20 about 1 test in 160 fails to reject (a low bootstrap
    # outlier drags the centre); none did in 20 000 draws at B = 40
    n_boot = 40
    units = 5

    def prepare_data(self, tiny: bool) -> str:
        return "faithful-hardle"

    def check(self, result: dict):
        p = result["fitted"]["theta"][2]
        if abs(p - GG_FAITHFUL_P) > GG_P_RTOL * GG_FAITHFUL_P:
            raise CheckFailed(f"{self.name}: fitted p = {p!r}, expected {GG_FAITHFUL_P} "
                              f"within {GG_P_RTOL:g} relative (the global MLE)")


class KdeN20000(CliTest):
    name = "kde-n20000"
    family = "gamma"
    n_boot = 20
    units = 2

    def prepare_data(self, tiny: bool) -> str:
        n = 2000 if tiny else 20000
        rng = np.random.default_rng(derive_seed(self.seed, self.name, "data"))
        x = rng.lognormal(mean=1.0, sigma=0.5, size=n)
        path = os.path.join(self.workdir, "lognormal.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{v!r}\n" for v in x.tolist()))
        return path


class SimulateNormal:
    """One size-row cell: normal null, data from NULL_MEMBERS[normal]."""

    name = "simulate-normal-n100"
    n = 100
    units = 4

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.reps = 20 if tiny else 50
        self.n_boot = 20 if tiny else 100
        self.units = 1 if tiny else self.units
        self.dgp = montecarlo.NULL_MEMBERS[FamilyId.NORMAL]

    def spec(self, reps: int, n_boot: int, seed: int):
        return montecarlo.ExperimentSpec(
            null_family=FamilyId.NORMAL, dgp=self.dgp, n_grid=(self.n,), reps=reps,
            n_boot=n_boot, alpha=ALPHA, master_seed=seed,
        )

    def threads(self) -> int:
        return min(2, len(os.sched_getaffinity(0)))

    def warm(self, threads: int):
        montecarlo.run_experiment(self.spec(2, 8, 0), threads=threads)

    def run_unit(self, i: int, threads: int) -> Unit:
        spec = self.spec(self.reps, self.n_boot, derive_seed(self.seed, self.name, i))
        stamps = []
        t0 = time.perf_counter()
        sim = montecarlo.run_experiment(
            spec, threads=threads, progress=lambda *_: stamps.append(time.perf_counter()))
        text = report.simulation_csv(sim)
        wall = time.perf_counter() - t0
        cell = sim.cells[0]
        if cell.reps_completed != self.reps:
            raise CheckFailed(f"{self.name}: {cell.reps_completed} of {self.reps} reps completed")
        se = math.sqrt(ALPHA * (1.0 - ALPHA) / self.reps)
        if abs(cell.rate - ALPHA) > 4.0 * se:
            raise CheckFailed(f"{self.name}: rejection rate {cell.rate} is more than "
                              f"4 MC standard errors ({se:.4f}) from alpha = {ALPHA}")
        tests_ms = [(b - a) * 1e3 for a, b in zip([t0] + stamps, stamps)]
        failed_reps = cell.reps_requested - cell.reps_completed
        return Unit(wall_s=wall, tests_ms=tests_ms, attempted=self.reps * self.n_boot,
                    failed=failed_reps, failed_reps=failed_reps,
                    output=text.encode("utf-8"))


WORKLOADS = {w.name: w for w in (GengammaFaithful, SimulateNormal, KdeN20000)}
