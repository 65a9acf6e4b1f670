"""In-memory span tracer for the benchmark's traced run.

The tracer never edits the program.  It replaces, for the duration of one
traced phase, the names that the pipeline modules imported from each other
(``ddetest.dde.fit_mle``, ``ddetest.entropy.integrate``, ...) with wrappers
that record a span per call: name, start, end and the enclosing span.  A
name that a later version of the program no longer has is skipped and listed
in ``Tracer.missing``, so the untraced end-to-end run never depends on it.

Bootstrap replicates have no function of their own, so their spans are
opened from the ``(seed, "boot", r, attempt)`` path passed to ``substream``:
attempt 0 closes the previous replicate and opens the next one, later
attempts are retries of the open one, and the enclosing ``bootstrap_null``
span closes the last.
"""
from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

REPLICATE = "dde.replicate"
RUN_TEST = ("dde.run_test", "montecarlo.run_test")
UNIT = ("cli.main", "montecarlo.run_experiment")
ERROR_CLASSES = ("FitError", "DataError", "QuadratureError")


def _error_class(exc: BaseException) -> str:
    for cls in type(exc).__mro__:
        if cls.__name__ in ERROR_CLASSES:
            return cls.__name__
    return "other"


class Tracer:
    """Spans kept in parallel lists; written out only after the run."""

    def __init__(self):
        self.name: list[str] = []
        self.t0: list[float] = []
        self.t1: list[float] = []
        self.parent: list[int] = []
        self.attrs: dict[int, dict] = {}
        self.errors: Counter = Counter()  # (layer, error class) -> count
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._replicate: int | None = None

    # -- span bookkeeping ---------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.t1.append(0.0)
        self._stack.append(idx)
        self.t0.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        """End span ``idx`` and any span still open inside it."""
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.t1[top] = now
            if top == self._replicate:
                self._replicate = None
            if top == idx:
                return

    def _failed(self, idx: int, exc: BaseException):
        # count each exception once, at the innermost wrapper that saw it
        if not hasattr(exc, "_bench_layer"):
            exc._bench_layer = self.name[idx]
            self.errors[(self.name[idx], _error_class(exc))] += 1
        if self._replicate is not None and self.parent[idx] == self._replicate:
            rep = self.attrs[self._replicate]
            rep["failed"] += 1
            rep["failed_in"].append(exc._bench_layer)

    def call(self, name, fn, args, kwargs, note=None):
        idx = self.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self._failed(idx, exc)
            raise
        finally:
            self.close(idx)
        if note is not None:
            self.attrs[idx] = note(args, result)
        return result

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name, fn, note=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, note)
        return traced

    def wrap_substream(self, fn):
        def traced(*parts):
            if len(parts) == 4 and parts[1] == "boot":
                if parts[3] == 0:
                    if self._replicate is not None:
                        self.close(self._replicate)
                    self._replicate = self.open(REPLICATE)
                    self.attrs[self._replicate] = {"attempts": 1, "failed": 0, "failed_in": []}
                elif self._replicate is not None:
                    self.attrs[self._replicate]["attempts"] += 1
            return self.call("streams.substream", fn, parts, {})
        return traced

    def wrap_integrate(self, integrate_with_error):
        """Stand-in for ``integrate`` that keeps the panel count and the
        number of integrand points, which ``integrate`` discards."""
        def traced(f, rng, tol=1e-8, **kwargs):
            idx = self.open("quadrature.integrate")
            counts = {"points": 0, "max_points": 0, "panels": 0}
            self.attrs[idx] = counts

            def integrand(pts):
                counts["points"] += pts.size
                counts["max_points"] = max(counts["max_points"], pts.size)
                k = self.open("quadrature.integrand")
                try:
                    return f(pts)
                finally:
                    self.close(k)

            try:
                value, _, counts["panels"] = integrate_with_error(integrand, rng, tol, **kwargs)
            except Exception as exc:
                self._failed(idx, exc)
                raise
            finally:
                self.close(idx)
            return value
        return traced

    @contextmanager
    def installed(self, patches):
        """Swap in the wrappers for ``patches`` = [(module, attr, make)]."""
        saved = []
        for module, attr, make in patches:
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, make(fn))
        try:
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)
            while self._stack:
                self.close(self._stack[0])

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.name):
                fh.write(json.dumps([i, name, self.parent[i], self.t0[i], self.t1[i]]) + "\n")


def pipeline_patches(tracer: Tracer, ddetest_modules) -> list:
    """Which imported name each span wraps; one layer name per span."""
    cli, dde, entropy, montecarlo, quadrature, report = ddetest_modules

    def text_bytes(args, result):
        return {"bytes": len(result.encode("utf-8"))}

    def sample_size(args, result):
        return {"n": len(args[0])}

    def wrap(name, note=None):
        return lambda fn: tracer.wrap(name, fn, note)

    return [
        (cli, "main", wrap("cli.main")),
        (cli, "load_dataset", wrap("datasets.load")),
        (cli, "run_test", wrap("dde.run_test")),
        (cli, "test_report", wrap("report.build")),
        (cli, "emit_json", wrap("report.emit", text_bytes)),
        (montecarlo, "run_experiment", wrap("montecarlo.run_experiment")),
        (montecarlo, "sample", wrap("montecarlo.sample")),
        (montecarlo, "run_test", wrap("montecarlo.run_test")),
        (report, "simulation_csv", wrap("report.csv", text_bytes)),
        (dde, "bootstrap_null", wrap("dde.bootstrap")),
        (dde, "substream", tracer.wrap_substream),
        (dde, "sample", wrap("families.sample")),
        (dde, "fit_mle", wrap("families.fit")),
        (dde, "select_bandwidth", wrap("bandwidth.select")),
        (dde, "de_ml", wrap("entropy.de_ml")),
        (dde, "de_kde", wrap("entropy.de_kde", sample_size)),
        (entropy, "integrate",
         lambda fn: tracer.wrap_integrate(quadrature.integrate_with_error)),
    ]


# -- reduction to metrics ----------------------------------------------------

def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class SpanTable:
    """Durations, children and attributes of one tracer's spans."""

    def __init__(self, tracer: Tracer):
        self.tr = tracer
        self.dur = [b - a for a, b in zip(tracer.t0, tracer.t1)]
        self.by_name: dict[str, list[int]] = defaultdict(list)
        self.child_time = [0.0] * len(self.dur)
        self.children: dict[int, list[int]] = defaultdict(list)
        for i, (name, p) in enumerate(zip(tracer.name, tracer.parent)):
            self.by_name[name].append(i)
            if p >= 0:
                self.child_time[p] += self.dur[i]
                self.children[p].append(i)

    def indices(self, *names) -> list[int]:
        return [i for n in names for i in self.by_name.get(n, ())]

    def durations(self, *names) -> list[float]:
        return [self.dur[i] for i in self.indices(*names)]

    def mean(self, *names) -> float:
        d = self.durations(*names)
        return sum(d) / len(d) if d else 0.0

    def self_time(self, i) -> float:
        return self.dur[i] - self.child_time[i]

    def kde_blocks(self):
        """(kernel evaluations, largest points x n block) over KDE integrals."""
        evals = 0
        largest = 0
        for i in self.indices("quadrature.integrate"):
            p = self.tr.parent[i]
            if p < 0 or self.tr.name[p] != "entropy.de_kde":
                continue
            n = self.tr.attrs[p]["n"] if p in self.tr.attrs else 0
            c = self.tr.attrs[i]
            evals += c["points"] * n
            largest = max(largest, c["max_points"] * n)
        return evals, largest

    def replicate_shares(self) -> dict[str, float]:
        """Share of replicate time spent in each layer directly below it;
        ``dde.replicate`` itself is the time between those calls."""
        total = 0.0
        per_layer: Counter = Counter()
        for r in self.indices(REPLICATE):
            total += self.dur[r]
            per_layer[REPLICATE] += self.self_time(r)
            for c in self.children.get(r, ()):
                per_layer[self.tr.name[c]] += self.dur[c]
        if total <= 0.0:
            return {}
        return {k: v / total for k, v in sorted(per_layer.items(), key=lambda kv: -kv[1])}

    def report_bytes(self) -> int:
        return sum(self.tr.attrs[i]["bytes"] for i in self.indices("report.emit", "report.csv"))

    def counts(self) -> dict:
        """Everything in the trace that must repeat exactly for one seed."""
        out = {f"calls.{k}": len(v) for k, v in sorted(self.by_name.items())}
        integrals = [self.tr.attrs[i] for i in self.indices("quadrature.integrate")]
        out["quadrature.panels"] = sum(c["panels"] for c in integrals)
        out["quadrature.points"] = sum(c["points"] for c in integrals)
        out["entropy.kde_kernel_evals"], out["entropy.kde_max_block"] = self.kde_blocks()
        reps = [self.tr.attrs[i] for i in self.indices(REPLICATE)]
        out["dde.attempts"] = sum(r["attempts"] for r in reps)
        out["dde.failed_attempts"] = sum(r["failed"] for r in reps)
        out["report.bytes"] = self.report_bytes()
        for (layer, cls), k in sorted(self.tr.errors.items()):
            out[f"errors.{layer}.{cls}"] = k
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics, as named in BENCHMARK.json (except the few that
        need the untraced run; the caller adds those)."""
        tr = self.tr
        units = len(self.durations(*UNIT)) or 1
        integrals = [tr.attrs[i] for i in self.indices("quadrature.integrate")]
        n_int = len(integrals) or 1
        reps = [tr.attrs[i] for i in self.indices(REPLICATE)]
        rep_us = [d * 1e6 for d in self.durations(REPLICATE)]
        evals, largest = self.kde_blocks()

        observed = []
        for i in self.indices("dde.bootstrap"):
            p = tr.parent[i]
            if p >= 0 and tr.name[p] in RUN_TEST:
                observed.append(tr.t0[i] - tr.t0[p])
        cli_self = [self.self_time(i) for i in self.indices("cli.main")]
        report_s = sum(self.durations("report.build", "report.emit", "report.csv"))
        by_class = Counter()
        for (layer, cls), k in tr.errors.items():
            by_class[cls] += k
        fit_failed = sum(r["failed_in"].count("families.fit") for r in reps)

        return {
            "families.fit_us": self.mean("families.fit") * 1e6,
            "families.fit_calls": len(self.indices("families.fit")),
            "families.fit_retries": fit_failed,
            "families.sample_us": self.mean("families.sample") * 1e6,
            "streams.substream_us": self.mean("streams.substream") * 1e6,
            "bandwidth.select_us": self.mean("bandwidth.select") * 1e6,
            "entropy.de_ml_us": self.mean("entropy.de_ml") * 1e6,
            "entropy.de_kde_us": self.mean("entropy.de_kde") * 1e6,
            "entropy.kde_kernel_evals": evals,
            "entropy.kde_bytes_computed": 8 * evals,
            "entropy.kde_max_block_bytes": 8 * largest,
            "quadrature.panels_per_integral": sum(c["panels"] for c in integrals) / n_int,
            "quadrature.points_per_integral": sum(c["points"] for c in integrals) / n_int,
            "quadrature.integrate_us": self.mean("quadrature.integrate") * 1e6,
            "quadrature.self_us": (sum(self.self_time(i)
                                       for i in self.indices("quadrature.integrate"))
                                   / n_int * 1e6),
            "dde.replicate_p50_us": quantile(rep_us, 50),
            "dde.replicate_p95_us": quantile(rep_us, 95),
            "dde.replicate_retries": sum(r["attempts"] - 1 for r in reps),
            "dde.replicates_dropped": sum(1 for r in reps if r["failed"] == r["attempts"]),
            "dde.observed_ms": (sum(observed) / len(observed) * 1e3) if observed else 0.0,
            "dde.bootstrap_s": self.mean("dde.bootstrap"),
            "errors.fit_error": by_class["FitError"],
            "errors.data_error": by_class["DataError"],
            "errors.quadrature_error": by_class["QuadratureError"],
            "montecarlo.datagen_us": self.mean("montecarlo.sample") * 1e6,
            "montecarlo.run_test_ms": self.mean("montecarlo.run_test") * 1e3,
            "datasets.load_ms": self.mean("datasets.load") * 1e3,
            "report.emit_ms": report_s / units * 1e3,
            "report.bytes": self.report_bytes() / units,
            "cli.overhead_ms": (sum(cli_self) / len(cli_self) * 1e3) if cli_self else 0.0,
        }
