#!/usr/bin/env python3
"""ddetest benchmark: one workload per process, timed end to end or traced.

    python3 bench/run.py --workload gengamma-faithful --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off: the
workload's units run in passes for ``--seconds``, and each unit keeps its
fastest pass.  ``--trace 1``
runs a fixed number of units four ways (untraced at the timed thread count,
untraced at one thread, traced twice at one thread), checks that all four
wrote byte-identical outputs and that the two traces counted the same work,
and prints the per-layer metrics.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Spans and a full
result record go to .bench_out/.  See bench/README.md.
"""
import os

# one BLAS thread per process: the process pool supplies the parallelism
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5
WORKLOAD_NAMES = ("gengamma-faithful", "simulate-normal-n100", "kde-n20000")


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes (seconds, not minutes)")
    p.add_argument("--setup-only", action="store_true",
                   help="internal: prepare inputs, print the monotonic clock, exit")
    return p.parse_args(argv)


def import_program():
    """Put the checkout's own src/ first on the path; never an installed copy."""
    if not (SRC / "ddetest" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program source at {SRC}/ddetest; "
                         "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args, threads: int) -> dict:
    import numpy
    import scipy

    import ddetest

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "timed_threads": threads,
        "nproc": os.cpu_count(), "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "ddetest": ddetest.__version__,
        "commit": git_commit(), "platform": platform.platform(),
        "blas_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def measure_setup(args) -> list[float]:
    """Process start to inputs ready, in fresh interpreters."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup run failed ({proc.returncode}): {proc.stderr[-2000:]}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def run_untraced(wl, seconds: float, threads: int,
                 setup_s: list[float]) -> tuple[dict, int, int, dict]:
    """Two passes over the workload's units, then more while another fits
    in ``seconds``.

    Every pass reruns the same inputs, so each unit keeps its fastest pass:
    a pass that ran while another tenant held the core is discarded, and
    the medians are taken across inputs.  Repeats must write the same bytes.
    """
    from workloads import CheckFailed

    wl.warm(threads)
    t_start = time.perf_counter()
    first = [wl.run_unit(i, threads) for i in range(wl.units)]
    best_wall = [u.wall_s for u in first]
    best_tests = [u.tests_ms for u in first]
    passes = 1
    pass_s = time.perf_counter() - t_start
    while passes < 2 or time.perf_counter() - t_start + pass_s <= seconds:
        for i in range(wl.units):
            u = wl.run_unit(i, threads)
            if u.output != first[i].output:
                raise CheckFailed(f"{wl.name}: unit {i} wrote different bytes on a repeat")
            best_wall[i] = min(best_wall[i], u.wall_s)
            best_tests[i] = list(map(min, best_tests[i], u.tests_ms))
        passes += 1
    tests = [t for ts in best_tests for t in ts]
    attempted = sum(u.attempted for u in first)
    failed = sum(u.failed for u in first)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(best_wall),
        "replicates_per_s": (attempted - failed) / sum(best_wall),
        "test_p50_ms": spans.quantile(tests, 50),
        "test_p95_ms": spans.quantile(tests, 95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"units": wl.units, "passes": passes, "best_unit_wall_s": best_wall,
              "tests": len(tests), "setup_runs_s": setup_s}
    return metrics, attempted, failed, detail


def run_phase(wl, threads: int):
    units = [wl.run_unit(i, threads) for i in range(wl.units)]
    return units, sum(u.wall_s for u in units)


def run_traced(wl, threads: int, modules) -> tuple[dict, int, int, dict]:
    """The unit list untraced at ``threads`` and at 1 thread, then traced
    twice at 1 thread; outputs and trace counts must all agree."""
    from workloads import CheckFailed

    wl.warm(1)
    if threads > 1:
        timed_units, timed_wall = run_phase(wl, threads)
    plain_units, plain_wall = run_phase(wl, 1)
    if threads == 1:
        timed_units, timed_wall = plain_units, plain_wall

    traces = []
    for _ in range(2):
        tracer = spans.Tracer()
        with tracer.installed(spans.pipeline_patches(tracer, modules)):
            units, wall = run_phase(wl, 1)
        traces.append((tracer, units, wall))
    (tracer, traced_units, traced_wall), (tracer_b, units_b, _) = traces

    outputs = [[u.output for u in us] for us in (timed_units, plain_units, traced_units, units_b)]
    if any(o != outputs[0] for o in outputs[1:]):
        raise CheckFailed(
            f"{wl.name}: outputs differ between the untraced ({threads} and 1 thread) "
            "and traced runs")
    table, table_b = spans.SpanTable(tracer), spans.SpanTable(tracer_b)
    counts, counts_b = table.counts(), table_b.counts()
    if counts != counts_b:
        diff = {k: (counts.get(k), counts_b.get(k))
                for k in set(counts) | set(counts_b) if counts.get(k) != counts_b.get(k)}
        raise CheckFailed(f"{wl.name}: trace counts differ between two "
                          f"traced runs of one seed: {diff}")

    attempted = sum(u.attempted for u in traced_units)
    failed = sum(u.failed for u in traced_units)
    metrics = table.layer_metrics()
    replicate_s = sum(table.durations(spans.REPLICATE))
    metrics.update({
        "dde.replicate_fail_frac": (metrics["dde.replicates_dropped"]
                                    + sum(u.failed_reps for u in traced_units)) / attempted,
        "dde.pool_efficiency": replicate_s / (threads * timed_wall),
        "montecarlo.reps_failed": sum(u.failed_reps for u in traced_units),
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.overhead_frac": (traced_wall - plain_wall) / plain_wall,
    })
    spans_path = OUT / f"spans-{wl.name}-seed{wl.seed}.jsonl"
    tracer.write_jsonl(spans_path)
    detail = {
        "units": wl.units, "timed_threads": threads,
        "wall_s": {"untraced_timed_threads": timed_wall, "untraced_1_thread": plain_wall,
                   "traced_1_thread": traced_wall},
        "replicate_shares": table.replicate_shares(),
        "errors_by_layer": {f"{layer}:{cls}": k for (layer, cls), k in tracer.errors.items()},
        "counts": counts, "unwrapped": tracer.missing, "spans_file": spans_path.name,
    }
    return metrics, attempted, failed, detail


def _program_modules():
    from ddetest import cli, dde, entropy, montecarlo, quadrature, report

    return cli, dde, entropy, montecarlo, quadrature, report


def run_one(args) -> int:
    workloads = import_program()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)
        if args.setup_only:
            print(repr(time.monotonic()), flush=True)
            return 0
        threads = wl.threads()
        record = {"provenance": provenance(args, threads)}
        print(json.dumps(record), flush=True)
        try:
            if args.trace:
                metrics, attempted, failed, detail = run_traced(
                    wl, threads, _program_modules())
            else:
                metrics, attempted, failed, detail = run_untraced(
                    wl, args.seconds, threads, measure_setup(args))
            reported = {k: {"value": metrics[k], "unit": u}
                        for k, u in declared_units(args.trace).items()}
            correct = True
        except Exception:
            traceback.print_exc()
            correct, reported, attempted, failed, detail = False, {}, 1, 1, {}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": reported}
    record.update(detail=detail, result=result)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    for key, m in result["metrics"].items():
        print(f"{args.workload:22s} {key:32s} {m['value']:.6g} {m['unit']}")
    if "replicate_shares" in detail:
        print("replicate time by layer: " + ", ".join(
            f"{k} {v:.1%}" for k, v in detail["replicate_shares"].items()))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; checks names and units against
    BENCHMARK.json and prints each metric by name with its unit."""
    expected = declared_units(args.trace)
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            result = {}
        got = {k: m["unit"] for k, m in result.get("metrics", {}).items()}
        problems = []
        if proc.returncode != 0 or not result.get("correct"):
            problems.append(f"exit {proc.returncode}, correct={result.get('correct')}")
        if got != expected:
            problems.append(f"metrics/units differ from BENCHMARK.json: "
                            f"{sorted(set(got.items()) ^ set(expected.items()))}")
        for key, m in result.get("metrics", {}).items():
            print(f"{name:22s} {key:32s} {m['value']:.6g} {m['unit']}")
        if problems:
            ok = False
            print(f"FAIL {name}: {'; '.join(problems)}\n{proc.stderr[-3000:]}",
                  file=sys.stderr)
    print("all workloads ok" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
