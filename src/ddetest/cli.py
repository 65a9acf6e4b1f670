"""Command-line frontend: test, simulate, entropy, datasets.

Exit codes: 0 completed (whatever the decision), 2 usage, 3 data, 4 fit,
5 numeric.  JSON/CSV outputs are byte-deterministic given --seed; the
human-readable summary (which carries the wall-clock timestamp) goes to
stdout only.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .bandwidth import select_bandwidth
from .dde import DEFAULT_ALPHA, DEFAULT_N_BOOT, resolve_threads, run_test
from .datasets import FIXTURES, load_dataset
from .entropy import de_kde, kde_smoothing_bias, ml_entropy_bias
from .errors import DdeError, UsageError
from .families import FamilyId, TESTABLE_NULLS, closed_form_entropy, fit_mle, get_family
from .montecarlo import (
    ExperimentSpec, FittedModel, SimReport, run_experiment, table4_campaign,
)
from .quadrature import Scale, range_bounds
from .report import emit_json, simulation_csv, simulation_manifest, test_report

DEFAULT_SEED = 20250801  # fixed default so unseeded runs are still replayable


def _alpha_type(text: str) -> float:
    val = float(text)
    if not 0.0 < val < 1.0:
        raise argparse.ArgumentTypeError(f"alpha must be in (0, 1), got {text}")
    return val


def _positive_int(text: str) -> int:
    val = int(text)
    if val < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return val


def _column_type(text: str):
    try:
        return int(text)
    except ValueError:
        return text


def _null_family(text: str) -> FamilyId:
    for fid in TESTABLE_NULLS:
        if fid.value == text.lower():
            return fid
    raise argparse.ArgumentTypeError(
        f"unknown family {text!r} (choose from "
        f"{', '.join(f.value for f in TESTABLE_NULLS)})"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddetest",
        description="Entropy-gap goodness-of-fit testing for parametric families.",
    )
    parser.add_argument("--version", action="version", version=f"ddetest {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help=f"RNG seed (default from --config or {DEFAULT_SEED})")
    common.add_argument("--threads", type=_positive_int, default=None,
                        help="worker processes, one pool per run: test spreads "
                             "bootstrap replicate chunks over them, simulate spreads "
                             "Monte Carlo reps (each bootstrap then serial) "
                             "(default: DDETEST_THREADS, else the cores this "
                             "process may run on)")
    common.add_argument("--config", default=None,
                        help="optional JSON config file; flags override its values")

    p_test = sub.add_parser("test", parents=[common],
                            help="test a dataset against a null family")
    p_test.add_argument("--family", required=True, type=_null_family)
    p_test.add_argument("--data", required=True,
                        help="path to a CSV/text file, or a bundled fixture id")
    p_test.add_argument("--column", type=_column_type, default=0,
                        help="column name or 0-based index (default 0)")
    p_test.add_argument("--alpha", type=_alpha_type, default=None)
    p_test.add_argument("--nboot", type=_positive_int, default=None)
    p_test.add_argument("--out", default=None, help="write the JSON report here")

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="run a size/power simulation campaign")
    p_sim.add_argument("--null", required=True, type=_null_family)
    p_sim.add_argument("--alt", required=True,
                       help='"table4", or family(p1,p2,...), e.g. laplace(0,0.7071)')
    p_sim.add_argument("--n", required=True,
                       help="comma-separated sample sizes, e.g. 50,100,250")
    p_sim.add_argument("--reps", type=_positive_int, default=200)
    p_sim.add_argument("--nboot", type=_positive_int, default=None)
    p_sim.add_argument("--alpha", type=_alpha_type, default=None)
    p_sim.add_argument("--out", required=True, help="output directory")

    p_ent = sub.add_parser("entropy", parents=[common],
                           help="standalone entropy estimates for a dataset")
    p_ent.add_argument("--data", required=True)
    p_ent.add_argument("--column", type=_column_type, default=0)
    p_ent.add_argument("--family", type=_null_family, default=None,
                       help="parametric plug-in estimate under this family")
    p_ent.add_argument("--kde", action="store_true",
                       help="nonparametric kernel estimate")
    p_ent.add_argument("--null-family", type=_null_family, default=None,
                       help="null family driving the KDE bandwidth regime")
    p_ent.add_argument("--out", default=None)

    p_data = sub.add_parser("datasets", parents=[common], help="bundled fixtures")
    p_data.add_argument("--name", default=None, help="fixture to export")
    p_data.add_argument("--out", default=None, help="write the fixture as CSV here")

    return parser


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"could not read config {path!r}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path!r} must hold a JSON object")
    return cfg


def _resolved(args, cfg: dict, name: str, default):
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in cfg:
        return cfg[name]
    return default


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _cmd_test(args) -> int:
    cfg = _load_config(args.config)
    alpha = _resolved(args, cfg, "alpha", DEFAULT_ALPHA)
    n_boot = _resolved(args, cfg, "nboot", DEFAULT_N_BOOT)
    seed = _resolved(args, cfg, "seed", DEFAULT_SEED)
    threads = resolve_threads(_resolved(args, cfg, "threads", None))

    ds = load_dataset(args.data, args.column)
    result = run_test(args.family, ds.values, alpha=alpha, n_boot=n_boot,
                      seed=seed, threads=threads)

    fam = get_family(args.family)
    theta = ", ".join(
        f"{name}={_fmt(v)}" for name, v in zip(fam.param_names, result.fitted.theta)
    )
    decision = "REJECT" if result.reject else "NOT-REJECT"
    print(f"ddetest {__version__} — {datetime.now(timezone.utc).isoformat(timespec='seconds')}")
    print(f"dataset   : {ds.name} (n={ds.n}) from {ds.source}")
    print(f"null      : {fam.family_id.value}({theta})")
    print(f"statistic : DDE = {_fmt(result.observed_dde)} nats "
          f"(h={_fmt(result.bandwidth.h)}, c={_fmt(result.bandwidth.c)}, "
          f"k_n={_fmt(result.bandwidth.k_n)}, regime={result.bandwidth.regime.value})")
    print(f"bootstrap : n_boot={result.boot.n_boot}, mean={_fmt(result.boot.mean)}, "
          f"seed={result.seed}")
    print(f"p-value   : {_fmt(result.p_value)}  "
          f"interval: [{_fmt(result.critical_low)}, {_fmt(result.critical_high)}]")
    print(f"decision  : {decision} at alpha={_fmt(result.alpha)} (p-value rule; "
          f"interval rule says {'REJECT' if result.interval_reject else 'NOT-REJECT'})")

    if args.out:
        # execution knobs (threads) stay out of the report: results are
        # thread-invariant and reports must be byte-identical across reruns
        config_echo = {
            "command": "test", "family": args.family.value, "data": args.data,
            "column": args.column, "alpha": alpha, "nboot": n_boot,
            "seed": seed,
        }
        _write(args.out, emit_json(test_report(
            result, dataset_name=ds.name, dataset_source=ds.source, config=config_echo,
        )))
    return 0


def _parse_alt(text: str, null_family: FamilyId) -> list[FittedModel]:
    if text.strip().lower() == "table4":
        return []  # sentinel: campaign builder handles it
    spec = text.strip()
    if "(" not in spec or not spec.endswith(")"):
        raise UsageError(f'--alt must be "table4" or family(p1,p2,...), got {text!r}')
    name, params = spec[:-1].split("(", 1)
    try:
        fid = FamilyId(name.strip().lower())
    except ValueError:
        raise UsageError(f"unknown alternative family {name!r}")
    try:
        theta = tuple(float(p) for p in params.split(",")) if params.strip() else ()
    except ValueError:
        raise UsageError(f"could not parse parameters in {text!r}")
    return [FittedModel(fid, theta)]


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    alpha = _resolved(args, cfg, "alpha", DEFAULT_ALPHA)
    n_boot = _resolved(args, cfg, "nboot", 300)
    seed = _resolved(args, cfg, "seed", DEFAULT_SEED)
    threads = resolve_threads(_resolved(args, cfg, "threads", None))
    try:
        n_grid = tuple(int(tok) for tok in args.n.split(","))
    except ValueError:
        raise UsageError(f"--n must be a comma-separated integer list, got {args.n!r}")

    alts = _parse_alt(args.alt, args.null)
    if not alts:  # table4: size row + four alternatives
        specs = table4_campaign(args.null, n_grid, args.reps, n_boot, alpha, seed)
    else:
        specs = [ExperimentSpec(
            null_family=args.null, dgp=alts[0], n_grid=n_grid, reps=args.reps,
            n_boot=n_boot, alpha=alpha, master_seed=seed,
        )]

    report = SimReport()
    for spec in specs:
        report.extend(run_experiment(spec, threads=threads))

    os.makedirs(args.out, exist_ok=True)
    csv_text = simulation_csv(report)
    _write(os.path.join(args.out, "cells.csv"), csv_text)
    config_echo = {
        "command": "simulate", "null": args.null.value, "alt": args.alt,
        "n": list(n_grid), "reps": args.reps, "nboot": n_boot, "alpha": alpha,
        "seed": seed,
    }
    _write(os.path.join(args.out, "manifest.json"),
           emit_json(simulation_manifest(config_echo)))
    sys.stdout.write(csv_text)
    return 0


def _cmd_entropy(args) -> int:
    cfg = _load_config(args.config)
    seed = _resolved(args, cfg, "seed", DEFAULT_SEED)  # echoed for replay only
    ds = load_dataset(args.data, args.column)

    if args.kde == (args.family is not None):
        raise UsageError("choose exactly one of --family (plug-in) or --kde")
    payload: dict = {"dataset": ds.name, "n": ds.n, "seed": seed}

    if args.family is not None:
        fitted = fit_mle(args.family, ds.values)
        est = closed_form_entropy(fitted)
        fam = get_family(args.family)
        diag = None
        if fam.ml_bias is not None:
            diag = ml_entropy_bias(fitted, fitted.n_fit)
        print(f"DE_ML[{fam.family_id.value}] = {_fmt(est)} nats")
        for name, v in zip(fam.param_names, fitted.theta):
            print(f"  {name} = {_fmt(v)}")
        if diag is not None:
            print(f"  bias diagnostic = {_fmt(diag)} (not applied)")
        payload.update({"estimator": "ml", "family": args.family.value,
                        "value": est, "theta": list(fitted.theta),
                        "bias_diag": diag})
    else:
        if args.null_family is None:
            raise UsageError("--kde needs --null-family to drive the bandwidth regime")
        fitted = fit_mle(args.null_family, ds.values)
        bw = select_bandwidth(fitted, ds.values)
        est = de_kde(ds.values, bw)
        diag = None
        if get_family(args.null_family).kde_smoothing is not None:
            working = np.log(ds.values) if bw.scale is Scale.LN else ds.values
            lower, upper = range_bounds(np.sort(working), bw.h)
            diag = kde_smoothing_bias(fitted, bw.h, ds.n, upper - lower)
        print(f"DE_KDE = {_fmt(est)} nats ({bw.scale.value} scale, "
              f"regime={bw.regime.value})")
        print(f"  h = {_fmt(bw.h)} = k_n({_fmt(bw.k_n)}) * c({_fmt(bw.c)}) * "
              f"sigma_hat({_fmt(bw.shape.sigma_hat)}) * n^-1/5")
        print(f"  kappa_hat = {_fmt(bw.shape.kappa_hat)}  skew_hat = {_fmt(bw.shape.skew_hat)}  "
              f"kappa0 = {_fmt(bw.shape.kappa0)}")
        if diag is not None:
            print(f"  bias diagnostic = {_fmt(diag)} (not applied)")
        payload.update({
            "estimator": "kde", "null_family": args.null_family.value,
            "value": est, "scale": bw.scale.value, "regime": bw.regime.value,
            "h": bw.h, "c": bw.c, "k_n": bw.k_n, "sigma_hat": bw.shape.sigma_hat,
            "kappa_hat": bw.shape.kappa_hat, "skew_hat": bw.shape.skew_hat,
            "kappa0": bw.shape.kappa0, "bias_diag": diag,
        })
    if args.out:
        _write(args.out, emit_json(payload))
    return 0


def _cmd_datasets(args) -> int:
    if args.name:
        if args.name not in FIXTURES:
            raise UsageError(f"unknown fixture {args.name!r} "
                             f"(available: {', '.join(sorted(FIXTURES))})")
        ds = load_dataset(args.name)
        if args.out:
            _write(args.out, "waiting\n" + "".join(f"{v:g}\n" for v in ds.values))
            print(f"wrote {ds.n} values to {args.out}")
        else:
            for v in ds.values:
                print(f"{v:g}")
        return 0
    for name in sorted(FIXTURES):
        ds = load_dataset(name)
        print(f"{name:20s} n={ds.n:4d}  {ds.source}")
    return 0


_COMMANDS = {
    "test": _cmd_test,
    "simulate": _cmd_simulate,
    "entropy": _cmd_entropy,
    "datasets": _cmd_datasets,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DdeError as exc:
        stage = f" [{exc.stage}]" if exc.stage else ""
        print(f"ddetest error{stage}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
