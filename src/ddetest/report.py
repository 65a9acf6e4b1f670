"""Machine-readable reports: versioned JSON schemas and the simulation CSV.

Reports embed the complete effective configuration (every default resolved)
so any run can be replayed from its own output, and they contain no volatile
fields: repeating a run with the same seed produces byte-identical files.
Floats are serialized at full binary64 round-trip precision.
"""
from __future__ import annotations

import json
from typing import Any

from .dde import DdeResult
from .montecarlo import SimReport

SCHEMA_VERSION = 1
CSV_HEADER = "null,dgp,n,reps_requested,reps_completed,rejections,rate,mc_se"


def _tool_block() -> dict[str, Any]:
    from . import __version__

    return {"name": "ddetest", "version": __version__}


def test_report(result: DdeResult, *, dataset_name: str, dataset_source: str,
                config: dict[str, Any]) -> dict[str, Any]:
    """Assemble the JSON-ready dict for one test run."""
    bw = result.bandwidth
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "test_report",
        "tool": _tool_block(),
        "dataset": {
            "name": dataset_name,
            "source": dataset_source,
            "n": result.fitted.n_fit,
        },
        "config": dict(config),
        "result": {
            "observed_dde": result.observed_dde,
            "p_value": result.p_value,
            "alpha": result.alpha,
            "reject": result.reject,
            "critical_low": result.critical_low,
            "critical_high": result.critical_high,
            "interval_reject": result.interval_reject,
            "seed": result.seed,
            "fitted": {
                "family": result.fitted.family.value,
                "theta": list(result.fitted.theta),
                "n_fit": result.fitted.n_fit,
            },
            "bandwidth": {
                "h": bw.h,
                "c": bw.c,
                "k_n": bw.k_n,
                "n": bw.n,
                "scale": bw.scale.value,
                "regime": bw.regime.value,
                "kappa_hat": bw.shape.kappa_hat,
                "skew_hat": bw.shape.skew_hat,
                "kappa0": bw.shape.kappa0,
                "tau": bw.shape.tau,
                "gamma_kurt": bw.shape.gamma_kurt,
                "sigma_hat": bw.shape.sigma_hat,
            },
            "bootstrap": {
                "n_boot": result.boot.n_boot,
                "n_failed": result.boot.n_failed,
                "seed": result.boot.seed,
                "mean": result.boot.mean,
                "values": result.boot.values.tolist(),
            },
        },
    }


def emit_json(obj: dict[str, Any]) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def simulation_manifest(config: dict[str, Any]) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "simulation_manifest",
        "tool": _tool_block(),
        "config": dict(config),
    }


def simulation_csv(report: SimReport) -> str:
    lines = [CSV_HEADER]
    for c in report.cells:
        lines.append(
            f"{c.null_family.value},{c.dgp},{c.n},{c.reps_requested},"
            f"{c.reps_completed},{c.rejections},{c.rate!r},{c.mc_se!r}"
        )
    return "\n".join(lines) + "\n"
