import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ddetest import (
    TESTABLE_NULLS, closed_form_entropy, de_kde, fit_mle, get_family, kde_smoothing_bias,
    load_dataset, ml_entropy_bias, select_bandwidth,
)
from ddetest.cli import main
from ddetest.quadrature import Scale, range_bounds

FIXTURE = "faithful-hardle"


def run_cli(args):
    """Invoke main() in-process, capturing exit code."""
    return main(args)


def test_usage_error_exit_code_2():
    # argparse rejects out-of-range alpha at parse time
    with pytest.raises(SystemExit) as exc:
        run_cli(["test", "--family", "normal", "--data", FIXTURE, "--alpha", "1.5"])
    assert exc.value.code == 2


def test_unknown_family_exit_code_2():
    # cauchy is a family, but only a testable null is accepted
    for family in ("zeta", "cauchy"):
        with pytest.raises(SystemExit) as exc:
            run_cli(["test", "--family", family, "--data", FIXTURE])
        assert exc.value.code == 2


def test_data_error_exit_code_3(capsys):
    code = run_cli(["test", "--family", "normal", "--data", "/nonexistent.csv",
                    "--nboot", "10", "--seed", "1"])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_support_violation_exit_code_3(tmp_path, capsys):
    p = tmp_path / "neg.csv"
    p.write_text("x\n1.0\n-2.0\n3.0\n4.0\n5.0\n")
    code = run_cli(["entropy", "--data", str(p), "--column", "x",
                    "--kde", "--null-family", "gamma"])
    assert code == 3


@pytest.mark.parametrize("column", ["-1", "-3"])
def test_negative_column_exit_code_2(tmp_path, capsys, column):
    p = tmp_path / "five.txt"
    p.write_text("1 2 3\n4 5 6\n7 8 9\n1 1 2\n3 5 8\n")
    code = run_cli(["entropy", "--data", str(p), "--column", column, "--family", "normal"])
    assert code == 2
    assert f"column index must be >= 0, got {column}" in capsys.readouterr().err


def test_numeric_family_test_runs_and_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(["test", "--family", "normal", "--data", FIXTURE,
                    "--nboot", "40", "--seed", "11", "--threads", "1",
                    "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "p-value" in text and "decision" in text
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert doc["dataset"]["n"] == 272
    assert doc["config"]["nboot"] == 40
    assert len(doc["result"]["bootstrap"]["values"]) == 40


def test_report_round_trips_byte_identically(tmp_path):
    out = tmp_path / "r.json"
    run_cli(["test", "--family", "exponential", "--data", FIXTURE,
             "--nboot", "25", "--seed", "2", "--threads", "1", "--out", str(out)])
    raw = out.read_text()
    doc = json.loads(raw)
    from ddetest.report import emit_json

    assert emit_json(doc) == raw


def test_same_seed_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path, threads in ((a, "1"), (b, "4")):
        run_cli(["test", "--family", "gamma", "--data", FIXTURE,
                 "--nboot", "30", "--seed", "7", "--threads", threads,
                 "--out", str(path)])
    assert a.read_bytes() == b.read_bytes()


def test_simulate_writes_cells_and_manifest(tmp_path, capsys):
    out = tmp_path / "sim"
    code = run_cli(["simulate", "--null", "normal", "--alt", "laplace(0,0.7071)",
                    "--n", "50", "--reps", "2", "--nboot", "20", "--seed", "5",
                    "--threads", "1", "--out", str(out)])
    assert code == 0
    csv_text = (out / "cells.csv").read_text()
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("null,dgp,n,")
    assert len(lines) == 2
    raw = (out / "manifest.json").read_text()
    manifest = json.loads(raw)
    assert manifest["config"]["reps"] == 2
    assert manifest["schema_version"] == 1
    from ddetest.report import emit_json

    assert emit_json(manifest) == raw  # manifest round-trips too


def test_simulate_table4_cell_count(tmp_path):
    out = tmp_path / "sim4"
    run_cli(["simulate", "--null", "normal", "--alt", "table4", "--n", "50,100",
             "--reps", "1", "--nboot", "19", "--seed", "5", "--threads", "1",
             "--out", str(out)])
    lines = (out / "cells.csv").read_text().strip().splitlines()
    # header + (size row + 4 alternatives) x 2 sizes
    assert len(lines) == 1 + 10


def test_simulate_deterministic_across_threads(tmp_path):
    outs = []
    for tag, threads in (("s1", "1"), ("s4", "4")):
        out = tmp_path / tag
        run_cli(["simulate", "--null", "exponential", "--alt", "table4",
                 "--n", "50", "--reps", "2", "--nboot", "15", "--seed", "3",
                 "--threads", threads, "--out", str(out)])
        outs.append((out / "cells.csv").read_bytes())
    assert outs[0] == outs[1]


def test_entropy_ml_path(tmp_path, capsys):
    out_json = tmp_path / "ml.json"
    code = run_cli(["entropy", "--data", FIXTURE, "--family", "exponential",
                    "--out", str(out_json)])
    assert code == 0
    out = capsys.readouterr().out
    assert "DE_ML" in out and "bias diagnostic = -0.00183824 (not applied)" in out
    # exponential ML bias -1/(2n) at n = 272
    assert json.loads(out_json.read_text())["bias_diag"] == -1.0 / (2.0 * 272)


def test_entropy_kde_path_reports_bandwidth_decomposition(capsys):
    code = run_cli(["entropy", "--data", FIXTURE, "--kde", "--null-family", "gamma"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ln scale" in out and "right_skewed_positive" in out
    assert "kappa0" in out and "k_n" in out


@pytest.mark.parametrize("null", [fid.value for fid in TESTABLE_NULLS])
def test_entropy_both_modes_match_the_library(null, tmp_path):
    # the --out value and bias diagnostic are the library calls', bit for bit
    data = load_dataset(FIXTURE).values
    fam, fitted = get_family(null), fit_mle(null, data)
    bw = select_bandwidth(fitted, data)
    lower, upper = range_bounds(np.sort(np.log(data) if bw.scale is Scale.LN else data), bw.h)
    expected = {
        "ml": (closed_form_entropy(fitted),
               None if fam.ml_bias is None else ml_entropy_bias(fitted, fitted.n_fit)),
        "kde": (de_kde(data, bw), None if fam.kde_smoothing is None
                else kde_smoothing_bias(fitted, bw.h, data.size, upper - lower)),
    }
    for mode, flags in (("ml", ["--family", null]), ("kde", ["--kde", "--null-family", null])):
        out = tmp_path / f"{mode}.json"
        assert run_cli(["entropy", "--data", FIXTURE, *flags, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert (doc["value"], doc["bias_diag"]) == expected[mode]
    # the diagnostics have no form for the lognormal and GG nulls
    no_form = null in ("lognormal", "gengamma")
    assert (expected["ml"][1] is None) == (expected["kde"][1] is None) == no_form


def test_entropy_requires_exactly_one_mode():
    code = run_cli(["entropy", "--data", FIXTURE])
    assert code == 2
    code = run_cli(["entropy", "--data", FIXTURE, "--kde"])  # missing null family
    assert code == 2


def test_datasets_listing_and_export(tmp_path, capsys):
    assert run_cli(["datasets"]) == 0
    out = capsys.readouterr().out
    assert "faithful-hardle" in out and "faithful-azzalini" in out
    dest = tmp_path / "f.csv"
    assert run_cli(["datasets", "--name", "faithful-hardle", "--out", str(dest)]) == 0
    assert len(dest.read_text().strip().splitlines()) == 273


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nboot": 21, "seed": 99}))
    out = tmp_path / "r.json"
    run_cli(["test", "--family", "normal", "--data", FIXTURE,
             "--config", str(cfg), "--threads", "1", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["config"]["nboot"] == 21
    assert doc["config"]["seed"] == 99


@pytest.mark.parametrize("command", ["test", "simulate"])
@pytest.mark.parametrize("key,value", [
    ("nboot", 50.0), ("nboot", True), ("nboot", 0), ("nboot", "many"),
    ("alpha", "0.1x"), ("alpha", True), ("alpha", 1.5),
    ("seed", "abc"), ("seed", True), ("seed", 7.5),
    ("threads", 0), ("threads", False),
])
def test_config_values_are_checked_like_their_flags(tmp_path, capsys, command, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    args = (["test", "--family", "normal", "--data", FIXTURE] if command == "test" else
            ["simulate", "--null", "normal", "--alt", "laplace(0,1)", "--n", "20", "--reps", "1",
             "--out", str(tmp_path / "sim")])
    assert main(args + ["--config", str(cfg)]) == 2
    assert f"config key {key!r}: invalid value {value!r}" in capsys.readouterr().err


def test_config_text_values_read_as_their_flags_read_them(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nboot": "21", "alpha": "0.1", "seed": "99"}))
    out = tmp_path / "r.json"
    assert main(["test", "--family", "normal", "--data", FIXTURE, "--config", str(cfg),
                 "--threads", "1", "--out", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert (config["nboot"], config["alpha"], config["seed"]) == (21, 0.1, 99)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ddetest.cli", "--version"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    assert proc.returncode == 0
    assert "ddetest" in proc.stdout


def test_python_dash_m_package_runs_the_cli():
    # `python -m ddetest` from a checkout, as the Tier-1 command line sets it up
    import ddetest

    src = os.path.dirname(os.path.dirname(os.path.abspath(ddetest.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "ddetest", "datasets"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert FIXTURE in proc.stdout
    proc = subprocess.run([sys.executable, "-m", "ddetest", "test", "--family", "zeta",
                           "--data", FIXTURE],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2


def test_cli_import_leaves_out_scipy_optimize():
    # scipy.optimize would add a large share of every CLI start, and
    # scipy.integrate serves the test oracles only
    import ddetest

    src = os.path.dirname(os.path.dirname(os.path.abspath(ddetest.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ddetest.cli; "
         "print([m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules])"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_runs_without_scipy():
    # scipy serves the test oracles only: neither importing the command line
    # nor running a GG test, a KDE entropy and an ML entropy with its bias
    # diagnostic loads any of it, lazily or not
    import ddetest

    src = os.path.dirname(os.path.dirname(os.path.abspath(ddetest.__file__)))
    script = (
        "import contextlib, io, sys\n"
        "import ddetest.cli as cli\n"
        "runs = [['test', '--family', 'gengamma', '--data', 'faithful-hardle', '--nboot', '8'],\n"
        "        ['entropy', '--data', 'faithful-hardle', '--kde', '--null-family', 'gamma'],\n"
        "        ['entropy', '--data', 'faithful-hardle', '--family', 'gamma']]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(args + ['--threads', '1']) for args in runs]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0] []"
