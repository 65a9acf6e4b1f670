"""The golden report corpus: how each file is made, how two versions of a
file compare, and a command that rewrites the corpus.

The corpus holds what the CLI writes for

* ``ddetest test --data faithful-hardle --nboot 200 --seed 7`` for each of
  the six testable nulls (``<null>.json``);
* ``ddetest simulate --null normal --alt "laplace(0,0.7071)" --n 50,100
  --reps 20 --nboot 50 --seed 3`` (``simulate/cells.csv`` and
  ``simulate/manifest.json``).

Two versions of a file agree when they have the same structure and the same
strings, bools and integers, the same p-values, rejection counts and rates,
and every other float within 1e-12 relative or 1e-15 absolute.  The float
bound lets rounding differ across hosts' SIMD paths; it is 13 times the
largest shift a change has declared so far (7.5e-14 relative).

Run ``PYTHONPATH=src python tests/golden/rewrite.py`` from the repository
root to rewrite the corpus; it prints the largest shift of each file.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys

from ddetest.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
NULLS = ("normal", "exponential", "gamma", "laplace", "lognormal", "gengamma")
SIMULATE = ("simulate/cells.csv", "simulate/manifest.json")
FILES = tuple(f"{null}.json" for null in NULLS) + SIMULATE
REL_TOL, ABS_TOL = 1e-12, 1e-15
# leaves compared exactly although they are floats: p-values and decisions
EXACT_FLOATS = frozenset({"p_value", "rate"})


def generate(out_dir: str, threads: int = 1, nulls=NULLS, simulate: bool = True) -> list[str]:
    """Write the corpus files for ``nulls`` (and the simulate cell) under
    ``out_dir``; returns their names relative to it."""
    written = []
    with contextlib.redirect_stdout(io.StringIO()):
        for null in nulls:
            name = f"{null}.json"
            code = main(["test", "--family", null, "--data", "faithful-hardle", "--nboot", "200",
                         "--seed", "7", "--threads", str(threads),
                         "--out", os.path.join(out_dir, name)])
            if code != 0:
                raise RuntimeError(f"ddetest test --family {null} exited {code}")
            written.append(name)
        if simulate:
            code = main(["simulate", "--null", "normal", "--alt", "laplace(0,0.7071)",
                         "--n", "50,100", "--reps", "20", "--nboot", "50", "--seed", "3",
                         "--threads", str(threads), "--out", os.path.join(out_dir, "simulate")])
            if code != 0:
                raise RuntimeError(f"ddetest simulate exited {code}")
            written.extend(SIMULATE)
    return written


def _leaves(name: str, text: str):
    """(path, value) of each leaf of a corpus file, in order."""
    if name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(text)))
        header = rows[0]
        yield ("header",), tuple(header)
        for i, row in enumerate(rows[1:]):
            yield (i, "cells"), len(row)
            for key, cell in zip(header, row):
                try:
                    value = int(cell)
                except ValueError:
                    try:
                        value = float(cell)
                    except ValueError:
                        value = cell
                yield (i, key), value
        return

    def walk(path, node):
        if isinstance(node, dict):
            yield path + ("keys",), tuple(node)
            for key, value in node.items():
                yield from walk(path + (key,), value)
        elif isinstance(node, list):
            yield path + ("len",), len(node)
            for i, value in enumerate(node):
                yield from walk(path + (i,), value)
        else:
            yield path, node

    yield from walk((), json.loads(text))


def compare(name: str, expected: str, actual: str) -> tuple[list[str], float]:
    """The leaves of ``actual`` that disagree with ``expected`` (see the
    module docstring), and the largest relative shift of a float leaf."""
    left, right = list(_leaves(name, expected)), list(_leaves(name, actual))
    if [p for p, _ in left] != [p for p, _ in right]:
        return [f"{name}: structure differs"], float("inf")
    problems, worst = [], 0.0
    for (path, a), (_, b) in zip(left, right):
        exact_float = any(key in EXACT_FLOATS for key in path if isinstance(key, str))
        if type(a) is float and type(b) is float and not exact_float:
            shift = abs(b - a)
            if shift > max(REL_TOL * abs(a), ABS_TOL):
                problems.append(f"{name} {path}: {a!r} -> {b!r}")
            if shift:
                worst = max(worst, shift / abs(a) if a else float("inf"))
        elif type(a) is not type(b) or a != b:
            problems.append(f"{name} {path}: {a!r} -> {b!r}")
    return problems, worst


def rewrite() -> int:
    """Rewrite the corpus in place and print each file's largest shift."""
    old = {}
    for name in FILES:
        path = os.path.join(HERE, name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                old[name] = fh.read()
    generate(HERE)
    for name in FILES:
        with open(os.path.join(HERE, name), encoding="utf-8") as fh:
            new = fh.read()
        if name not in old:
            print(f"{name}: new")
            continue
        problems, worst = compare(name, old[name], new)
        same = "byte-identical" if old[name] == new else f"largest float shift {worst:.3g} relative"
        print(f"{name}: {same}" + "".join(f"\n  {p}" for p in problems))
    return 0


if __name__ == "__main__":
    sys.exit(rewrite())
