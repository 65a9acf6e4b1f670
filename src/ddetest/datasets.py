"""Dataset ingestion: plain-text/CSV parsing plus the bundled fixtures.

Bundled fixtures are the two classic Old Faithful waiting-time series
(public-domain classroom data):

* ``faithful-hardle`` — 272 waiting times between eruptions, the version
  popularized by Härdle's smoothing monograph and shipped as R's
  ``faithful`` dataset (mean 70.897, range 43-96).
* ``faithful-azzalini`` — 299 waiting times from the continuous
  August 1-15, 1985 record analyzed by Azzalini & Bowman and shipped as the
  ``geyser`` dataset in R's MASS package (mean 72.314, range 43-108).

Larger benchmark sets referenced alongside these (Danish fire-insurance
losses, translog cost-function residuals) are NOT bundled; point the CLI at
a local file instead.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from itertools import islice

import numpy as np

from .errors import DataError, UsageError

FIXTURES = {
    "faithful-hardle": ("faithful_hardle.csv", "bundled fixture: Old Faithful waiting times (Härdle, n=272)"),
    "faithful-azzalini": ("faithful_azzalini.csv", "bundled fixture: Old Faithful waiting times (Azzalini & Bowman, n=299)"),
}


@dataclass(frozen=True)
class Dataset:
    name: str
    values: np.ndarray
    source: str

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.size == 0:
            raise DataError(f"dataset {self.name!r} is empty")
        if not np.all(np.isfinite(self.values)):
            raise DataError(f"dataset {self.name!r} contains non-finite values")

    @property
    def n(self) -> int:
        return int(self.values.size)


def _parse_text(text: str, column, source: str, name: str) -> Dataset:
    """Parse one column of a whitespace- or comma-separated text file.

    Blank lines are skipped.  A file is comma-separated if one of its first
    10 data lines holds a comma; each of its lines is read by its own
    ``csv.reader``, so a quote left open ends with its line, and each cell
    is stripped.  Other files split each line on whitespace.  A first line
    that is not all numbers is the header.  The column is converted in bulk,
    ``float`` of each cell; only if a cell is missing, unparsable or not
    finite does a second pass walk the lines to raise the first bad line's
    ``DataError``.
    """
    lines = text.splitlines()
    head = list(islice((line for line in lines if line.strip()), 10))
    if not head:
        raise DataError(f"{source}: no data lines found")
    if any("," in line for line in head):
        rows = [[c.strip() for c in next(csv.reader((line,)))] for line in lines if line.strip()]
    else:
        rows = [cells for cells in map(str.split, lines) if cells]

    header: list[str] | None = None
    if not _all_numeric(rows[0]):
        header, body = rows[0], rows[1:]
    else:
        body = rows

    if isinstance(column, str):
        if header is None or column not in header:
            raise DataError(f"{source}: no column named {column!r}"
                            + (f" (columns: {header})" if header else " (file has no header)"))
        col_idx = header.index(column)
    else:
        col_idx = int(column)
    if not body:
        raise DataError(f"{source}: no numeric rows in column {column!r}")

    try:
        values = np.array([float(cells[col_idx]) for cells in body])
    except (IndexError, ValueError):
        values = None
    if values is None or not np.isfinite(values).all():
        linenos = [i for i, line in enumerate(lines, start=1) if line.strip()]
        _raise_first_bad(zip(linenos[len(rows) - len(body):], body), col_idx, source)
    return Dataset(name=name, values=values, source=source)


def _raise_first_bad(body, col_idx: int, source: str):
    """Raise the ``DataError`` of the first (line number, cells) row whose
    cell ``col_idx`` is missing, unparsable or not finite."""
    for lineno, cells in body:
        if col_idx >= len(cells):
            raise DataError(f"{source}, line {lineno}: no column {col_idx} ({len(cells)} cells)")
        cell = cells[col_idx]
        try:
            v = float(cell)
        except ValueError:
            raise DataError(f"{source}, line {lineno}: could not parse {cell!r} as a number")
        if not math.isfinite(v):
            raise DataError(f"{source}, line {lineno}: non-finite value {cell!r}")


def _all_numeric(cells: list[str]) -> bool:
    for c in cells:
        try:
            float(c)
        except ValueError:
            return False
    return bool(cells)


def load_dataset(path_or_fixture: str, column=0) -> Dataset:
    """Load a bundled fixture by id, or parse a single-column/CSV file.

    ``column`` selects by header name (str) or 0-based index (int); a
    negative index raises ``UsageError``.
    """
    if not isinstance(column, str) and int(column) < 0:
        raise UsageError(f"column index must be >= 0, got {column}")
    if path_or_fixture in FIXTURES:
        filename, provenance = FIXTURES[path_or_fixture]
        text = resources.files("ddetest.data").joinpath(filename).read_text()
        return _parse_text(text, column, provenance, path_or_fixture)
    try:
        with open(path_or_fixture, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"could not read {path_or_fixture!r}: {exc}") from exc
    name = path_or_fixture.rsplit("/", 1)[-1]
    return _parse_text(text, column, path_or_fixture, name)
