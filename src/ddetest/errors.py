"""Exception taxonomy with stable CLI exit codes.

Exit-code contract: 0 ok, 2 usage, 3 data, 4 fit, 5 numeric.  Every error
raised by the pipeline carries the stage it failed in (``stage`` attribute)
so callers can report where a multi-step run broke.

A row-wise stage (one computation over the rows of a (rows, n) array)
reports its failures as ``RowFailures``: for each row that fails, the typed
error the same computation raises on that row alone.
"""
from __future__ import annotations

import numpy as np


class DdeError(Exception):
    """Base class for all package errors."""

    exit_code = 1

    def __init__(self, message: str, *, stage: str | None = None):
        super().__init__(message)
        self.stage = stage


class UsageError(DdeError):
    """Invalid flags, options, or parameter values supplied by the caller."""

    exit_code = 2


class InvalidParameterError(UsageError):
    """Distribution parameters violate the family's positivity constraints."""


class DataError(DdeError):
    """Input data could not be read, parsed, or used."""

    exit_code = 3


class SupportError(DataError):
    """A datum lies outside the support of the hypothesized family."""


class DegenerateDataError(DataError):
    """Data carry no usable variation (e.g., all values identical)."""


class FitError(DdeError):
    """Maximum-likelihood fitting failed to converge."""

    exit_code = 4


class NumericError(DdeError):
    """A numerical routine failed to reach its accuracy target."""

    exit_code = 5


class QuadratureError(NumericError):
    """The KDE entropy met a non-finite working-scale sample or integrand."""


RowFailures = dict[int, DdeError]  # row index -> the error of that row


def row_failures(bad, make) -> RowFailures:
    """``make(i)`` for each row i where the mask ``bad`` is true."""
    return {int(i): make(int(i)) for i in np.flatnonzero(bad)}


def first_failures(*stages: RowFailures) -> RowFailures:
    """The failures of successive stages, each row keeping its earliest: a
    row that fails one stage never reaches the next when it runs alone."""
    out: RowFailures = {}
    for stage in stages:
        for i, exc in stage.items():
            out.setdefault(i, exc)
    return out


def raise_row_failure(failures: RowFailures) -> None:
    """Raise the error of a one-row call, if its row failed."""
    if failures:
        raise failures[0]
