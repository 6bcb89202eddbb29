"""Exception and warning taxonomy shared across the package.

One exception family per CLI exit code: InputError (2) for usage and input
problems, GraphError (3) for graph topology, NumericError (4) for numeric
failures. Each raise site tells its case apart by its message; ParseError
alone adds fields, the row and column of a bad cell.
"""

from __future__ import annotations


class PrisomapError(Exception):
    """Base class for all package errors."""


class InputError(PrisomapError, ValueError):
    """Bad user input, malformed files or invalid parameters (exit code 2)."""


class ParseError(InputError):
    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        loc = ""
        if row is not None:
            loc += f" at row {row}"
        if column is not None:
            loc += f", column {column}"
        super().__init__(message + loc)
        self.row = row
        self.column = column


class GraphError(PrisomapError):
    """Neighbor-graph topology prevents the requested operation (exit code 3);
    summary holds the component sizes, largest first, when they are known."""

    def __init__(self, message: str, summary=None):
        super().__init__(message)
        self.summary = summary


class NumericError(PrisomapError):
    """Numerical contract violation (exit code 4)."""


# -- warning-grade conditions -------------------------------------------------

class RankDeficientWarning(UserWarning):
    """Fewer usable eigenvalues than requested target dimensions."""


class DegenerateDuplicatesWarning(UserWarning):
    """Many zero-distance point pairs; zero-weight edges were dropped."""
