"""Exception and warning taxonomy shared across the package.

Exceptions carry enough structure for the CLI to map them onto exit codes:
usage/input problems, graph-topology problems, and numeric failures are
distinct families.
"""

from __future__ import annotations


class PrisomapError(Exception):
    """Base class for all package errors."""


# -- input / format errors (CLI exit code 2) --------------------------------

class InputError(PrisomapError, ValueError):
    """Bad user input, malformed files or invalid parameters: the one exception meaning it."""


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


class EmptyDataset(InputError):
    pass


class BadMagic(InputError):
    pass


class TruncatedFile(InputError):
    pass


class CountMismatch(InputError):
    pass


class ClassTooSmall(InputError):
    pass


class BadDimension(InputError):
    pass


class InfiniteWindow(InputError):
    pass


# -- graph topology errors (CLI exit code 3) --------------------------------

class GraphError(PrisomapError):
    """Neighbor-graph topology prevents the requested operation; summary holds
    the component sizes, largest first, when they are known."""

    def __init__(self, message: str, summary=None):
        super().__init__(message)
        self.summary = summary


class DisconnectedGraph(GraphError):
    pass


class GraphTooFragmented(GraphError):
    pass


# -- numeric errors (CLI exit code 4) ----------------------------------------

class NumericError(PrisomapError):
    """Numerical contract violation."""


class NonSymmetricInput(NumericError):
    pass


class SentinelPresent(NumericError):
    pass


class ConvergenceFailure(NumericError):
    pass


class TooLarge(NumericError):
    pass


class NoFinitePairs(NumericError):
    pass


class ZeroMeanDensity(NumericError):
    pass


# -- warning-grade conditions -------------------------------------------------

class RankDeficientWarning(UserWarning):
    """Fewer usable eigenvalues than requested target dimensions."""


class DegenerateDuplicatesWarning(UserWarning):
    """Many zero-distance point pairs; zero-weight edges were dropped."""
