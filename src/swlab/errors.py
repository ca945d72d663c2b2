"""Exception taxonomy shared across the package.

Everything derives from SWLabError so callers can catch the package's own
failures without swallowing genuine bugs (TypeError, etc.).
"""

from __future__ import annotations

__all__ = [
    "SWLabError",
    "EmptyInput",
    "MalformedFacet",
    "InputTooLarge",
    "DimensionOutOfRange",
    "SimplexNotInComplex",
    "NotPseudomanifold",
    "NotAFlagCell",
    "DimensionMismatch",
    "NotACycle",
    "NotACocycle",
    "DegreeOverflow",
    "IndexOutOfRange",
    "PairingDegenerate",
    "OracleConflict",
    "UnknownCorpusEntry",
    "UnknownModel",
    "CorpusValidationFailed",
    "ParseError",
    "OutOfDomain",
    "SingularMetric",
    "LeftDomain",
    "GridTooCoarse",
    "NonConvergent",
]


class SWLabError(Exception):
    """Base class for all package-level errors."""


class EmptyInput(SWLabError):
    """No facets were supplied where at least one is required."""


class MalformedFacet(SWLabError):
    """A facet tuple is empty, has repeated vertices, or non-int entries."""


class InputTooLarge(SWLabError):
    """The downward closure of the facets would exceed its budget."""


class DimensionOutOfRange(SWLabError):
    """Requested skeleton/boundary dimension outside the valid range."""


class SimplexNotInComplex(SWLabError):
    """A simplex argument does not belong to the complex."""


class NotPseudomanifold(SWLabError):
    """Input fails the closed-pseudomanifold requirements.

    Carries the diagnostic record on ``.report`` when available.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class NotAFlagCell(SWLabError):
    """Flag is not of the consecutive top-dimensional form required."""


class DimensionMismatch(SWLabError):
    """Vector/matrix shapes disagree."""


class NotACycle(SWLabError):
    """A chain argument is not a mod-2 cycle.

    ``which`` identifies the offending argument, ``failed_simplex`` the first
    boundary simplex with odd incidence.
    """

    def __init__(self, message: str, which: str = "", failed_simplex=None):
        super().__init__(message)
        self.which = which
        self.failed_simplex = failed_simplex


class NotACocycle(SWLabError):
    """A cochain argument is not a mod-2 cocycle; ``which`` and
    ``failed_simplex`` (the first odd cofacet) as for NotACycle."""

    def __init__(self, message: str, which: str = "", failed_simplex=None):
        super().__init__(message)
        self.which = which
        self.failed_simplex = failed_simplex


class DegreeOverflow(SWLabError):
    """Cochain product degree exceeds the complex dimension."""


class IndexOutOfRange(SWLabError):
    """Invalid cup-i index."""


class PairingDegenerate(SWLabError):
    """The cup-product pairing into top degree is singular.

    Signals a non-manifold input (no mod-2 Poincare duality)."""


class OracleConflict(SWLabError):
    """Verified representatives disagree at class level.

    The full report is attached on ``.report``: a conflict is a result, not
    an assertion failure, and is never swallowed."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class UnknownCorpusEntry(SWLabError):
    """Requested corpus name does not exist."""


class UnknownModel(SWLabError):
    """Requested metric model name does not exist."""


class CorpusValidationFailed(SWLabError):
    """A built-in corpus entry failed its load-time revalidation."""


class ParseError(SWLabError):
    """Facet-list text could not be parsed; ``line`` is 1-based."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class OutOfDomain(SWLabError):
    """Point lies outside the chart domain; ``point`` is the offender."""

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


class SingularMetric(SWLabError):
    """Metric matrix is not positive definite at the evaluation point."""


class LeftDomain(SWLabError):
    """A geodesic left the chart domain mid-integration.

    ``exit_point`` is the first offending position."""

    def __init__(self, message: str, exit_point=None):
        super().__init__(message)
        self.exit_point = exit_point


class GridTooCoarse(SWLabError):
    """Probe error estimate exceeded the requested threshold."""


class NonConvergent(SWLabError):
    """Extrapolation input is not monotone-converging within tolerance."""
