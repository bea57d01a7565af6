"""Exception types shared across the package."""


class MatchcoverError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(MatchcoverError):
    """Bit vectors from differently-sized edge spaces were combined."""


class NoPerfectMatchingError(MatchcoverError):
    """The graph has no perfect matching."""


class NotMatchingCoveredError(MatchcoverError):
    """The operation requires a matching-covered graph."""


class BudgetExhaustedError(MatchcoverError):
    """A span DP ran out of its state budget, or an enumeration of a
    verification oracle out of its cap."""


class CrossCheckError(MatchcoverError):
    """Two independent routes to the same verdict disagreed."""


class InvalidParameterError(MatchcoverError, ValueError):
    """A construction parameter is out of range."""


class EdgeNotInGraphError(MatchcoverError):
    """A named edge id does not exist in the given graph."""


class ColoringMismatchError(MatchcoverError):
    """A supplied edge coloring cannot be re-indexed as required."""


class NotEquivalentError(MatchcoverError):
    """A supplied edge pair failed its equivalent-set precondition."""


class ParseError(MatchcoverError, ValueError):
    """A graph file is malformed.  Carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class Graph6MultigraphError(MatchcoverError):
    """graph6 cannot carry parallel edges."""
