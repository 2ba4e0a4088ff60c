"""Exception hierarchy for the engine.

Every error that can cross the CLI boundary carries a distinct exit code so
batch drivers can react without parsing messages.
"""


class EngineError(Exception):
    exit_code = 1


class DivisionOutsideRing(EngineError):
    """Quotient would leave the admissible fraction shape."""

    exit_code = 10


class NonConvergentEvaluation(EngineError):
    """Zeta evaluation requested outside the completed-ring regime."""

    exit_code = 11


class MissingZetaData(EngineError):
    exit_code = 12


class InconsistentZeta(EngineError):
    """Supplied zeta numerator fails the functional equation."""

    exit_code = 13


class RankMismatch(EngineError):
    exit_code = 14


class BudgetExceeded(EngineError):
    exit_code = 15


class InvalidFlagType(EngineError):
    exit_code = 16


class UnboundedSearch(EngineError):
    """Degree bounds could not be derived; stability parameter is degenerate."""

    exit_code = 17


class UnsupportedParabolicLink(EngineError):
    """A chain link of rank 2 or more whose maps must vanish at some marked
    point: its local factor in the constant-rank base case is not known."""

    exit_code = 19


class NonGenericWeights(EngineError):
    exit_code = 3


class WallHit(EngineError):
    """A stability parameter the caller chose sits exactly on a wall, or a
    Higgs rank and degree without marked points share a factor, so that no
    parameter is off every wall; the engine picks its own points off walls,
    so nothing catches it."""

    exit_code = 2


class NonIntegerDimension(EngineError):
    exit_code = 20


class NonPolynomialResult(EngineError):
    """A moduli-space class came out with a denominator; upstream inconsistency."""

    exit_code = 4


class DeskScaleExceeded(EngineError):
    """Higgs rank 5 or more, or 4 with marked points, raised before any work:
    rank-2 links with forced vanishing lack a local factor, and rank 5
    without points meets sub-chains tied at every parameter."""

    exit_code = 21
