"""Exception hierarchy shared by the compiler, builder, engine and driver."""


class AdiafactError(Exception):
    """Base class for all errors raised by this package."""


class InputError(AdiafactError):
    """The request itself is malformed (bad target, bad widths, bad flags)."""


class EvenInput(InputError):
    """Target integer is even; the table layout assumes both factors are odd."""


class TooSmall(InputError):
    """Target integer is below 9, the smallest odd product of two odd factors > 1."""


class WidthMismatch(InputError):
    """Requested bit widths cannot hold a factorization of the target."""


class Infeasible(AdiafactError):
    """Constraint propagation proved the equation system has no solution."""


class EmptySystem(AdiafactError):
    """No free variables remain, so there is nothing to build an operator from."""


class UnmappedVariable(AdiafactError):
    """A polynomial mentions a variable the qubit map does not carry."""


class InconsistentMap(AdiafactError):
    """Qubit map construction saw duplicate or conflicting variables."""


class DimensionTooLarge(AdiafactError):
    """Operator dimension exceeds the configured qubit cap."""


class DimensionMismatch(AdiafactError):
    """Two operators or states that must share a dimension do not."""


class TooManyVariables(AdiafactError):
    """Exhaustive enumeration was asked to scan more variables than allowed."""


class IndexOutOfRange(AdiafactError):
    """A basis-state or eigenvalue index falls outside the valid range."""


class NumericalFailure(AdiafactError):
    """A dense linear-algebra routine failed to converge or returned non-finite data."""


class NotFactorable(AdiafactError):
    """Every width split is infeasible or admits no zero-energy state."""


class InvariantViolation(AdiafactError):
    """A guarantee the pipeline relies on failed to hold: a bug, not a bad input."""
