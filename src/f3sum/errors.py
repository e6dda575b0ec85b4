"""Exception types shared across the package.

Everything derives from F3Error so callers can catch the library as a unit.
The CLI maps these onto exit codes.
"""


class F3Error(Exception):
    """Base class for all f3sum errors."""


class BackendMismatchError(F3Error):
    """Float and rational scalars were mixed in one computation."""


class InvalidIndexError(F3Error):
    """A family index is out of range or names an unknown family."""


class DenominatorPoleError(F3Error):
    """A denominator Pochhammer factor vanished at a visited lattice point."""


class InvalidInstanceError(F3Error):
    """An identity instance is malformed: wrong scalars, bad index, flagged pole."""


class PoleAtOneError(F3Error):
    """The binomial closed form was requested at its t = 1 singularity."""


class InexactPowerError(F3Error):
    """A rational-backend power has a non-integer exponent, so no exact value exists."""


class ComplexPowerError(F3Error, ValueError):
    """A negative float base has a non-integer exponent, so the power is complex.

    Also a ValueError, so code that handles a math domain error as one still
    catches it."""


class InvalidInputError(F3Error, ValueError):
    """A scalar, argument list, lattice index or truncation-policy field is malformed.

    Also a ValueError, so code that handles bad input as one still catches it."""
