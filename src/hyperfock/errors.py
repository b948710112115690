"""Exception types raised by the library.

Every parameter error is an InvalidParams, so catching InvalidParams
catches all of them; each is also a ValueError, and IndexOutOfRange an
IndexError. The CLI exits 2 on any parameter error, 3 on
QuadratureNotConverged (and 4 on an OSError).
"""


class InvalidParams(ValueError):
    """State parameters violate a validity constraint. CLI exit code 2."""


class ZeroState(InvalidParams):
    """All amplitudes are numerically zero; the state cannot be normalized.
    CLI exit code 2."""


class NegativeCoefficient(InvalidParams):
    """A generalized binomial coefficient was requested outside its
    nonnegative region; this indicates a caller bug, not a data error.
    CLI exit code 2."""


class TruncationTooSmall(InvalidParams):
    """The requested Fock-space truncation drops too much probability mass.
    CLI exit code 2."""


class IndexOutOfRange(InvalidParams, IndexError):
    """Fock index outside the truncated basis. CLI exit code 2."""


class QuadratureNotConverged(RuntimeError):
    """Successive quadrature refinements disagree beyond tolerance, or a
    computed value is not finite. CLI exit code 3."""
