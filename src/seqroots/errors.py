"""Exception types shared across the package."""


class SeqrootsError(Exception):
    """Base class for all errors raised by this package."""


class NotMonicError(SeqrootsError, ValueError):
    """Leading coefficient of the input is not 1."""


class EmptyInputError(SeqrootsError, ValueError):
    """Coefficient list would produce a degree-0 polynomial."""


class NoZeroRootError(SeqrootsError, ValueError):
    """Requested to divide out the root x = 0, but the constant term is nonzero."""


class DegreeTooSmallError(SeqrootsError, ValueError):
    """Operation needs a higher-degree polynomial (e.g. deflating degree 1)."""


class DimensionMismatchError(SeqrootsError, ValueError):
    """Vector/matrix dimensions disagree."""


class ZeroSeedError(SeqrootsError, ValueError):
    """The all-zero start vector generates the all-zero sequence family."""


class OutOfRangeError(SeqrootsError, IndexError):
    """Sequence or step index outside the recorded range."""


class ZeroDenominatorError(SeqrootsError, ZeroDivisionError):
    """A ratio was requested whose denominator term is 0."""


class OracleUnavailableError(SeqrootsError, ImportError):
    """The floating-point reference was called without numpy installed."""
