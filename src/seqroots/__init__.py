"""Real roots of monic integer polynomials, computed without rounding.

Iterating the companion matrix of a polynomial (or an affine image of it)
on an integer seed produces a family of integer sequences whose component
ratios converge to roots.  All iteration state is exact: arbitrary-size
integers for the sequences, rationals for the convergents.  Floating point
appears only in the independent reference solver used by tests and the
benchmark.
"""

from .driver import (
    DEFAULT_OPTIONS,
    DriverOptions,
    RootEstimate,
    RootStatus,
    dominant_root,
    enumerate_real_roots,
    root_via_shift,
)
from .errors import (
    DegreeTooSmallError,
    DimensionMismatchError,
    EmptyInputError,
    NotMonicError,
    NoZeroRootError,
    OutOfRangeError,
    SeqrootsError,
    ZeroDenominatorError,
    ZeroSeedError,
)
from .poly import IDENTITY_SHIFT, AffineShift, MonicIntPolynomial, make_polynomial
from .sequences import SequenceFamily

__version__ = "0.1.0"

__all__ = [
    "AffineShift",
    "DEFAULT_OPTIONS",
    "DegreeTooSmallError",
    "DimensionMismatchError",
    "DriverOptions",
    "EmptyInputError",
    "IDENTITY_SHIFT",
    "MonicIntPolynomial",
    "NotMonicError",
    "NoZeroRootError",
    "OutOfRangeError",
    "RootEstimate",
    "RootStatus",
    "SeqrootsError",
    "SequenceFamily",
    "ZeroDenominatorError",
    "ZeroSeedError",
    "dominant_root",
    "enumerate_real_roots",
    "make_polynomial",
    "root_via_shift",
]
