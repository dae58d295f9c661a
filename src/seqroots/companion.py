"""The iteration matrix ``M = a*I + b*C`` and its exact product ``M v``.

The companion matrix ``C`` of ``x^m + a_1 x^(m-1) + ... + a_m`` has first
row ``(-a_1, ..., -a_m)`` and ones on the subdiagonal; its eigenvalues are
the roots, with eigenvector ``(r^(m-1), ..., r, 1)`` for each root ``r``.
``M`` shifts every eigenvalue to ``a + b*r`` and keeps the eigenvectors.
Its other rows hold only ``a`` on the diagonal and ``b`` beside it, so
``M`` is stored as its first row and ``(a, b)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .errors import DimensionMismatchError
from .poly import IDENTITY_SHIFT, AffineShift, MonicIntPolynomial

IntVector = tuple[int, ...]


@dataclass(frozen=True)
class IterationMatrix:
    """``a*I + b*C``: its first row ``top`` and the shift ``(a, b)``."""

    top: IntVector
    a: int
    b: int


def iteration_matrix(
    p: MonicIntPolynomial, s: AffineShift = IDENTITY_SHIFT
) -> IterationMatrix:
    """``a*I + b*C`` for ``s = (a, b)``, with characteristic polynomial
    ``shift_scale(p, s)``.

    >>> from seqroots import AffineShift, make_polynomial
    >>> iteration_matrix(make_polynomial([1, 0, 0, -2]), AffineShift(1, 1))
    IterationMatrix(top=(1, 0, 2), a=1, b=1)
    """
    top = [-s.b * c for c in p.coeffs]
    top[0] += s.a
    return IterationMatrix(tuple(top), s.a, s.b)


def mat_vec(c: IterationMatrix, v: Sequence[int]) -> IntVector:
    """Exact product ``M v``: ``top . v`` first, then ``a*v[i] + b*v[i-1]``.

    Under the identity shift ``(0, 1)`` the rest is ``v[i-1]``, a copy.

    >>> from seqroots import make_polynomial
    >>> mat_vec(iteration_matrix(make_polynomial([1, 2, -1])), (-2, 1))
    (5, -2)
    """
    top, a, b = c.top, c.a, c.b
    if len(v) != len(top):
        raise DimensionMismatchError(f"vector has dim {len(v)}, matrix has dim {len(top)}")
    if a == 0 and b == 1:
        return (sum(map(mul, top, v)), *v[:-1])
    return (sum(map(mul, top, v)), *[a * x + b * y for x, y in zip(v[1:], v)])

