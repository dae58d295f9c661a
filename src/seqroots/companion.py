"""Companion matrices and exact integer matrix-vector iteration.

The companion matrix of ``x^m + a_1 x^(m-1) + ... + a_m`` has first row
``(-a_1, ..., -a_m)`` and ones on the subdiagonal; its eigenvalues are the
roots of the polynomial, with eigenvector ``(r^(m-1), ..., r, 1)`` for each
root ``r``.  Affine images ``a*I + b*R`` shift every eigenvalue to
``a + b*r`` while leaving eigenvectors untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .errors import DimensionMismatchError
from .poly import AffineShift, MonicIntPolynomial

IntVector = tuple[int, ...]


@dataclass(frozen=True)
class CompanionMatrix:
    """Dense square integer matrix; companion structure is not re-checked
    after affine transforms (those leave companion form in general)."""

    rows: tuple[IntVector, ...]

    @property
    def dim(self) -> int:
        return len(self.rows)


def companion_of(p: MonicIntPolynomial) -> CompanionMatrix:
    """Companion matrix of ``p``; its characteristic polynomial is ``p``."""
    m = p.degree
    zeros = (0,) * m
    first = tuple([-a for a in p.coeffs])
    return CompanionMatrix(
        (first, *[zeros[: i - 1] + (1,) + zeros[i:] for i in range(1, m)])
    )


def affine(c: CompanionMatrix, s: AffineShift) -> CompanionMatrix:
    """``a*I + b*C``: eigenvalues become ``a + b*lambda``, eigenvectors unchanged."""
    a, b = s.a, s.b
    rows = []
    for i, row in enumerate(c.rows):
        scaled = tuple([b * entry for entry in row])
        rows.append(scaled[:i] + (scaled[i] + a,) + scaled[i + 1 :])
    return CompanionMatrix(tuple(rows))


def mat_vec(c: CompanionMatrix, v: Sequence[int]) -> IntVector:
    """Exact integer matrix-vector product."""
    if len(v) != c.dim:
        raise DimensionMismatchError(f"vector has dim {len(v)}, matrix has dim {c.dim}")
    return tuple([sum(map(mul, row, v)) for row in c.rows])


def cayley_hamilton_residual(
    p: MonicIntPolynomial, c: CompanionMatrix
) -> tuple[IntVector, ...]:
    """Evaluate ``p`` at the matrix ``c`` by exact arithmetic.

    For ``c = companion_of(p)`` the result is the zero matrix (a matrix
    satisfies its own characteristic polynomial).  Columns are built by
    Horner steps using only matrix-vector products; no matrix power is
    ever materialized.
    """
    if c.dim != p.degree:
        raise DimensionMismatchError(f"matrix dim {c.dim} != degree {p.degree}")
    m = c.dim
    cols = []
    for k in range(m):
        basis = tuple(1 if i == k else 0 for i in range(m))
        acc = basis
        for a in p.coeffs:
            acc = mat_vec(c, acc)
            acc = tuple(x + a * e for x, e in zip(acc, basis))
        cols.append(acc)
    return tuple(tuple(cols[k][i] for k in range(m)) for i in range(m))
