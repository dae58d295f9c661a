"""Monic integer polynomials and exact integer changes of variable.

A polynomial of degree ``m`` is stored as the coefficient tuple
``(a_1, ..., a_m)`` of ``x^m + a_1 x^(m-1) + ... + a_m``; the leading 1 is
implicit and never stored.  All operations are exact: coefficients are
Python integers, evaluation points are rationals.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import (
    DegreeTooSmallError,
    EmptyInputError,
    NoZeroRootError,
    NotMonicError,
)

#: Hard cap on accepted degree; dense coefficient storage is assumed throughout.
MAX_DEGREE = 64

Rational = Union[int, Fraction]


@dataclass(frozen=True)
class MonicIntPolynomial:
    """``x^m + a_1 x^(m-1) + ... + a_m`` with integer ``a_k``.

    >>> MonicIntPolynomial((2, -1))
    MonicIntPolynomial(coeffs=(2, -1))
    >>> str(MonicIntPolynomial((2, -1)))
    'x^2 + 2x - 1'
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(operator.index(c) for c in self.coeffs)
        if not coeffs:
            raise EmptyInputError("polynomial must have degree >= 1")
        if len(coeffs) > MAX_DEGREE:
            raise ValueError(f"degree {len(coeffs)} exceeds supported cap {MAX_DEGREE}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    @property
    def constant_term(self) -> int:
        return self.coeffs[-1]

    def with_leading(self) -> tuple[int, ...]:
        """Full descending coefficient tuple ``(1, a_1, ..., a_m)``."""
        return (1,) + self.coeffs

    def __str__(self) -> str:
        parts = [f"x^{self.degree}" if self.degree > 1 else "x"]
        for k, a in enumerate(self.coeffs, start=1):
            if a == 0:
                continue
            power = self.degree - k
            mag = abs(a)
            if power == 0:
                term = str(mag)
            else:
                xpow = "x" if power == 1 else f"x^{power}"
                term = xpow if mag == 1 else f"{mag}{xpow}"
            parts.append(f"- {term}" if a < 0 else f"+ {term}")
        return " ".join(parts)


@dataclass(frozen=True)
class AffineShift:
    """Eigenvalue map ``r -> a + b*r`` realized on matrices as ``a*I + b*R``.

    ``b`` must be nonzero; ``(0, 1)`` is the identity.
    """

    a: int
    b: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", operator.index(self.a))
        object.__setattr__(self, "b", operator.index(self.b))
        if self.b == 0:
            raise ValueError("shift scale b must be nonzero")

    def apply(self, value: Rational) -> Fraction:
        """``a + b*value`` as an exact rational."""
        return Fraction(value) * self.b + self.a


IDENTITY_SHIFT = AffineShift(0, 1)


def make_polynomial(values: Sequence[int]) -> MonicIntPolynomial:
    """Build a polynomial from the coefficient list ``[1, a_1, ..., a_m]``,
    checking the explicit leading 1."""
    values = list(values)
    if not values:
        raise EmptyInputError("coefficient list is empty")
    if operator.index(values[0]) != 1:
        raise NotMonicError(f"leading coefficient must be 1, got {values[0]}")
    return MonicIntPolynomial(tuple(values[1:]))


def eval_homogeneous(p: MonicIntPolynomial, u: int, v: int) -> int:
    """The integer ``v^m p(u/v)``, by the homogeneous Horner scheme.

    ``u/v`` need not be in lowest terms.  For ``v > 0`` the result has the
    sign of ``p(u/v)``, so a sign test at a rational point stays in the
    integers.

    >>> eval_homogeneous(MonicIntPolynomial((0, -2)), 3, 2)  # 4 * ((3/2)^2 - 2)
    1
    """
    acc = 1
    power = 1
    for a in p.coeffs:
        power *= v
        acc = acc * u + a * power
    return acc


def eval_rational(p: MonicIntPolynomial, x: Rational) -> Fraction:
    """Exact value of ``p`` at a rational point (Horner, no rounding).

    For ``x = u/v`` in lowest terms this is ``eval_homogeneous(p, u, v)``
    over ``v^m``; one ``Fraction`` is built at the end.
    """
    x = Fraction(x)
    v = x.denominator
    return Fraction(eval_homogeneous(p, x.numerator, v), v**p.degree)


def cauchy_bound(p: MonicIntPolynomial) -> int:
    """``1 + max|a_k|``: every root has absolute value below this integer."""
    return 1 + max(abs(a) for a in p.coeffs)


def compose_affine(desc: Sequence[int], alpha: int, beta: int, gamma: int) -> list[int]:
    """Descending integer coefficients of ``gamma^m * P((alpha*x + beta)/gamma)``
    for the descending coefficients ``desc`` of a degree-``m`` ``P``.

    The one substitution kernel: coefficient ``i`` is scaled by ``gamma^i``,
    the list is Taylor-shifted by ``beta`` in place, and coefficient ``i`` is
    scaled by ``alpha^(m-i)``.  Factors of 1 and a shift by 0 are skipped.

    >>> compose_affine([1, 0, -2], 3, 1, 2)  # 4 * (((3x + 1)/2)^2 - 2)
    [9, 6, -7]
    """
    a = list(desc)
    n = len(a) - 1
    if gamma != 1:
        power = 1
        for i in range(1, n + 1):
            power *= gamma
            a[i] *= power
    # pass i divides a[:i+1] by (x - beta) synthetically, remainder in a[i]
    if beta:
        for i in range(n, 0, -1):
            acc = a[0]
            for j in range(1, i + 1):
                acc = a[j] = a[j] + beta * acc
    if alpha != 1:
        power = 1
        for i in range(n - 1, -1, -1):
            power *= alpha
            a[i] *= power
    return a


def shift_scale(p: MonicIntPolynomial, s: AffineShift) -> MonicIntPolynomial:
    """Monic integer polynomial whose roots are ``a + b*r`` for roots ``r`` of ``p``.

    Computed as ``b^m * p((x - a)/b)`` by ``compose_affine``, so coefficients
    stay integers throughout.

    >>> str(shift_scale(MonicIntPolynomial((2, -1)), AffineShift(2, 1)))
    'x^2 - 2x - 1'
    """
    return MonicIntPolynomial(tuple(compose_affine(p.with_leading(), 1, -s.a, s.b)[1:]))


def deflate_zero_root(p: MonicIntPolynomial) -> MonicIntPolynomial:
    """Divide out the root at 0, i.e. return ``p / x``."""
    if p.constant_term != 0:
        raise NoZeroRootError("constant term is nonzero; 0 is not a root")
    if p.degree < 2:
        raise DegreeTooSmallError("cannot deflate a degree-1 polynomial")
    return MonicIntPolynomial(p.coeffs[:-1])


def reversed_monic(p: MonicIntPolynomial) -> MonicIntPolynomial:
    """Monic integer polynomial whose roots are ``a_m / r`` for roots ``r`` of ``p``.

    Reverses the coefficient order (mapping roots to their reciprocals) and
    rescales the variable by the constant term ``a_m`` to restore monicity
    without leaving the integers.  Requires ``a_m != 0``.
    """
    const = p.constant_term
    if const == 0:
        raise ValueError("constant term is zero; deflate the zero root first")
    # coefficient j is a_(m-j) * const^(j-1), with a_0 = 1
    coeffs, power = [], 1
    for c in p.coeffs[-2::-1]:
        coeffs.append(c * power)
        power *= const
    return MonicIntPolynomial((*coeffs, power))
