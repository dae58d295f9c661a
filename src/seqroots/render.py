"""Decimal rendering of exact rationals.

Ratios are displayed at a requested number of significant digits with
round-half-even, matching how convergence is judged (two convergents
"agree to D digits" exactly when their renderings coincide).
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction

#: Sentinel returned by agreement_digits for exactly equal values.
EXACT_AGREEMENT = 999


#: One rounding context per digit count, made on first use.
_CONTEXTS: dict[int, Context] = {}


def decimal_string(value: Fraction | int, digits: int, denominator: int = 1) -> str:
    """``value / denominator`` rounded to ``digits`` significant digits,
    round-half-even.  ``denominator`` must be positive.

    A ratio of integers renders without a ``Fraction``: the quotient is
    rounded once, so ``(n, d)`` and ``n/d`` in lowest terms give one string.
    Exact short expansions stay short ("-2.5" not "-2.5000"); inexact ones
    keep trailing zeros produced by rounding ("0.41420" at 5 digits).
    """
    ctx = _CONTEXTS.get(digits)
    if ctx is None:
        if digits < 1:
            raise ValueError("digits must be >= 1")
        ctx = _CONTEXTS[digits] = Context(prec=digits, rounding=ROUND_HALF_EVEN)
    return str(
        ctx.divide(Decimal(value.numerator), Decimal(value.denominator * denominator))
    )


def ratio_string(numerator: int, denominator: int, digits: int) -> str:
    """Rendered ratio, with ``"inf"`` for a zero denominator."""
    if denominator == 0:
        return "inf"
    if denominator < 0:
        numerator, denominator = -numerator, -denominator
    return decimal_string(numerator, digits, denominator)


def fraction_text(value: Fraction) -> str:
    """``str(value)`` via ``Decimal``, which the int-to-str digit limit does not cover."""
    n, d = (str(Decimal(i)) for i in value.as_integer_ratio())
    return n if d == "1" else f"{n}/{d}"


def agreement_digits(a: Fraction, b: Fraction) -> int:
    """Significant digits on which two rationals agree (EXACT_AGREEMENT if equal)."""
    if a == b:
        return EXACT_AGREEMENT
    diff = abs(a - b)
    mag = max(abs(a), abs(b), Fraction(1))
    ratio = mag / diff
    # bit_length gap bounds log10 without overflowing float conversion
    gap = ratio.numerator.bit_length() - ratio.denominator.bit_length()
    if gap > 900:
        return EXACT_AGREEMENT
    if gap < -900:
        return 0
    return max(0, math.floor(math.log10(float(ratio))))
