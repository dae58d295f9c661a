"""Turn ratio sequences into root estimates.

Convergence is decided on exact rational convergents: a run stops when a
window of consecutive samples renders to the same decimal value at the
target precision AND the candidate passes an exact relative-residual test
against the polynomial it claims to solve.  Equal-modulus dominant roots
never settle; a non-contracting oscillation amplitude over a sliding
sample window reports them as a tie instead of burning the whole
iteration budget.

The loop around the recurrence stays in the integers.  A sample is the
pair ``(n, d)`` of the first two components, ``d > 0``, and two samples
compare by cross-multiplying.  The tie test keeps monotone deques of the
largest and smallest of the newer half of its window; the older half is
the newer half of ``TIE_SPAN`` steps before, so a step costs amortised
O(1) comparisons and the two spreads compare in one inequality.
Samples are rendered only when two consecutive ones can render equal:
renderings that coincide at D significant digits satisfy
``|x - y| * 10^(D-1) <= 2 * max(|x|, |y|)``, and a pair that fails this
integer test resets the run without a ``Fraction`` or a ``Decimal``.

Enumeration of all real roots isolates, then extracts, then certifies.
The square-free part of the polynomial is split into disjoint intervals
that each hold one root, by Descartes' rule of signs with exact integer
Taylor shifts and halvings (Collins & Akritas; Rouillier & Zimmermann).
Interior real roots can never dominate under a real affine shift (the
largest shifted modulus is always attained on the convex hull of the root
set), so each interval is finished through an auxiliary polynomial:
recentering at the interval midpoint and reversing coefficients maps the
nearest root to the dominant one, where the same ratio iteration applies;
the estimate is then mapped back exactly and kept only when exact signs of
the polynomial place the root within the target precision of it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from operator import index as _as_int
from typing import Callable, Optional

from .errors import EstimatorMismatchError, OutOfRangeError, ZeroDenominatorError
from .poly import (
    IDENTITY_SHIFT,
    AffineShift,
    MonicIntPolynomial,
    cauchy_bound,
    deflate_zero_root,
    eval_rational,
    reversed_monic,
    shift_scale,
)
from .render import EXACT_AGREEMENT, agreement_digits, decimal_string
from .sequences import SequenceFamily, init_family, shifted_family

ESTIMATOR_CROSS = "cross-ratio"
ESTIMATOR_SUCCESSIVE = "successive-ratio"
ESTIMATOR_EXACT = "exact"
ESTIMATOR_BISECTION = "bisection"

TIE_SPAN = 20

#: An extraction run gains log10(1/rho) digits a step, where rho is the ratio
#: of the distances from the bracket centre to its root and to the next
#: root.  A run slower than this many steps per target digit (rho above
#: about 0.56) stops early: bisecting the bracket further is cheaper.
EXTRACT_STEPS_PER_DIGIT = 4
BISECT_STEPS = 5


class RootStatus(Enum):
    CONVERGED = "converged"
    TIE_DETECTED = "tie-detected"
    MAX_ITERS_EXCEEDED = "max-iters-exceeded"
    DEGENERATE_SEED = "degenerate-seed"


@dataclass(frozen=True)
class DriverOptions:
    target_digits: int = 12
    window: int = 3
    max_iters: int = 10000
    normalized: bool = True

    def __post_init__(self) -> None:
        for name in ("target_digits", "window", "max_iters"):
            if _as_int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be positive")


DEFAULT_OPTIONS = DriverOptions()


@dataclass(frozen=True)
class RootEstimate:
    """One root estimate: exact rational value plus how it was obtained."""

    value: Fraction
    decimal_digits: int
    iterations: int
    status: RootStatus
    shift_used: AffineShift
    estimator: str
    peak_bits: int = 0

    @property
    def converged(self) -> bool:
        return self.status is RootStatus.CONVERGED

    def decimal(self, digits: Optional[int] = None) -> str:
        if digits is None:
            digits = self.decimal_digits if self.decimal_digits < EXACT_AGREEMENT else 12
            digits = max(1, digits)
        return decimal_string(self.value, digits)


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _residual_ok(p: MonicIntPolynomial, r: Fraction, target_digits: int) -> bool:
    """Exact check of |p(r)| / max(1, |r|)^m < 10^-(target_digits // 2)."""
    half = max(1, target_digits // 2)
    res = abs(eval_rational(p, r))
    scale = max(Fraction(1), abs(r)) ** p.degree
    return res * 10**half < scale


#: A ratio sample ``n / d`` as the integer pair ``(n, d)`` with ``d > 0``.
Sample = tuple[int, int]


def _may_render_equal(x: Sample, y: Sample, scale: int) -> bool:
    """False only if ``x`` and ``y`` render differently at D significant
    digits, where ``scale = 10^(D-1)``.

    Equal renderings ``r`` give ``|x - y| <= ulp(r) <= 10^(1-D) * |r|`` and
    ``|r| <= 2 * max(|x|, |y|)``; multiplied out by both denominators.
    """
    a = x[0] * y[1]
    b = y[0] * x[1]
    return abs(a - b) * scale <= 2 * max(abs(a), abs(b))


class _TieWindow:
    """Exact tie test over the last ``2 * span`` samples.

    ``push`` reports a tie once the window is full and the spread
    ``max - min`` of the newer ``span`` samples is at least that of the
    older ``span``.  The older half is the newer half of ``span`` pushes
    ago, so one pair of deques suffices: candidates for the maximum and the
    minimum of the newer half (indices ascending, values monotone), at an
    amortised O(1) cross-multiplied comparisons a push, and the newer
    half's spread after each of the last ``span + 1`` pushes.
    """

    def __init__(self, span: int = TIE_SPAN) -> None:
        self.span = span
        self.count = 0
        self._largest: deque[tuple[int, int, int]] = deque()
        self._smallest: deque[tuple[int, int, int]] = deque()
        # (num, den) of each spread, den > 0
        self._spreads: deque[tuple[int, int]] = deque(maxlen=span + 1)

    @staticmethod
    def _enter(
        candidates: deque[tuple[int, int, int]], k: int, n: int, d: int,
        oldest: int, largest: bool,
    ) -> None:
        # drop every candidate the new sample outlasts and matches or beats
        while candidates:
            _, cn, cd = candidates[-1]
            if (cn * d <= n * cd) if largest else (cn * d >= n * cd):
                candidates.pop()
            else:
                break
        candidates.append((k, n, d))
        if candidates[0][0] < oldest:
            candidates.popleft()

    def push(self, n: int, d: int) -> bool:
        k = self.count
        self.count += 1
        oldest = k - self.span + 1
        self._enter(self._largest, k, n, d, oldest, True)
        self._enter(self._smallest, k, n, d, oldest, False)
        _, a, b = self._largest[0]
        _, c, e = self._smallest[0]
        self._spreads.append((a * e - c * b, b * e))
        if self.count < 2 * self.span:
            return False
        num, den = self._spreads[-1]
        older_num, older_den = self._spreads[0]
        return num * older_den >= older_num * den


def _exact_estimate(
    value: Fraction, opts: DriverOptions, iterations: int = 0
) -> RootEstimate:
    digits = max(opts.target_digits, EXACT_AGREEMENT)
    return RootEstimate(
        Fraction(value),
        digits,
        iterations,
        RootStatus.CONVERGED,
        IDENTITY_SHIFT,
        ESTIMATOR_EXACT,
    )


def _linear_root(
    p: MonicIntPolynomial, shift_used: AffineShift, opts: DriverOptions
) -> RootEstimate:
    """Degree 1: one exact step of the family nails the root."""
    fam = init_family(p, keep_history=True)
    fam.step()
    value = fam.successive_ratio(1).value
    return RootEstimate(
        value,
        max(opts.target_digits, EXACT_AGREEMENT),
        1,
        RootStatus.CONVERGED,
        shift_used,
        ESTIMATOR_SUCCESSIVE,
        fam.peak_bits,
    )


def _check_successive(
    family: SequenceFamily, s: AffineShift, value: Fraction, opts: DriverOptions
) -> None:
    """Cross-check: step-over-step ratio must sit near a + b * value."""
    expected = s.apply(value)
    tol = Fraction(1, 10 ** max(0, opts.target_digits - 2))
    for i in range(1, family.degree + 1):
        try:
            got = family.successive_ratio(i).value
        except (ZeroDenominatorError, OutOfRangeError):
            continue
        if abs(got - expected) > tol:
            raise EstimatorMismatchError(
                f"step ratio {float(got):.6g} disagrees with shifted estimate "
                f"{float(expected):.6g} beyond 1e-{opts.target_digits - 2}"
            )
        return


def _iterate_family(
    family: SequenceFamily,
    target: MonicIntPolynomial,
    shift_used: AffineShift,
    opts: DriverOptions,
    *,
    budget: Optional[int] = None,
    successive_check: Optional[AffineShift] = None,
) -> RootEstimate:
    """Drive one family until convergence, tie, collapse, or budget end.

    ``target`` is the polynomial whose root the cross ratios approach (the
    original one when the family runs under a shift); residuals are checked
    against it.  ``budget`` caps steps below ``opts.max_iters`` if given.

    A step reads its sample as an integer pair (a zero denominator skips
    it) and feeds the exact ``_TieWindow``.  A run of equal renderings grows
    only while ``_may_render_equal`` admits the last two samples; only then,
    or once the run is long enough to settle, are they rendered, and only
    a rendered, accepted or returned sample becomes a ``Fraction``.
    """
    limit = opts.max_iters if budget is None else min(budget, opts.max_iters)
    digits = opts.target_digits
    scale = 10 ** (digits - 1)
    steps = 0
    run_length = 0
    # rendering of ``last``, or None while it has not been needed
    last_render: Optional[Decimal] = None
    rejected_render: Optional[Decimal] = None
    tie = _TieWindow()
    last: Optional[Sample] = None
    prev: Optional[Sample] = None

    def render(value: Fraction) -> Decimal:
        # compared as numbers: an exact sample renders short ("3") and its
        # neighbours long ("3.00000000000")
        return Decimal(decimal_string(value, digits))

    while True:
        vec = family.current
        n, d = vec[0], vec[1]
        if d:
            if d < 0:
                n, d = -n, -d
            prev, last = last, (n, d)
            value: Optional[Fraction] = None
            rendering: Optional[Decimal] = None
            if prev is not None and _may_render_equal(prev, last, scale):
                if last_render is None:
                    last_render = render(Fraction(*prev))
                value = family.cross_ratio(1).value
                rendering = render(value)
                run_length = run_length + 1 if rendering == last_render else 1
            else:
                run_length = 1
            if run_length >= opts.window:
                if value is None:
                    value = family.cross_ratio(1).value
                    rendering = render(value)
                if rendering != rejected_render:
                    if _residual_ok(target, value, digits):
                        if successive_check is not None:
                            _check_successive(family, successive_check, value, opts)
                        return RootEstimate(
                            value,
                            digits,
                            steps,
                            RootStatus.CONVERGED,
                            shift_used,
                            ESTIMATOR_CROSS,
                            family.peak_bits,
                        )
                    # A settled rendering that is not a root: remember it so
                    # the residual is not re-evaluated every step, and keep
                    # going until the tie detector or the budget speaks.
                    rejected_render = rendering
            last_render = rendering
            if tie.push(n, d):
                # no digit of the root is actually known in a tie: a
                # stalled-but-rejected constant would otherwise report
                # perfect agreement
                return RootEstimate(
                    family.cross_ratio(1).value if value is None else value,
                    0,
                    steps,
                    RootStatus.TIE_DETECTED,
                    shift_used,
                    ESTIMATOR_CROSS,
                    family.peak_bits,
                )
        if steps >= limit:
            last_value = Fraction(0) if last is None else Fraction(*last)
            return RootEstimate(
                last_value,
                0 if prev is None else agreement_digits(last_value, Fraction(*prev)),
                steps,
                RootStatus.MAX_ITERS_EXCEEDED,
                shift_used,
                ESTIMATOR_CROSS,
                family.peak_bits,
            )
        family.step()
        steps += 1
        if not any(family.current):
            return RootEstimate(
                Fraction(0),
                0,
                steps,
                RootStatus.DEGENERATE_SEED,
                shift_used,
                ESTIMATOR_CROSS,
                family.peak_bits,
            )


def _retrying(
    build: Callable[[Optional[tuple[int, ...]]], SequenceFamily],
    target: MonicIntPolynomial,
    shift_used: AffineShift,
    opts: DriverOptions,
    *,
    budget: Optional[int] = None,
    successive_check: Optional[AffineShift] = None,
) -> RootEstimate:
    """Run with the default seed, once more with all-ones on collapse."""
    est = _iterate_family(
        build(None),
        target,
        shift_used,
        opts,
        budget=budget,
        successive_check=successive_check,
    )
    if est.status is not RootStatus.DEGENERATE_SEED:
        return est
    ones = (1,) * target.degree
    return _iterate_family(
        build(ones),
        target,
        shift_used,
        opts,
        budget=budget,
        successive_check=successive_check,
    )


def dominant_root(
    p: MonicIntPolynomial, opts: DriverOptions = DEFAULT_OPTIONS
) -> RootEstimate:
    """Estimate the root of strictly largest absolute value.

    Reports TieDetected when no such root exists (equal-modulus pair), and
    MaxItersExceeded when the budget runs out first.
    """
    if p.degree == 1:
        return _linear_root(p, IDENTITY_SHIFT, opts)

    def build(seed: Optional[tuple[int, ...]]) -> SequenceFamily:
        return init_family(p, seed, normalized=opts.normalized)

    return _retrying(build, p, IDENTITY_SHIFT, opts)


def root_via_shift(
    p: MonicIntPolynomial, s: AffineShift, opts: DriverOptions = DEFAULT_OPTIONS
) -> RootEstimate:
    """Estimate the root of ``p`` whose image ``a + b*r`` dominates.

    The family iterates the shifted matrix, so cross ratios converge
    straight to the original root; the step-over-step ratio is used as an
    independent consistency check at acceptance (it must approach
    ``a + b*value``), which requires exact stepping, so this path ignores
    ``opts.normalized``.
    """
    if p.degree == 1:
        return _linear_root(p, s, opts)

    def build(seed: Optional[tuple[int, ...]]) -> SequenceFamily:
        return shifted_family(p, s, seed, normalized=False)

    return _retrying(build, p, s, opts, successive_check=s)


# -- enumeration --------------------------------------------------------------


def _primitive(desc: list[int]) -> list[int]:
    """``desc`` divided by the gcd of its coefficients, leading term positive."""
    if not desc:
        return desc
    g = math.gcd(*desc)
    if desc[0] < 0:
        g = -g
    return [c // g for c in desc]


def _pseudo_divide(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """``(Q, R)`` with ``lc(b)^k * a = Q*b + R`` in integers, where
    ``k = len(a) - len(b) + 1``; ``R`` has no leading zeros ([] for 0)."""
    r = list(a)
    quotient: list[int] = []
    for _ in range(len(a) - len(b) + 1):
        lead = r[0]
        quotient = [b[0] * c for c in quotient] + [lead]
        r = [b[0] * c for c in r]
        for i, c in enumerate(b):
            r[i] -= lead * c
        del r[0]
    while r and r[0] == 0:
        del r[0]
    return quotient, r


def _square_free(p: MonicIntPolynomial) -> MonicIntPolynomial:
    """``p / gcd(p, p')``: the same roots, each simple.

    The gcd comes from a primitive remainder sequence in integers.  It
    divides the monic ``p``, so by Gauss's lemma its primitive part is
    monic, and so is the exact quotient.
    """
    full = list(p.with_leading())
    m = p.degree
    a, b = full, [(m - i) * c for i, c in enumerate(full[:-1])]
    while b:
        a, b = b, _primitive(_pseudo_divide(a, b)[1])
    quotient, _ = _pseudo_divide(full, _primitive(a))
    return MonicIntPolynomial(tuple(quotient[1:]))


def _taylor_shift_one(desc: list[int]) -> list[int]:
    """Descending coefficients of ``P(x + 1)``."""
    a = list(desc)
    n = len(a) - 1
    for i in range(n):
        for j in range(1, n - i + 1):
            a[j] += a[j - 1]
    return a


def _roots_in_unit_interval(desc: list[int]) -> int:
    """Descartes bound on the roots of ``P`` in (0, 1), capped at 2.

    The sign variations of ``(x+1)^m P(1/(x+1))`` bound the roots in (0, 1)
    from above and share their parity, so 0 and 1 are exact counts.
    """
    count = 0
    last = 0
    for c in _taylor_shift_one(desc[::-1]):
        if c == 0:
            continue
        if last and (c > 0) != (last > 0):
            count += 1
            if count == 2:
                break
        last = c
    return count


def _isolate(
    q: MonicIntPolynomial,
) -> tuple[list[Fraction], list[tuple[Fraction, Fraction, int]]]:
    """Descartes bisection over the roots of a square-free ``q``.

    Returns the roots met exactly at split points and the isolating
    intervals ``(lo, hi, s)``: each open interval holds exactly one root,
    and ``s`` is the sign of ``q`` just above ``lo``.  Intervals are
    disjoint, so the roots they hold are distinct.

    Every interval carries an integer polynomial ``P`` with
    ``P(t) = c * q(lo + (hi - lo) t)`` for some ``c > 0``, so the roots of
    ``q`` in the interval are those of ``P`` in (0, 1).  The halves are
    ``2^m P(t/2)`` and its Taylor shift by 1.  The search starts on
    ``(-B, B)`` for a power of two ``B >= cauchy_bound(q)``.
    """
    bound = 1 << (cauchy_bound(q) - 1).bit_length()
    width = 2 * bound

    def point(c: int, k: int) -> Fraction:
        return Fraction(width * c, 1 << k) - bound

    top = shift_scale(q, AffineShift(bound, 1)).with_leading()
    m = q.degree
    exact: list[Fraction] = []
    intervals: list[tuple[Fraction, Fraction, int]] = []
    todo = [([c * width ** (m - i) for i, c in enumerate(top)], 0, 0)]
    while todo:
        poly, c, k = todo.pop()
        count = _roots_in_unit_interval(poly)
        if count == 0:
            continue
        if count == 1:
            low = next(a for a in reversed(poly) if a != 0)
            intervals.append((point(c, k), point(c + 1, k), 1 if low > 0 else -1))
            continue
        left = [a << i for i, a in enumerate(poly)]
        right = _taylor_shift_one(left)
        if right[-1] == 0:
            exact.append(point(2 * c + 1, k + 1))
        todo.append((left, 2 * c, k + 1))
        todo.append((right, 2 * c + 1, k + 1))
    return exact, intervals


def _certified(
    q: MonicIntPolynomial,
    r: Fraction,
    lo: Fraction,
    hi: Fraction,
    s_lo: int,
    target_digits: int,
) -> bool:
    """Exact signs of ``q`` show that the one root in ``(lo, hi)`` lies
    within ``|r| * 10^-target_digits`` of ``r`` (``lo < r < hi``).

    ``q`` has sign ``s_lo`` below that root and ``-s_lo`` above it, so a
    test point inside the bracket tells on which side of it the root is.
    """
    delta = abs(r) / 10**target_digits
    a, b = r - delta, r + delta
    root_above_a = a <= lo or _sign(eval_rational(q, a)) != -s_lo
    root_below_b = b >= hi or _sign(eval_rational(q, b)) != s_lo
    return root_above_a and root_below_b


def _extract_bracket(
    q: MonicIntPolynomial,
    lo: Fraction,
    hi: Fraction,
    s_lo: int,
    opts: DriverOptions,
) -> RootEstimate:
    """Pull the one root of ``q`` in ``(lo, hi)`` out with exact arithmetic.

    ``s_lo`` is the sign of ``q`` just above ``lo``.  Bisection tightens
    the bracket; recentring at the midpoint c = u/v and reversing
    coefficients produces a polynomial whose dominant root is
    K / (v*r - u) for the root r nearest c (K its constant term), so the
    standard iteration applies and the estimate maps back exactly.  An
    estimate is kept only once ``_certified`` holds; otherwise (or on a tie
    with a complex pair nearer c) the bracket tightens and the run repeats.
    Should the bracket pin the root down before any run does, its centre is
    reported as a bisection estimate, so every call returns a root.
    """
    budget = EXTRACT_STEPS_PER_DIGIT * opts.target_digits + 2 * TIE_SPAN
    spent = 0
    while True:
        for _ in range(BISECT_STEPS):
            mid = (lo + hi) / 2
            s = _sign(eval_rational(q, mid))
            if s == 0:
                return _exact_estimate(mid, opts, iterations=spent)
            if s == s_lo:
                lo = mid
            else:
                hi = mid
        center = (lo + hi) / 2
        u, v = center.numerator, center.denominator
        recentred = shift_scale(q, AffineShift(-u, v))
        if recentred.constant_term == 0:
            return _exact_estimate(center, opts, iterations=spent)
        reversed_poly = reversed_monic(recentred)
        scale = recentred.constant_term

        def build(seed: Optional[tuple[int, ...]]) -> SequenceFamily:
            return init_family(reversed_poly, seed, normalized=opts.normalized)

        est = _retrying(build, reversed_poly, IDENTITY_SHIFT, opts, budget=budget)
        spent += est.iterations
        if est.status is RootStatus.CONVERGED and est.value != 0:
            root = (u + Fraction(scale) / est.value) / v
            if lo < root < hi:
                nearest = round(root)
                if lo < nearest < hi and eval_rational(q, nearest) == 0:
                    return _exact_estimate(Fraction(nearest), opts, iterations=spent)
                if _certified(q, root, lo, hi, s_lo, opts.target_digits):
                    return RootEstimate(
                        root,
                        opts.target_digits,
                        spent,
                        RootStatus.CONVERGED,
                        IDENTITY_SHIFT,
                        ESTIMATOR_CROSS,
                        est.peak_bits,
                    )
        if _certified(q, center, lo, hi, s_lo, opts.target_digits):
            return RootEstimate(
                center,
                opts.target_digits,
                spent,
                RootStatus.CONVERGED,
                IDENTITY_SHIFT,
                ESTIMATOR_BISECTION,
            )


def enumerate_real_roots(
    p: MonicIntPolynomial, opts: DriverOptions = DEFAULT_OPTIONS
) -> list[RootEstimate]:
    """Every distinct real root of ``p``, ascending; may be empty.

    Zero roots are deflated exactly first, and the rest is reduced to its
    square-free part ``q``.  Descartes bisection isolates each real root of
    ``q`` in its own interval (or meets it exactly at a split point), and
    ``_extract_bracket`` finishes each interval with the ratio iteration.
    A reported value is exact, or its root is certified by exact signs of
    ``q`` to lie within ``|value| * 10^-target_digits`` of it.
    """
    estimates: list[RootEstimate] = []
    q: Optional[MonicIntPolynomial] = p
    while q is not None and q.constant_term == 0:
        q = None if q.degree == 1 else deflate_zero_root(q)
    if q is not p:
        estimates.append(_exact_estimate(Fraction(0), opts))
    if q is not None:
        q = _square_free(q)
        if q.degree == 1:
            estimates.append(_linear_root(q, IDENTITY_SHIFT, opts))
        else:
            exact, intervals = _isolate(q)
            estimates.extend(_exact_estimate(x, opts) for x in exact)
            estimates.extend(
                _extract_bracket(q, lo, hi, s_lo, opts) for lo, hi, s_lo in intervals
            )
    return sorted(estimates, key=lambda e: e.value)
