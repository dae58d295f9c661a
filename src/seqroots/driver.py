"""Turn ratio sequences into root estimates.

Convergence is decided on exact rational convergents.  In
``dominant_root`` and ``root_via_shift`` a run stops when the samples of a
window of consecutive steps render to the same decimal value at the target
precision AND the candidate passes an exact relative-residual test against
the polynomial it claims to solve and a cross-check against the
step-over-step ratio.  A step with a zero denominator has no sample, so it
breaks the window; a candidate that fails either test is rejected and the
run goes on.  Enumeration renders nothing, checks no residual and accepts
on its certificate alone (below).  Equal-modulus
dominant roots never settle, so a run checks for a tie at one checkpoint
every ``TIE_SPAN`` samples: from its fortieth sample on, a block of
``TIE_SPAN`` samples whose spread (largest minus smallest) is no smaller
than the previous block's reports a tie instead of burning the whole
iteration budget.

Until then a run converges linearly: it earns ``log10(gap)`` digits a
step, so a poor gap between the largest and the next image modulus makes
it long.  Such a run is handed over.  At each checkpoint that did not tie,
the two blocks' spreads give Aitken's (1926) estimate of the distance
still to go.  A bracket reaching twice that to either side of the last
sample, and no wider than the sample itself, is tried.  While the
square-free part has the same sign at both its ends, the bracket grows
fourfold, at most three times.  The first bracket whose ends differ in
sign is finished, if Descartes' rule counts exactly one root in it, by
the same extraction enumeration uses (below), which runs the recurrence
afresh on the reversed polynomial recentred near the convergent.  That
is the integer analogue of shift-and-invert iteration: it converges
super-linearly, and its value is certified.  A repeated dominant root
converges like ``1/k``, so no bracket would hold it: ``dominant_root`` and
``root_via_shift`` therefore run on the square-free part of ``p`` from the
start (``p`` itself when one evaluation proves it square-free), which has
the same distinct roots, each simple, so the same root dominates or the
same tie shows.  A call screens for repeated roots once, before its first
step.  A run that ends at its budget, like a tie, reports 0 certified
digits.

``dominant_root`` and ``root_via_shift`` share one path, ``_single_root``,
whose loop renders, checks, tests for ties and hands over.  Its samples
are the first two components ``(x_j, y_j)`` of ``(a*I + b*C)^j e_1``.
``dominant_root`` steps the family of ``p``, where ``y_j`` is ``x_(j-1)``.
A shifted run makes the ``m - 1`` start products of ``a*I + b*C``, then
steps the scalar recurrence of ``shift_scale(p, s)``, which the ``x_j``
obey by Cayley-Hamilton, and carries ``y_(j+1) = a*y_j + b*x_j``: ``m + 2``
products a step instead of the ``3m - 2`` of the whole vector, on the same
integers.  An extraction run has its own loop too, in
``_extract_bracket``: it takes samples the same way, accepts on the
certificate alone and tests for no tie.  A square-free part of degree 1,
``x - r``, proves its root before any step, and returns it exactly with 0
iterations: ``p = (x-r)^m`` is one, under every shift, the nilpotent
``a + b*r = 0`` included (every seed would collapse to the zero vector
there).  Every root known exactly, there or in enumeration, is reported
one way: converged, estimator ``exact``.  Root 0's eigenvector has no
first two components to read, so ``root_via_shift`` runs a square-free
part with roots 0 and others, under ``a != 0``, with its zero root divided
out and decides from that run's root whether 0 dominates.

The loops around the recurrence stay in the integers.  A sample is the
pair ``(n, d)`` of the first two components, ``d > 0``, and two samples
compare by cross-multiplying.  Between checkpoints the tie test only
collects samples, each appended to its block; it finds each block's
largest and smallest once, in
``2 * TIE_SPAN`` comparisons at the first checkpoint after it ends, and
the two spreads compare in one inequality.  Samples are rendered
only when two consecutive ones can render equal: renderings that
coincide at D significant digits satisfy
``|x - y| * 10^(D-1) <= 2 * max(|x|, |y|)``, and a pair that fails this
integer test resets the run without a ``Fraction`` or a ``Decimal``.
An admitted sample renders from its integer pair, and a ``Fraction`` is
built only for a value that is checked, returned or reported as a tie.
Renderings compare as strings, and as ``Decimal`` only when the strings
differ ("3" and "3.00000000000" name one number).  The residual test and
the step-over-step cross-check that accept a settled value are each one
integer inequality, cross-multiplied from their ``Fraction`` forms.

Enumeration of all real roots isolates, then extracts, then certifies.
The square-free part of the polynomial (the polynomial itself when one
evaluation at a large power of two proves it square-free) is split into
disjoint intervals that each hold one root, by Descartes bisection
(Collins & Akritas; Rouillier & Zimmermann) in the Bernstein basis
(Mourrain, Rouillier & Roy): each interval carries the integer Bernstein
coefficients of the polynomial on it, whose sign variations bound its
roots there, and one integer de Casteljau triangle at the midpoint gives
both halves' coefficients, so a whole tree costs two changes of variable.
Interior real roots can never dominate under a real affine shift (the
largest shifted modulus is always attained on the convex hull of the root
set), so each interval is finished through an auxiliary polynomial:
recentering at the interval midpoint and reversing coefficients maps the
nearest root to the dominant one, where the same ratio iteration applies.
A round recentres the coefficient list, builds the first row ``top`` of
the reversed polynomial's companion from it and steps
``v -> (top . v, v_1, ..., v_(m-1))`` from ``e_1`` itself, sampling from
its first product: after ``j`` products the sample is König's iteration of
order ``j + 1`` from the centre, the first a Newton step.  No polynomial,
matrix or ``SequenceFamily`` is built for a round, which makes about seven
products on the test corpus and reads two components of each vector.
Each sample the render prefilter admits is mapped back exactly and kept
once exact signs of the polynomial place the root within the target
precision of it.  Those signs are taken first at short dyadic points just
inside the certificate's ends, whose length depends on the target
precision and not on the sample's, and at an exact end only when the
short sign leaves its side open.  Brackets are integers over a power of
two and every sign test is the sign of the integer ``v^m q(u/v)``, so a
``Fraction`` is built only for a value that is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from itertools import chain
from operator import add, index as _as_int, mul
from typing import Optional

from .companion import iteration_matrix, mat_vec
from .errors import OutOfRangeError, ZeroDenominatorError
from .poly import (
    IDENTITY_SHIFT,
    AffineShift,
    MonicIntPolynomial,
    cauchy_bound,
    compose_affine,
    deflate_zero_root,
    eval_homogeneous,
    eval_rational,
    shift_scale,
)
from .render import EXACT_AGREEMENT, decimal_string, fraction_text
from .sequences import SequenceFamily, default_seed

ESTIMATOR_CROSS = "cross-ratio"
ESTIMATOR_EXACT = "exact"
ESTIMATOR_BISECTION = "bisection"

TIE_SPAN = 20

#: ``dominant_root`` and ``root_via_shift`` accept a value once this many
#: consecutive samples render equal (and its residual passes).
RENDER_WINDOW = 3

#: An extraction round gains log10(1/rho) digits a step, where rho is the
#: ratio of the distances from the bracket centre to its root and to the next
#: root.  A round gets this many steps per target digit, plus a fixed 40
#: (``2 * TIE_SPAN``); a slower one (rho above about 0.56) ends at that
#: budget: bisecting the bracket further is cheaper.
EXTRACT_STEPS_PER_DIGIT = 4
BISECT_STEPS = 5

#: A handover bracket with equal signs at its ends grows fourfold, at most
#: this often.
BRACKET_GROWTHS = 3


class RootStatus(Enum):
    CONVERGED = "converged"
    TIE_DETECTED = "tie-detected"
    MAX_ITERS_EXCEEDED = "max-iters-exceeded"


@dataclass(frozen=True)
class DriverOptions:
    """``max_iters`` bounds a single-root run, on the square-free part, and,
    separately, each extraction run: a handover may add the extraction's
    steps (``x^2-9x+6`` under ``(-4, 1)`` converges at 42 of 40).
    """

    target_digits: int = 12
    max_iters: int = 10000

    def __post_init__(self) -> None:
        for name in ("target_digits", "max_iters"):
            if _as_int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be positive")


DEFAULT_OPTIONS = DriverOptions()


@dataclass(frozen=True)
class RootEstimate:
    """One root estimate: exact rational value plus how it was obtained.

    ``peak_bits`` is the bit length of the widest integer the call's runs
    computed.  For an unshifted run that is every component of its vectors.
    A shifted run of ``root_via_shift`` computes its ``m`` start vectors
    whole, then only the first component ``x_j``, from the recurrence of
    ``shift_scale(p, s)``, and the carried second one ``y_j``; the other
    components of its later vectors are never formed and do not count.  A
    handover adds the peak of its extraction runs.
    """

    value: Fraction
    decimal_digits: int
    iterations: int
    status: RootStatus
    shift_used: AffineShift
    estimator: str
    peak_bits: int = 0

    def __repr__(self) -> str:
        # the dataclass repr, with the value's integers written through
        # ``Decimal``: repr(Fraction) raises past the int-to-str digit limit
        n, _, d = fraction_text(self.value).partition("/")
        rest = "".join(f", {f.name}={getattr(self, f.name)!r}" for f in fields(self)[1:])
        return f"{type(self).__qualname__}(value=Fraction({n}, {d or 1}){rest})"

    @property
    def converged(self) -> bool:
        return self.status is RootStatus.CONVERGED

    def decimal(self, digits: Optional[int] = None) -> str:
        if digits is None:
            digits = self.decimal_digits if self.decimal_digits < EXACT_AGREEMENT else 12
            digits = max(1, digits)
        return decimal_string(self.value, digits)


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _residual_ok(p: MonicIntPolynomial, r: Fraction, target_digits: int) -> bool:
    """Exact check of |p(r)| / max(1, |r|)^m < 10^-(target_digits // 2).

    With ``r = u/v`` and ``p(r) = n/e`` (``v, e > 0``) this is the integer
    inequality ``|n| * 10^half * v^m < max(v, |u|)^m * e``.
    """
    half = max(1, target_digits // 2)
    res = eval_rational(p, r)
    m, u, v = p.degree, r.numerator, r.denominator
    return abs(res.numerator) * 10**half * v**m < max(v, abs(u)) ** m * res.denominator


#: A ratio sample ``n / d`` as the integer pair ``(n, d)`` with ``d > 0``.
Sample = tuple[int, int]

#: A spread ``num / den`` of ratio samples as ``(num, den)`` with ``den > 0``.
Spread = tuple[int, int]


def _renders_equal(x: str, y: Optional[str]) -> bool:
    """Two renderings name the same number.  Equal strings settle it; only
    strings that differ are compared as ``Decimal``, since an exact sample
    renders short ("3") and its neighbours long ("3.00000000000")."""
    return x == y or (y is not None and Decimal(x) == Decimal(y))


def _may_render_equal(xn: int, xd: int, yn: int, yd: int, scale: int) -> bool:
    """False only if ``xn/xd`` and ``yn/yd`` (``xd, yd > 0``) render
    differently at D significant digits, where ``scale = 10^(D-1)``.

    Equal renderings ``r`` give ``|x - y| <= ulp(r) <= 10^(1-D) * |r|`` and
    ``|r| <= 2 * max(|x|, |y|)``; multiplied out by both denominators.
    """
    a = xn * yd
    b = yn * xd
    return abs(a - b) * scale <= 2 * max(abs(a), abs(b))


def _spread(samples: list[Sample]) -> Spread:
    """``max - min`` of ``samples`` by cross-multiplied comparisons.  Of
    equal samples the newest bounds it: the handover's bracket grid depends
    on the spread's integers, not only on its value."""
    a, b = c, e = samples[0]
    for x, y in samples:
        if x * b >= a * y:
            a, b = x, y
        if x * e <= c * y:
            c, e = x, y
    return a * e - c * b, b * e


class _TieWindow:
    """Exact tie test on whole blocks of ``span`` samples.

    A run appends each sample to ``block`` and calls ``decide`` at each
    checkpoint, when ``block`` holds ``due`` samples: the ``2 * span``-th
    sample, then every ``span``-th.  It returns True, a tie, if the spread
    of the block that ends there is at least that of the block before it,
    and False otherwise.  A run that ends before its first checkpoint
    compares nothing, and each block's spread is taken once.
    """

    def __init__(self, span: int = TIE_SPAN) -> None:
        self.span = span
        self.due = 2 * span
        self.block: list[Sample] = []
        # the last two blocks' spreads, once a checkpoint is reached
        self._newer: Spread = (0, 1)
        self._older: Spread = (0, 1)

    def decide(self) -> bool:
        block = self.block
        if self.due > self.span:
            self._newer = _spread(block[: self.span])
            del block[: self.span]
            self.due = self.span
        self._older, self._newer = self._newer, _spread(block)
        block.clear()
        num, den = self._newer
        older_num, older_den = self._older
        return num * older_den >= older_num * den

    def spreads(self) -> tuple[Spread, Spread]:
        """The spreads of the blocks that end at and before the last
        checkpoint."""
        return self._newer, self._older


def _exact_estimate(
    value: Fraction,
    shift: AffineShift,
    opts: DriverOptions,
    iterations: int = 0,
    peak_bits: int = 0,
) -> RootEstimate:
    """The one way a root known exactly is reported."""
    return RootEstimate(
        Fraction(value),
        max(opts.target_digits, EXACT_AGREEMENT),
        iterations,
        RootStatus.CONVERGED,
        shift,
        ESTIMATOR_EXACT,
        peak_bits,
    )


def _successive_ok(
    family: SequenceFamily, shift: AffineShift, value: Fraction, target_digits: int
) -> bool:
    """Cross-check: the step-over-step ratio of the first component of
    ``family`` that has one sits within ``10^-t`` of ``a + b * value`` for
    ``shift = (a, b)``, ``t = target_digits - 2`` (at least 0).  With no
    such ratio there is nothing to contradict.  ``shift`` is the run's: a
    shifted run steps the family of ``shift_scale(p, shift)``, whose own
    shift is the identity.

    With ``value = u/v`` and the ratio ``n/e`` (``v, e > 0``) this is the
    integer inequality ``|n*v - e*(a*v + b*u)| * 10^t <= e*v``.
    """
    t = max(0, target_digits - 2)
    u, v = value.numerator, value.denominator
    expected = shift.a * v + shift.b * u
    for i in range(1, family.degree + 1):
        try:
            got = family.successive_ratio(i)
        except (ZeroDenominatorError, OutOfRangeError):
            continue
        n, e = got.numerator, got.denominator
        return abs(n * v - e * expected) * 10**t <= e * v
    return True


def _single_root(
    p: MonicIntPolynomial, s: AffineShift, opts: DriverOptions
) -> RootEstimate:
    """The one run behind ``dominant_root`` and ``root_via_shift``, on a
    square-free ``p``: the vectors ``S_j`` of ``p`` under ``s`` from the
    default seed, stepped until convergence, tie, handover or budget end.
    A ``p`` of degree 1 returns its root exactly, with 0 iterations.

    A sample reads only the first two components ``(x_j, y_j)`` of
    ``S_j``.  Under the identity shift the run steps the family of ``p``,
    whose ``y_j`` is ``x_(j-1)``.  Under any other shift the run makes the
    ``m - 1`` start products of ``a*I + b*C`` itself.  By Cayley-Hamilton
    the ``x_j`` obey the scalar recurrence of ``shift_scale(p, s)``, so the
    run steps that polynomial's family under the identity shift, started
    from ``(x_(m-1), ..., x_0)``, and carries ``y_(j+1) = a*y_j + b*x_j``:
    ``m + 2`` products a step instead of ``3m - 2``, on the same integers.
    Its ``peak_bits`` is the widest of the start vectors, the ``x_j`` and
    the ``y_j``.

    The cross ratios approach a root of ``p``.  A value whose rendering has
    settled is accepted if its residual passes (``_residual_ok``) and, in a
    shifted run, the step-over-step ratio agrees with it
    (``_successive_ok``).  An unshifted run's step ratio ``x_j / x_(j-1)``
    is its sample itself, which cannot disagree.  A rendering that fails
    a check is remembered and not checked again, and the run goes on to
    its tie test.  A run that ends at ``opts.max_iters`` steps, like a tie,
    reports 0 digits: no digit of its last sample is certified.

    A step reads its sample as an integer pair and appends it to the block
    of the exact ``_TieWindow``, which decides at every ``TIE_SPAN``-th
    sample from the fortieth on.  A step with a zero denominator has no
    sample: it appends nothing, and the next sample starts a new run of
    equal renderings, so such a run only ever holds samples of consecutive
    steps.  It grows only while ``_may_render_equal`` admits the last two
    samples, and only then are they rendered, from their integer pairs.  A
    ``Fraction`` is built only for a value that is checked, returned or
    reported as a tie.

    At each checkpoint that did not tie, the last sample and the two
    blocks' spreads go to ``_hand_over``.  The first estimate it returns
    ends the run, its steps and peak bits added to the run's own.
    """
    m, a, b = p.degree, s.a, s.b
    if m == 1:
        return _exact_estimate(Fraction(-p.coeffs[0]), s, opts)
    shifted = a != 0 or b != 1
    if shifted:
        matrix = iteration_matrix(p, s)
        start = [default_seed(m)]
        for _ in range(m - 1):
            start.append(mat_vec(matrix, start[-1]))
        # the widest integer of the start vectors, then of every y
        peak = max(map(int.bit_length, chain.from_iterable(start)))
        family = SequenceFamily(shift_scale(p, s), _start=tuple(v[0] for v in reversed(start)))
        y = start[-1][1]
    else:
        family = SequenceFamily(p)
        peak = 0
        y = family.current[1]
    vec = family.current
    limit = opts.max_iters
    digits = opts.target_digits
    scale = 10 ** (digits - 1)
    steps = 0
    run_length = 0
    # rendering of the previous sample, or None while it has not been needed
    last_render: Optional[str] = None
    rejected_render: Optional[str] = None
    tie = _TieWindow()
    collect = tie.block.append
    # samples until the next tie checkpoint
    due = tie.due
    # the last sample; the previous step's is pn/pd, with pd = 0 if it had none
    last: Optional[Sample] = None
    pn = pd = 0

    while True:
        n, d = vec[0], y
        if not d:
            pd = 0
        else:
            if d < 0:
                n, d = -n, -d
            if not pd or not _may_render_equal(pn, pd, n, d, scale):
                run_length = 1
                last_render = None
            else:
                if last_render is None:
                    last_render = decimal_string(pn, digits, pd)
                rendering = decimal_string(n, digits, d)
                run_length = run_length + 1 if _renders_equal(rendering, last_render) else 1
                if run_length >= RENDER_WINDOW and not _renders_equal(rendering, rejected_render):
                    value = Fraction(n, d)
                    # Unshifted, the step ratio x_j / x_(j-1) is the sample.
                    # pn = 0 (a shifted run's x_(j-1) = 0): the settled value
                    # is 0, and the whole vector's step ratio is
                    # y_j / y_(j-1) = a = a + b*0 exactly.  The family holds
                    # no y, and its ratios would skip to older x.
                    if _residual_ok(p, value, digits) and (
                        not shifted or not pn or _successive_ok(family, s, value, digits)
                    ):
                        return RootEstimate(
                            value,
                            digits,
                            steps,
                            RootStatus.CONVERGED,
                            s,
                            ESTIMATOR_CROSS,
                            max(peak, family.peak_bits),
                        )
                    # A settled rendering that fails a check: remember it so
                    # it is not re-checked every step, and keep going until
                    # the tie detector or the budget speaks.
                    rejected_render = rendering
                last_render = rendering
            pn, pd = n, d
            last = (n, d)
            collect(last)
            due -= 1
            if not due:
                if tie.decide():
                    # no digit of the root is actually known in a tie: a
                    # stalled-but-rejected constant would otherwise report
                    # perfect agreement
                    return RootEstimate(
                        Fraction(n, d),
                        0,
                        steps,
                        RootStatus.TIE_DETECTED,
                        s,
                        ESTIMATOR_CROSS,
                        max(peak, family.peak_bits),
                    )
                due = tie.due
                est = _hand_over(p, opts, last, *tie.spreads())
                if est is not None:
                    return replace(
                        est,
                        iterations=steps + est.iterations,
                        shift_used=s,
                        peak_bits=max(peak, family.peak_bits, est.peak_bits),
                    )
        if steps >= limit:
            # as in a tie, no digit of an unsettled sample is certified
            return RootEstimate(
                Fraction(0) if last is None else Fraction(*last),
                0,
                steps,
                RootStatus.MAX_ITERS_EXCEEDED,
                s,
                ESTIMATOR_CROSS,
                max(peak, family.peak_bits),
            )
        # No collapse exit: the default seed reaches the zero vector only
        # under a nilpotent matrix, and a square-free p of degree 2 or more
        # has two distinct roots, so no a + b*r vanishes at both.
        x = vec[0]
        vec = family.step()
        steps += 1
        if shifted:
            y = a * y + b * x
            bits = y.bit_length()
            if bits > peak:
                peak = bits
        else:
            y = x


def dominant_root(
    p: MonicIntPolynomial, opts: DriverOptions = DEFAULT_OPTIONS
) -> RootEstimate:
    """Estimate the root of strictly largest absolute value.

    Reports TieDetected when no such root exists (equal-modulus pair) and
    MaxItersExceeded when the budget runs out first.  The run is on the
    square-free part of ``p``, where a repeated root is simple: one of
    degree 1, as that of ``p = (x-r)^m``, returns its root exactly, with 0
    iterations.
    """
    return _single_root(_square_free(p), IDENTITY_SHIFT, opts)


def root_via_shift(
    p: MonicIntPolynomial, s: AffineShift, opts: DriverOptions = DEFAULT_OPTIONS
) -> RootEstimate:
    """Estimate the root of ``p`` whose image ``a + b*r`` dominates.

    The family iterates ``a*I + b*C`` for the companion matrix ``C`` of
    ``p``, so cross ratios converge straight to the original root; the
    step-over-step ratio is an independent consistency check at acceptance
    (it must approach ``a + b*value``, or the value is rejected and the run
    goes on).  Statuses are those of ``dominant_root``, and as there the
    run is on the square-free part ``q`` of ``p``: one of degree 1, as that
    of ``p = (x-r)^m``, returns its root exactly, with 0 iterations, the
    nilpotent shift ``a + b*r = 0`` included.

    Samples read the first two components, and root 0's eigenvector
    ``(0, ..., 0, 1)`` has none to read, so for ``a != 0`` a ``q`` with
    roots 0 and others runs with its zero root, a simple one, divided out.
    If that run converges to ``r``, 0 dominates iff ``|a| > |a + b*r|``,
    that is iff ``r`` lies strictly between 0 and ``t = -2a/b``.  When every
    point within ``|r| * 10^-digits`` of ``r`` does, the root is exactly 0,
    reported with the run's iterations and peak bits; when none does, it is
    the run's estimate; otherwise the two images are too close to tell
    apart, and the call reports a tie.  A tie or a budget end of the run is
    the call's.
    """
    q = _square_free(p)
    if s.a == 0 or q.constant_term or q.degree == 1:
        return _single_root(q, s, opts)
    est = _single_root(deflate_zero_root(q), s, opts)
    if est.status is not RootStatus.CONVERGED:
        return est
    u, w = est.value.numerator, est.value.denominator
    if u * s.a * s.b < 0:
        # r and t on one side of 0: |r| (1 +- 10^-D) < |t| = 2|a|/|b|, each
        # side times w * |b| * 10^D
        scale = 10**est.decimal_digits
        near, bound = abs(u * s.b), 2 * abs(s.a) * w * scale
        if near * (scale + 1) < bound:
            return _exact_estimate(Fraction(0), s, opts, est.iterations, est.peak_bits)
        if near * (scale - 1) <= bound:
            return replace(
                est, decimal_digits=0, status=RootStatus.TIE_DETECTED, estimator=ESTIMATOR_CROSS
            )
    return est


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


def _proved_square_free(p: MonicIntPolynomial) -> bool:
    """True proves ``p`` and ``p'`` coprime, from one evaluation of each at
    ``t = 2^s``; False decides nothing.

    For ``R = cauchy_bound(p)`` and ``s = R.bit_length() + 64``, a common
    factor ``g`` of ``p`` and ``p'`` of positive degree may be taken monic,
    and then has integer coefficients, as a factor of the monic ``p``
    (Gauss's lemma).  Division by a monic integer polynomial stays in the
    integers, so ``g(t)`` divides both ``p(t)`` and ``p'(t)``.  Every root
    of ``g`` is one of ``p``, below ``R`` in absolute value, so
    ``|g(t)| > t - R``.  A gcd of ``p(t)`` and ``p'(t)`` below ``t - R``
    therefore rules every such ``g`` out.  The 64 guard bits only make that
    likely: whatever the gcd, ``_square_free`` returns the same polynomial.
    Both values are packed by shifts, in the homogeneous Horner scheme.
    """
    r = cauchy_bound(p)
    s = r.bit_length() + 64
    m = p.degree
    value, slope = 1, m
    for i, c in enumerate(p.coeffs, 1):
        value = (value << s) + c
        if i < m:
            slope = (slope << s) + (m - i) * c
    return math.gcd(value, slope) < (1 << s) - r


def _square_free(p: MonicIntPolynomial) -> MonicIntPolynomial:
    """``p / gcd(p, p')``: the same roots, each simple.

    ``_proved_square_free`` decides most calls, and ``p`` is returned
    itself: with ``R = cauchy_bound(p)`` and ``t`` a power of two above it
    by 64 bits, a common factor ``g`` of ``p`` and ``p'`` would be monic,
    divide both ``p(t)`` and ``p'(t)`` and have ``|g(t)| > t - R``, so a
    gcd of the two below ``t - R`` rules it out.  Otherwise the gcd comes
    from a primitive remainder sequence in integers.  It divides the monic
    ``p``, so by Gauss's lemma its primitive part is monic, and so is the
    exact quotient; a square-free ``p`` the evaluation did not prove is
    still returned itself.
    """
    if _proved_square_free(p):
        return p
    full = list(p.with_leading())
    m = p.degree
    a, b = full, [(m - i) * c for i, c in enumerate(full[:-1])]
    while b:
        a, b = b, _primitive(_pseudo_divide(a, b)[1])
    if len(a) == 1:
        # a constant gcd: p is square-free already
        return p
    quotient, _ = _pseudo_divide(full, _primitive(a))
    return MonicIntPolynomial(tuple(quotient[1:]))


def _sign_variations(coeffs: list[int]) -> int:
    """Sign changes along ``coeffs``, zeros skipped, capped at 2."""
    count = 0
    last = 0
    for c in coeffs:
        if c == 0:
            continue
        if last and (c > 0) != (last > 0):
            count += 1
            if count == 2:
                break
        last = c
    return count


def _count_form(desc: list[int]) -> list[int]:
    """``T(x) = (x+1)^m P(1/(x+1))`` for the descending coefficients ``desc``
    of a degree-``m`` ``P``, descending.

    With ``P(t) = sum beta_i C(m, i) t^i (1-t)^(m-i)`` in the Bernstein
    basis of (0, 1), ``T_i = C(m, i) * beta_i``.  So by Descartes' rule the
    sign variations of ``T`` (``_sign_variations``) bound the roots of ``P``
    in (0, 1) from above and share their parity: 0 and 1 are exact counts.
    """
    return compose_affine(desc[::-1], 1, 1, 1)


def _on_unit_interval(q: MonicIntPolynomial, lo: int, hi: int, k: int) -> list[int]:
    """Descending integer coefficients of ``P(t) = c * q((lo + (hi - lo) t) / 2^k)``
    for some ``c > 0``: the roots of ``q`` in the bracket, mapped onto (0, 1)."""
    return compose_affine(q.with_leading(), hi - lo, lo, 1 << k)


def _halves(b: list[int]) -> tuple[list[int], list[int]]:
    """The integer Bernstein coefficients of ``P(t/2)`` and ``P((1+t)/2)``
    on (0, 1), from those of ``P``, ``b``: one de Casteljau triangle at 1/2
    in sum form.

    The rows ``s^(0) = b`` and ``s^(r)_i = s^(r-1)_i + s^(r-1)_(i+1)`` are
    ``2^r`` times de Casteljau's averages.  The left half's coefficients
    are ``left_j = s^(j)_0 << (m-j)`` and the right half's
    ``right_j = s^(m-j)_j << j``: both halves' true coefficients times
    ``2^m``, so every sign is theirs.  ``right_0 = left_m`` is ``2^m P(1/2)``
    times a positive constant.
    """
    m = len(b) - 1
    row = b
    left = [b[0] << m]
    right = [b[m] << m]
    # shift = m - r on row r, which ends at right_(m-r)
    for shift in range(m - 1, -1, -1):
        row = list(map(add, row, row[1:]))
        left.append(row[0] << shift)
        right.append(row[-1] << shift)
    right.reverse()
    return left, right


def _isolate(
    q: MonicIntPolynomial,
) -> tuple[list[Fraction], list[tuple[int, int, int, int]]]:
    """Descartes bisection over the roots of a square-free ``q``.

    Returns the roots met exactly at split points and the isolating
    intervals ``(lo, hi, k, s)``, in integers over a power of two: each open
    interval ``(lo / 2^k, hi / 2^k)`` holds exactly one root, and ``s`` is
    the sign of ``q`` just above its left end.  Intervals are disjoint, so
    the roots they hold are distinct.

    The search starts on ``(-B, B)`` for a power of two
    ``B >= cauchy_bound(q)``, and takes each interval's right half first.
    Every interval carries the integer Bernstein coefficients ``b`` of a
    polynomial ``P`` on (0, 1), with ``P(t) = c * q(lo + (hi - lo) t)`` for
    some ``c > 0``, so the roots of ``q`` in the interval are those of
    ``P`` in (0, 1).  The first interval's are ``b_i = T_i * i! * (m-i)!``
    from the count form ``T`` of ``_count_form``: ``m!`` times the true
    ones.  An interval's Descartes count is the sign variations of its
    ``b``: 0 drops it, 1 makes it an isolating interval whose ``s`` is the
    sign of its first nonzero ``b_i``, and 2 (the cap) splits it into the
    halves of ``_halves``.  A right half whose first coefficient is 0 has
    its root at the split point.  So a tree makes two ``compose_affine``
    calls, whatever its size, and every count, split and sign is the one
    the count form of the interval's own ``P`` gives.
    """
    bound = 1 << (cauchy_bound(q) - 1).bit_length()
    width = 2 * bound
    m = q.degree

    def point(c: int, k: int) -> int:
        # the k-th level's c-th split point, times 2^k
        return width * c - (bound << k)

    form = _count_form(_on_unit_interval(q, -bound, bound, 0))
    fact = math.factorial
    exact: list[Fraction] = []
    intervals: list[tuple[int, int, int, int]] = []
    todo = [([t * fact(i) * fact(m - i) for i, t in enumerate(form)], 0, 0)]
    while todo:
        b, c, k = todo.pop()
        count = _sign_variations(b)
        if count == 0:
            continue
        if count == 1:
            low = next(x for x in b if x != 0)
            intervals.append((point(c, k), point(c + 1, k), k, 1 if low > 0 else -1))
            continue
        left, right = _halves(b)
        if right[0] == 0:
            exact.append(Fraction(point(2 * c + 1, k + 1), 1 << (k + 1)))
        todo.append((left, 2 * c, k + 1))
        todo.append((right, 2 * c + 1, k + 1))
    return exact, intervals


def _certified(
    q: MonicIntPolynomial,
    num: int,
    den: int,
    lo: int,
    hi: int,
    k: int,
    s_lo: int,
    target_digits: int,
) -> bool:
    """Exact signs of ``q`` show that the one root in ``(lo/2^k, hi/2^k)``
    lies within ``|r| * 10^-target_digits`` of ``r = num/den`` (``den > 0``,
    ``r`` inside the bracket).

    ``q`` has sign ``s_lo`` below that root and ``-s_lo`` above it, so a
    test point inside the bracket tells on which side of it the root is.
    The exact ends ``r -+ |r| * 10^-target_digits`` are ``a/w`` and ``b/w``
    over ``w = den * 10^target_digits``, and each side is first signed at a
    short dyadic point between its end and ``r``: ``A/2^e`` rounded up from
    ``a/w`` and ``B/2^e`` rounded down from ``b/w``, with ``2^-e`` at most
    a sixteenth of ``|r| * 10^-target_digits``.  Those have about
    ``3.3 * target_digits + 5`` bits whatever the length of ``num/den``.  A
    root at or beyond a short point is at or beyond its end, so only a side
    the short sign leaves open is tested at its exact end; every decision
    is the one the exact ends alone give.  Points are compared with the
    bracket by cross-multiplying and signed by ``eval_homogeneous``.
    """
    scale = 10**target_digits
    w = den * scale
    a, b = num * scale - abs(num), num * scale + abs(num)
    e = max(0, w.bit_length() - abs(num).bit_length() + 5)
    short_a, short_b = -((-a << e) // w), (b << e) // w
    root_above_a = (
        short_a << k <= lo << e
        or _sign(eval_homogeneous(q, short_a, 1 << e)) != -s_lo
        or a << k <= lo * w
        or _sign(eval_homogeneous(q, a, w)) != -s_lo
    )
    return root_above_a and (
        short_b << k >= hi << e
        or _sign(eval_homogeneous(q, short_b, 1 << e)) != s_lo
        or b << k >= hi * w
        or _sign(eval_homogeneous(q, b, w)) != s_lo
    )


def _lowest_terms(u: int, k: int) -> tuple[int, int]:
    """``u / 2^k`` as ``(numerator, denominator)`` in lowest terms."""
    shift = min(k, (u & -u).bit_length() - 1) if u else k
    return u >> shift, 1 << (k - shift)


def _extract_bracket(
    q: MonicIntPolynomial,
    lo: int,
    hi: int,
    k: int,
    s_lo: int,
    opts: DriverOptions,
) -> RootEstimate:
    """Pull the one root of ``q`` in ``(lo/2^k, hi/2^k)`` out in integers.

    ``s_lo`` is the sign of ``q`` just above the left end.  Bisection
    tightens the bracket, one level of ``k`` a halving, and reads each sign
    from ``eval_homogeneous``.  Recentring at the midpoint c = u/v gives the
    coefficient list ``(1, r_1, ..., r_m)`` of ``v^m q((x + u)/v)``, whose
    roots are ``v*r - u``, and ``K = r_m``.  Reversing it and scaling by
    ``K`` gives a monic polynomial whose dominant root is K / (v*r - u) for
    the root r nearest c, so the ratio iteration applies and a sample
    ``n/d`` maps back to ``(u + K*d/n) / v`` exactly.  A round builds that
    polynomial's companion first row ``top = -(r_(m-1), r_(m-2)*K, ...,
    r_1*K^(m-2), K^(m-1))`` straight from the list and steps it itself:
    from ``e_1`` each product is a step, ``(top . v, v_1, ..., v_(m-1))``,
    and gives a sample.  After ``j`` products the sample is König's (1884)
    iteration of order ``j + 1`` from the centre, the first a Newton step
    (Householder 1970, ch. 4).  A round makes about seven products on the
    test corpus, so a ``SequenceFamily`` built for it would cost about as
    much as the round.  Its peak bits are 1 for the seed, then the widest
    first component, since the other components are earlier first
    components.  Acceptance is the certificate alone: each
    sample ``_may_render_equal`` admits is mapped back, and one inside the
    bracket is kept once its nearest integer is a root of ``q`` (``exact``)
    or ``_certified`` holds; nothing is rendered, ``p`` is not evaluated
    and ``RENDER_WINDOW`` does not apply.  A round takes its samples as
    ``_single_root`` does and tests for no tie: it ends on a kept sample or
    at its budget of ``EXTRACT_STEPS_PER_DIGIT`` steps a digit plus
    ``2 * TIE_SPAN``, and a round that keeps none tightens the bracket and
    repeats.  Should the bracket pin the root down before any round does,
    its centre is reported as a bisection estimate, so every call returns a
    root.  Every return reports as its steps every product of all its
    rounds, and their peak bits.
    """
    digits = opts.target_digits
    scale = 10 ** (digits - 1)
    limit = min(EXTRACT_STEPS_PER_DIGIT * digits + 2 * TIE_SPAN, opts.max_iters)
    full = q.with_leading()
    m = q.degree
    spent = 0
    peak = 0
    while True:
        for _ in range(BISECT_STEPS):
            mid = lo + hi
            lo, hi, k = 2 * lo, 2 * hi, k + 1
            s = _sign(eval_homogeneous(q, mid, 1 << k))
            if s == 0:
                return _exact_estimate(
                    Fraction(mid, 1 << k), IDENTITY_SHIFT, opts, spent, peak
                )
            if s == s_lo:
                lo = mid
            else:
                hi = mid
        # in lowest terms: a needless factor 2 in v would scale coefficient j
        # of the recentred polynomial by 2^j
        u, v = _lowest_terms(lo + hi, k + 1)
        # v^m q((x + u)/v) = x^m + r_1 x^(m-1) + ... + r_m, descending
        recentred = compose_affine(full, 1, u, v)
        K = recentred[-1]
        if K == 0:
            return _exact_estimate(Fraction(u, v), IDENTITY_SHIFT, opts, spent, peak)
        # the first row of the reversed polynomial's companion,
        # -(r_(m-1), r_(m-2)*K, ..., r_1*K^(m-2), K^(m-1)); no collapse exit:
        # its last entry is nonzero, so the matrix is invertible
        row, power = [], -1
        for c in recentred[-2:0:-1]:
            row.append(c * power)
            power *= K
        top = (*row, power)
        # from e_1, whose peak is 1
        vec = default_seed(m)
        peak = max(peak, 1)
        steps = pn = pd = 0
        # None until the round keeps a value
        estimator: Optional[str] = None
        while True:
            n, d = vec[0], vec[1]
            if not d:
                pd = 0
            else:
                if d < 0:
                    n, d = -n, -d
                if pd and _may_render_equal(pn, pd, n, d, scale):
                    # the root (u + K*d/n) / v as num/den, den > 0 (n = 0 maps
                    # to no root: den = 0 fails the bracket test)
                    num, den = u * n + K * d, v * n
                    if den < 0:
                        num, den = -num, -den
                    if lo * den < num << k < hi * den:
                        # round half to even, as round() does
                        nearest, rest = divmod(2 * num + den, 2 * den)
                        if rest == 0 and nearest & 1:
                            nearest -= 1
                        if lo < nearest << k < hi and eval_homogeneous(q, nearest, 1) == 0:
                            value, estimator = Fraction(nearest), ESTIMATOR_EXACT
                            break
                        if _certified(q, num, den, lo, hi, k, s_lo, digits):
                            value, estimator = Fraction(num, den), ESTIMATOR_CROSS
                            break
                pn, pd = n, d
            if steps >= limit:
                break
            vec = (sum(map(mul, top, vec)), *vec[:-1])
            bits = vec[0].bit_length()
            if bits > peak:
                peak = bits
            steps += 1
        spent += steps
        if estimator is None:
            if not _certified(q, lo + hi, 1 << (k + 1), lo, hi, k, s_lo, digits):
                continue
            value, estimator = Fraction(lo + hi, 1 << (k + 1)), ESTIMATOR_BISECTION
        if estimator == ESTIMATOR_EXACT:
            return _exact_estimate(value, IDENTITY_SHIFT, opts, spent, peak)
        return RootEstimate(
            value, digits, spent, RootStatus.CONVERGED, IDENTITY_SHIFT, estimator, peak
        )


def _hand_over(
    q: MonicIntPolynomial,
    opts: DriverOptions,
    sample: Sample,
    newer: Spread,
    older: Spread,
) -> Optional[RootEstimate]:
    """Hand a slow ``dominant_root`` or ``root_via_shift`` run on the
    square-free ``q`` over to ``_extract_bracket``, which finishes it
    super-linearly and certifies it; None keeps the run stepping.
    ``sample`` is the run's last sample, ``n/d``, and ``newer`` and
    ``older`` its last two blocks' spreads.  As ``q`` is square-free, its
    dominant root is simple, and the run's samples approach it
    geometrically.

    The bracket is centred on the last sample ``c = n/d``.  With
    ``s`` the newer block's spread and ``theta = s / s_old`` the contraction
    from the older block, its half-width is ``2 * s * theta / (1 - theta)``:
    Aitken's estimate of the distance still to go, doubled, in exact
    rationals.  It is tried only if that half-width is at most ``|c|``: the
    samples of a run that a complex pair dominates wander, and without the
    gate ``x^3+8x+1``, and ``x^3+x^2+8x-4`` under ``(-2, 2)``, hand over a
    bracket that meets a real root and report it instead of a tie.  The
    bracket is widened outward to integers over ``2^k``, and ``q`` must be
    nonzero at both ends.  Aitken's estimate can fall short of the distance
    to go, so a bracket with the same sign of ``q`` at both ends, which
    holds no root or an even number of them, grows fourfold, at most
    ``BRACKET_GROWTHS`` times, without a Descartes transform.  The first
    bracket whose end signs differ is handed over if Descartes' rule, on the
    count form of ``_count_form``, counts exactly one root in it.
    """
    n, d = sample
    a, b = newer
    c, e = older
    if a == 0:
        # a constant newer block: no contraction to extrapolate
        return None
    # half-width num/den; den > 0, as the blocks did not tie (a/b < c/e)
    num, den = 2 * a * a * e, b * (b * c - a * e)
    if num * d > abs(n) * den:
        return None
    w = d * den
    for _ in range(BRACKET_GROWTHS + 1):
        k = max(0, den.bit_length() - num.bit_length() + 2)
        lo = ((n * den - num * d) << k) // w
        hi = -((-(n * den + num * d) << k) // w)
        s_lo = _sign(eval_homogeneous(q, lo, 1 << k))
        s_hi = _sign(eval_homogeneous(q, hi, 1 << k))
        if not s_lo or not s_hi:
            return None
        if s_lo != s_hi:
            if _sign_variations(_count_form(_on_unit_interval(q, lo, hi, k))) == 1:
                return _extract_bracket(q, lo, hi, k, s_lo, opts)
            return None
        num *= 4
    return None


def enumerate_real_roots(
    p: MonicIntPolynomial, opts: DriverOptions = DEFAULT_OPTIONS
) -> list[RootEstimate]:
    """Every distinct real root of ``p``, ascending; may be empty.

    ``p`` is reduced to its square-free part ``q`` first (``p`` itself when
    one evaluation proves it square-free), where a zero root is simple and
    is deflated exactly.  Descartes bisection in the Bernstein basis
    isolates each real root of ``q`` in its own interval (or meets it
    exactly at a split point), and ``_extract_bracket`` finishes each
    interval with the ratio iteration.  A reported value is exact, or its
    root is certified by exact signs of ``q`` to lie within
    ``|value| * 10^-target_digits`` of it.
    """
    estimates: list[RootEstimate] = []
    q = _square_free(p)
    if q.degree > 1 and q.constant_term == 0:
        estimates.append(_exact_estimate(Fraction(0), IDENTITY_SHIFT, opts))
        q = deflate_zero_root(q)
    if q.degree == 1:
        estimates.append(_exact_estimate(Fraction(-q.coeffs[0]), IDENTITY_SHIFT, opts))
    else:
        exact, intervals = _isolate(q)
        estimates.extend(_exact_estimate(x, IDENTITY_SHIFT, opts) for x in exact)
        estimates.extend(
            _extract_bracket(q, lo, hi, k, s_lo, opts) for lo, hi, k, s_lo in intervals
        )
    return sorted(estimates, key=lambda e: e.value)
