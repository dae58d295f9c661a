"""Root driver: convergence, ties, shifts, enumeration, verification."""

import inspect
import math
import random
import sys
import time
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqroots import (
    AffineShift,
    DriverOptions,
    IDENTITY_SHIFT,
    RootStatus,
    dominant_root,
    enumerate_real_roots,
    make_polynomial,
    root_via_shift,
)
from seqroots import driver
from seqroots.driver import (
    TIE_SPAN,
    _certified,
    _extract_bracket as extract_bracket,
    _isolate,
    _lowest_terms,
    _may_render_equal,
    _on_unit_interval as on_unit_interval,
    _square_free,
)
from seqroots.companion import IterationMatrix, iteration_matrix
from seqroots.poly import (
    MonicIntPolynomial,
    cauchy_bound,
    compose_affine,
    eval_homogeneous,
    eval_rational,
    reversed_monic,
    shift_scale,
)
from seqroots.render import EXACT_AGREEMENT, decimal_string
from seqroots.sequences import SequenceFamily

from conftest import chebyshev

SQRT2 = math.sqrt(2)
CBRT2 = 2 ** (1 / 3)

QUADRATIC = make_polynomial([1, 2, -1])
CUBIC = make_polynomial([1, 0, 0, -2])


#: A degree-64 draw of ``random.Random(64)``, coefficients in [-9, 9].
RANDOM_64 = [1] + [random.Random(64).randint(-9, 9) for _ in range(64)]


def _from_roots(roots) -> list[int]:
    """Descending coefficients of ``prod (x - r)``."""
    coeffs = [1]
    for r in roots:
        coeffs = [c - r * prev for c, prev in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


class TestDriverOptions:
    def test_defaults(self):
        opts = DriverOptions()
        assert opts.target_digits == 12
        assert opts.max_iters == 10000

    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            DriverOptions(target_digits=0)
        with pytest.raises(ValueError):
            DriverOptions(max_iters=-1)


class TestDominantRoot:
    def test_known_quadratic(self):
        est = dominant_root(QUADRATIC)
        assert est.converged
        assert est.estimator == "cross-ratio"
        assert est.shift_used == IDENTITY_SHIFT
        assert abs(float(est.value) - (-1 - SQRT2)) < 1e-10

    def test_linear_is_exact(self):
        est = dominant_root(make_polynomial([1, -5]))
        assert (est.status, est.value, est.estimator) == (RootStatus.CONVERGED, 5, "exact")
        assert est.iterations == 0

    def test_equal_modulus_pair_is_a_tie(self):
        est = dominant_root(make_polynomial([1, 0, 1]))
        assert est.status is RootStatus.TIE_DETECTED

    def test_conjugate_modulus_cubic_is_a_tie(self):
        est = dominant_root(CUBIC)
        assert est.status is RootStatus.TIE_DETECTED

    def test_plus_minus_pair_is_a_tie(self):
        est = dominant_root(make_polynomial([1, 0, -4]))
        assert est.status is RootStatus.TIE_DETECTED

    def test_budget_is_respected(self):
        est = dominant_root(QUADRATIC, DriverOptions(max_iters=5))
        assert est.status is RootStatus.MAX_ITERS_EXCEEDED
        assert est.iterations == 5
        # as in a tie, no digit of an unsettled sample is certified
        assert est.decimal_digits == 0

    def test_rational_root_converges(self):
        est = dominant_root(make_polynomial([1, -3, 2]))  # roots 2, 1
        assert est.converged
        assert abs(float(est.value) - 2) < 1e-10

    def test_integer_root_hit_on_alternate_steps_converges(self):
        # (x-3)(x^2+1): the cross ratio is exactly 3 on every other step and
        # renders "3" there but "3.00000000000" in between
        est = dominant_root(make_polynomial([1, -3, 1, -3]), DriverOptions(max_iters=400))
        assert est.status is RootStatus.CONVERGED
        assert est.value == 3


class TestRootViaShift:
    def test_recovers_smaller_quadratic_root(self):
        est = root_via_shift(QUADRATIC, AffineShift(2, 1))
        assert est.converged
        assert est.shift_used == AffineShift(2, 1)
        assert abs(float(est.value) - (-1 + SQRT2)) < 1e-10

    def test_recovers_cube_root(self):
        est = root_via_shift(CUBIC, AffineShift(1, 1))
        assert est.converged
        assert abs(float(est.value) - CBRT2) < 1e-9

    def test_identity_shift_matches_dominant(self):
        a = root_via_shift(QUADRATIC, IDENTITY_SHIFT)
        b = dominant_root(QUADRATIC)
        assert a.value == b.value

    def test_shift_invariance_of_the_estimate(self):
        # two shifts targeting the same root must agree on the answer
        a = root_via_shift(QUADRATIC, AffineShift(2, 1))
        b = root_via_shift(QUADRATIC, AffineShift(3, 1))
        assert abs(float(a.value) - float(b.value)) < 1e-8

    def test_negative_scale(self):
        # b = -1 flips the spectrum; the dominant image picks the other root
        est = root_via_shift(QUADRATIC, AffineShift(-2, -1))
        assert est.converged
        assert abs(float(est.value) - (-1 + SQRT2)) < 1e-9

    def test_linear(self):
        est = root_via_shift(make_polynomial([1, 7]), AffineShift(3, 2))
        assert est.converged
        assert est.value == -7

    @pytest.mark.parametrize(
        "roots, shift, want",
        [
            # root 0's eigenvector (0, ..., 0, 1) gives samples nothing to
            # read: the first two returned 1 as converged, the next two ran
            # their whole budget
            ((0, 1, 2), (-5, 1), 0),
            ((0, 1, 2, 3), (-7, 2), 0),
            ((0, 7), (-5, 1), 0),
            ((0, 1, 1), (-1, 1), 0),
            ((0, 2, -1), (-5, 1), -1),
            ((0, 1, 2), (1, 1), 2),
        ],
    )
    def test_a_zero_root_is_reported_when_its_image_dominates(self, roots, shift, want):
        s = AffineShift(*shift)
        images = {r: abs(s.a + s.b * r) for r in roots}
        assert max(images, key=images.get) == want
        p = make_polynomial(_from_roots(roots))
        q = make_polynomial(_from_roots([r for r in roots if r]))
        est, on_q = root_via_shift(p, s), root_via_shift(q, s)
        assert est.status is RootStatus.CONVERGED and est.value == want
        assert (est.iterations, est.peak_bits, est.shift_used) == (
            on_q.iterations, on_q.peak_bits, s)
        if want == 0:
            assert (est.estimator, est.decimal_digits) == ("exact", EXACT_AGREEMENT)
        else:
            assert est == on_q

    def test_a_zero_root_whose_image_ties_reports_a_tie(self):
        # x (x - 10) under x - 5: the images -5 and 5
        est = root_via_shift(make_polynomial([1, -10, 0]), AffineShift(-5, 1))
        assert (est.status, est.decimal_digits) == (RootStatus.TIE_DETECTED, 0)


class TestZeroDenominatorSteps:
    """A step whose second component is 0 has no ratio, so it breaks every
    run of equal renderings.  In the runs of ``x^3 + x`` below every other
    step has none: no two samples are consecutive, so nothing is rendered
    and neither acceptance check is called.  The samples are constant, and
    each run ties, not raises, at its first checkpoint, the fortieth
    sample.  The two repeated-root calls would be such runs on ``p``; on
    its square-free part each ties at the same checkpoint."""

    @pytest.mark.parametrize(
        "coeffs, shift, steps",
        [
            # roots 0 and +-i: the cross ratio is exactly 0 on every other
            # step and undefined in between
            ([1, 0, 1, 0], None, 79),
            ([1, 0, 1, 0], (0, 2), 79),
            # (x+1)^2 (x^2+2x+2) under 3 + 3x, and (x+2)^2 (x^2+4x+8) under
            # 2 + x: on p the cross ratio would be exactly the double root on
            # every other step and undefined in between; on the square-free
            # part every step has a sample, 0 and -2 (-4) in turn, so no
            # two render equal and the fortieth is step 39
            ([1, 4, 7, 6, 2], (3, 3), 39),
            ([1, 8, 28, 48, 32], (2, 1), 39),
        ],
    )
    def test_zero_cross_ratio_between_undefined_steps_ties(self, coeffs, shift, steps):
        p = make_polynomial(coeffs)
        est = root_via_shift(p, AffineShift(*shift)) if shift else dominant_root(p)
        assert (est.status, est.iterations) == (RootStatus.TIE_DETECTED, steps)


class TestEnumerateRealRoots:
    def test_quadratic_pair(self):
        values = [float(e.value) for e in enumerate_real_roots(QUADRATIC)]
        assert len(values) == 2
        assert abs(values[0] - (-1 - SQRT2)) < 1e-10
        assert abs(values[1] - (-1 + SQRT2)) < 1e-10

    def test_cubic_single_real_root(self):
        values = [float(e.value) for e in enumerate_real_roots(CUBIC)]
        assert len(values) == 1
        assert abs(values[0] - CBRT2) < 1e-9

    def test_no_real_roots(self):
        assert enumerate_real_roots(make_polynomial([1, 0, 1])) == []

    def test_interior_root_is_found(self):
        # (x-1)(x+1)(x+2): -1 is inside the hull of the root set, so no
        # affine shift can make it dominant; the bracket pass must find it
        p = make_polynomial([1, 2, -1, -2])
        values = [float(e.value) for e in enumerate_real_roots(p)]
        assert len(values) == 3
        for got, want in zip(values, (-2.0, -1.0, 1.0)):
            assert abs(got - want) < 1e-8

    def test_zero_roots_are_deflated(self):
        p = make_polynomial([1, 0, -1, 0])  # x(x-1)(x+1)
        roots = enumerate_real_roots(p)
        values = [float(e.value) for e in roots]
        assert len(values) == 3
        for got, want in zip(values, (-1.0, 0.0, 1.0)):
            assert abs(got - want) < 1e-8
        zero = roots[1]
        assert zero.value == 0
        assert zero.estimator == "exact"

    def test_pure_power_of_x(self):
        roots = enumerate_real_roots(make_polynomial([1, 0, 0, 0]))  # x^3
        assert [e.value for e in roots] == [0]

    def test_linear(self):
        roots = enumerate_real_roots(make_polynomial([1, 9]))
        assert [e.value for e in roots] == [-9]

    def test_results_sorted_and_deduped(self):
        p = make_polynomial([1, 2, -1, -2])
        values = [e.value for e in enumerate_real_roots(p)]
        assert values == sorted(values)
        for a, b in zip(values, values[1:]):
            assert b - a > Fraction(1, 10**10)

    def test_four_separated_roots(self):
        # (x-3)(x-1)(x+2)(x+4) = x^4 + 2x^3 - 13x^2 - 14x + 24
        p = make_polynomial([1, 2, -13, -14, 24])
        values = [float(e.value) for e in enumerate_real_roots(p)]
        assert len(values) == 4
        for got, want in zip(values, (-4.0, -2.0, 1.0, 3.0)):
            assert abs(got - want) < 1e-8

    def test_run_budget_too_small_still_certifies(self):
        # a round's first two products from e_1 give its first two samples;
        # once the bracket has narrowed enough, the second one's mapped-back
        # root passes the certificate
        roots = enumerate_real_roots(QUADRATIC, DriverOptions(max_iters=2))
        assert [e.estimator for e in roots] == ["cross-ratio", "cross-ratio"]
        assert abs(float(roots[0].value) - (-1 - SQRT2)) < 1e-10
        assert abs(float(roots[1].value) - (-1 + SQRT2)) < 1e-10

    def test_bracket_centre_is_reported_when_no_sample_is_admitted(self, monkeypatch):
        # with the render prefilter admitting no sample, no run keeps a
        # value: each bracket of x^2-2 is bisected until its centre is
        # certified, after nine runs of 4 * 12 + 2 * TIE_SPAN = 88 steps
        monkeypatch.setattr(driver, "_may_render_equal", lambda *args: False)
        q = make_polynomial([1, 0, -2])
        intervals = _isolate(q)[1]
        assert len(intervals) == 2
        for bracket in intervals:
            est = extract_bracket(q, *bracket, DriverOptions())
            assert (est.status, est.estimator, est.iterations) == (
                RootStatus.CONVERGED, "bisection", 792)
            assert _certified_by_signs(q, est.value, 12)

    def test_high_degree_rounds_sample_from_their_first_product(self):
        # 2*T_40(x/2): forty real roots clustered at the ends of (-2, 2).  A
        # round samples from its first product from e_1; making the m - 1 = 39
        # products first would widen its integers to 20680 bits
        q = chebyshev(40)
        got = enumerate_real_roots(q, DriverOptions(target_digits=12))
        assert len(got) == 40
        assert all(e.status is RootStatus.CONVERGED for e in got)
        assert all(_certified_by_signs(q, e.value, 12) for e in got)
        assert max(e.peak_bits for e in got) <= 4096

    def test_mixed_real_and_complex(self):
        # (x-2)(x^2+x+1): one real root among a complex pair
        p = make_polynomial([1, -1, -1, -2])
        values = [float(e.value) for e in enumerate_real_roots(p)]
        assert len(values) == 1
        assert abs(values[0] - 2.0) < 1e-9


X = sympy.Symbol("x")

#: Multiple roots, integer roots, close pairs and large coefficients.
HARD_SET = {
    "(x-1)^2": [1, -2, 1],
    "(x-2)^3": [1, -6, 12, -8],
    "(x-1)^2(x+3)": [1, 1, -5, 3],
    "(x-1)(x-2)(x-3)(x-4)": [1, -10, 35, -50, 24],
    "wilkinson-8": [1, -36, 546, -4536, 22449, -67284, 118124, -109584, 40320],
    "x^2-2001x+1001000": [1, -2001, 1001000],
    "x^4-200x^2+40x-2": [1, 0, -200, 40, -2],
    # each once reported one root twice, 1e-10 apart
    "x^4-4x^3+4x^2-8x-9": [1, -4, 4, -8, -9],
    "x^4+8x^3-7x^2-x-8": [1, 8, -7, -1, -8],
    # once reported 3 twice and 1 as 0.999999999998
    "(x-1)(x-2)(x-3)": [1, -6, 11, -6],
}
HARD_CASE_SECONDS = 1.0


def assert_exact_real_roots(
    coeffs: list[int], got: list, digits: int = DriverOptions().target_digits
) -> None:
    """``got`` holds exactly the distinct real roots of ``coeffs``.

    Integer roots (the only rational ones of a monic polynomial) must come
    out exact.  Any other value must change the sign of the square-free
    part across value +- |value| * 10^-digits, with the root in between.
    """
    poly = sympy.Poly(coeffs, X)
    want = sorted(set(poly.real_roots()))
    assert len(got) == len(want), (coeffs, [e.decimal() for e in got])
    square_free = make_polynomial([int(c) for c in poly.sqf_part().monic().all_coeffs()])
    for est, root in zip(got, want):
        value = est.value
        if root.is_Integer:
            assert value == int(root), coeffs
            continue
        delta = abs(value) / 10**digits
        off = sympy.N(root - sympy.Rational(value.numerator, value.denominator), 60)
        assert abs(off) <= sympy.Rational(delta.numerator, delta.denominator), coeffs
        below = eval_rational(square_free, value - delta)
        above = eval_rational(square_free, value + delta)
        assert below * above < 0, coeffs


class TestEnumerationHardSet:
    """Each case well under HARD_CASE_SECONDS, so the block under 10 s."""

    @pytest.mark.parametrize("coeffs", HARD_SET.values(), ids=HARD_SET.keys())
    def test_exact_distinct_real_roots(self, coeffs):
        started = time.perf_counter()
        got = enumerate_real_roots(make_polynomial(coeffs))
        assert time.perf_counter() - started < HARD_CASE_SECONDS
        assert_exact_real_roots(coeffs, got)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        linear=st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 3)), max_size=3),
        tail=st.lists(st.integers(-20, 20), max_size=5),
    )
    def test_matches_sympy(self, linear, tail):
        # a random monic factor times repeated linear factors
        coeffs = [1, *tail]
        for root, multiplicity in linear:
            for _ in range(multiplicity):
                coeffs = [a - root * b for a, b in zip(coeffs + [0], [0] + coeffs)]
        if len(coeffs) > 1:
            assert_exact_real_roots(coeffs, enumerate_real_roots(make_polynomial(coeffs)))


def _sign(x) -> int:
    return (x > 0) - (x < 0)


class TestIntegerCertificate:
    """``_certified`` in integers decides as its ``Fraction`` form would."""

    @staticmethod
    def reference(q, r: Fraction, lo: Fraction, hi: Fraction, s_lo: int, digits: int) -> bool:
        delta = abs(r) / 10**digits
        a, b = r - delta, r + delta
        root_above_a = a <= lo or _sign(eval_rational(q, a)) != -s_lo
        root_below_b = b >= hi or _sign(eval_rational(q, b)) != s_lo
        return root_above_a and root_below_b

    @staticmethod
    def near_root(q, lo: Fraction, hi: Fraction, s_lo: int, bits: int) -> Fraction:
        """The bracket's root to ``bits`` halvings, by Fraction bisection."""
        for _ in range(bits):
            mid = (lo + hi) / 2
            s = _sign(eval_rational(q, mid))
            if s == 0:
                return mid
            if s == s_lo:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        tail=st.lists(st.integers(-20, 20), min_size=2, max_size=7),
        digits=st.integers(1, 30),
        # r = root * (1 + t * 10^-digits): the certificate's edge is |t| = 1
        offsets=st.lists(st.fractions(-3, 3, max_denominator=40), min_size=1, max_size=3),
        # r = lo + (hi - lo) * e * 10^-digits, and as far from hi
        edge=st.fractions(0, 3, max_denominator=40),
        inside=st.fractions(0, 1, max_denominator=1000),
        factor=st.integers(1, 6),
    )
    def test_matches_fraction_reference(self, tail, digits, offsets, edge, inside, factor):
        q = _square_free(make_polynomial([1, *tail]))
        if q.degree < 2:
            return
        exact, intervals = _isolate(q)
        for x in exact:
            assert eval_rational(q, x) == 0
        for lo, hi, k, s_lo in intervals:
            left, right = Fraction(lo, 1 << k), Fraction(hi, 1 << k)
            assert lo < hi and _sign(eval_rational(q, left + (right - left) / 10**9)) in (s_lo, 0)
            root = self.near_root(q, left, right, s_lo, 4 * digits + 40)
            step = (right - left) * edge / 10**digits
            points = [root * (1 + t / 10**digits) for t in offsets]
            points += [left + step, right - step, left + (right - left) * inside]
            for r in points:
                if not left < r < right:
                    continue
                # num/den need not be in lowest terms
                num, den = r.numerator * factor, r.denominator * factor
                got = _certified(q, num, den, lo, hi, k, s_lo, digits)
                assert got == self.reference(q, r, left, right, s_lo, digits)

    def test_decides_both_ways(self):
        # x^2 + 2x - 1 has the root sqrt(2) - 1 = 0.41421356237309504880...
        q = QUADRATIC
        _, intervals = _isolate(q)
        (lo, hi, k, s_lo), = [i for i in intervals if i[0] >= 0]
        assert _certified(q, 414213562373095, 10**15, lo, hi, k, s_lo, 12)
        assert not _certified(q, 414213562374, 10**12, lo, hi, k, s_lo, 12)

    @pytest.mark.parametrize("positive", [True, False])
    @pytest.mark.parametrize("side", [1, -1])
    @pytest.mark.parametrize("inside", [True, False])
    def test_root_next_to_an_exact_end_is_decided_there(
        self, positive, side, inside, monkeypatch
    ):
        # The root lies 2^-40 of the certificate's half-width inside (or
        # outside) its left (side 1) or right (side -1) end.  The short point
        # of that side lies between the end and r, here beyond the root, so
        # its sign leaves the side open and the exact end decides.  The other
        # side is decided at its short point alone.
        q, digits = QUADRATIC, 12
        _, intervals = _isolate(q)
        (lo, hi, k, s_lo), = [i for i in intervals if (i[0] >= 0) == positive]
        left, right = Fraction(lo, 1 << k), Fraction(hi, 1 << k)
        root = self.near_root(q, left, right, s_lo, 300)
        t = Fraction(1, 10**digits)
        eps = abs(root) * t / 2**40 * (1 if inside else -1)
        # the end r - side * |r| * t sits at root - side * eps
        r = (root - side * eps) / (1 - side * t if positive else 1 + side * t)
        num, den, scale = r.numerator, r.denominator, 10**digits
        ends = {s: (num * scale - s * abs(num), den * scale) for s in (1, -1)}
        assert _sign(eval_rational(q, Fraction(*ends[side]))) == (
            side * s_lo if inside else -side * s_lo
        )
        points = []

        def spy(poly, u, v):
            points.append((u, v))
            return eval_homogeneous(poly, u, v)

        monkeypatch.setattr(driver, "eval_homogeneous", spy)
        got = _certified(q, num, den, lo, hi, k, s_lo, digits)
        assert got is inside
        assert got == self.reference(q, r, left, right, s_lo, digits)
        assert ends[side] in points
        if inside:
            assert ends[-side] not in points

    @pytest.mark.parametrize(
        "coeffs, lo, hi, k, s_lo, want",
        [
            # x^2 + x - 1 is -1 at 0, below its root 0.618 in (-1, 1)
            ([1, 1, -1], -1, 1, 0, -1, False),
            # x^2 + x has the root 0 in (-1/2, 1/2)
            ([1, 1, 0], -1, 1, 1, -1, True),
        ],
    )
    def test_zero_numerator(self, coeffs, lo, hi, k, s_lo, want):
        # r = 0: both ends and both short points are 0 itself
        q = make_polynomial(coeffs)
        left, right = Fraction(lo, 1 << k), Fraction(hi, 1 << k)
        assert _certified(q, 0, 7, lo, hi, k, s_lo, 12) is want
        assert self.reference(q, Fraction(0), left, right, s_lo, 12) is want

    @given(u=st.integers(-(2**70), 2**70), k=st.integers(0, 80))
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_lowest_terms(self, u, k):
        num, den = _lowest_terms(u, k)
        assert Fraction(num, den) == Fraction(u, 1 << k)
        assert den == Fraction(u, 1 << k).denominator


class TestTieBlocks:
    """The integer tie test decides as max - min over Fractions would."""

    @staticmethod
    def spread(block: list[tuple[int, int]]) -> tuple[int, int]:
        """``max - min`` of ``block`` as ``(num, den)``, written with the
        newest of equal largest and of equal smallest samples."""
        index = range(len(block))
        a, b = block[max(index, key=lambda i: (Fraction(*block[i]), i))]
        c, e = block[max(index, key=lambda i: (-Fraction(*block[i]), i))]
        return a * e - c * b, b * e

    # small numerators and denominators times a common factor: repeats, equal
    # values written differently, negatives and zero
    small = st.builds(
        lambda n, d, k: (n * k, d * k),
        st.integers(-4, 4), st.integers(1, 3), st.integers(1, 3),
    )
    large = st.tuples(st.integers(-(10**30), 10**30), st.integers(1, 10**30))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(block=st.lists(st.one_of(small, large), min_size=1, max_size=2 * TIE_SPAN))
    def test_spread_matches_fraction_max_min(self, block):
        num, den = driver._spread(block)
        values = [Fraction(n, d) for n, d in block]
        assert den > 0 and Fraction(num, den) == max(values) - min(values)
        assert (num, den) == self.spread(block)

    def test_run_decides_at_every_checkpoint(self):
        # x^3 - x^2 + 3x + 3: a complex pair of modulus 2.05 dominates.  Every
        # step has a sample, no handover finds a bracket, and the run decides
        # at samples 40, 60, 80 and 100 that it does not tie, then ties at
        # sample 120, after 119 steps.  Each verdict, and each pair of spreads
        # handed over, is that of max - min over the run's own samples.
        with mock.patch.object(driver, "_hand_over", wraps=driver._hand_over) as hand_over:
            est, pairs = _run_pairs(make_polynomial([1, -1, 3, 3]), IDENTITY_SHIFT, DriverOptions())
        assert (est.status, est.iterations) == (RootStatus.TIE_DETECTED, 119)
        samples = [(n, d) if d > 0 else (-n, -d) for n, d in pairs]
        assert len(samples) == 120 and all(d for _, d in samples)
        assert est.value == Fraction(*samples[-1])

        def width(block):
            values = [Fraction(n, d) for n, d in block]
            return max(values) - min(values)

        checkpoints = range(2 * TIE_SPAN, len(samples) + 1, TIE_SPAN)
        verdicts = [
            width(samples[k - TIE_SPAN : k]) >= width(samples[k - 2 * TIE_SPAN : k - TIE_SPAN])
            for k in checkpoints
        ]
        assert list(checkpoints) == [40, 60, 80, 100, 120]
        assert verdicts == [False, False, False, False, True]
        assert [call.args[2:] for call in hand_over.call_args_list] == [
            (samples[k - 1], self.spread(samples[k - TIE_SPAN : k]),
             self.spread(samples[k - 2 * TIE_SPAN : k - TIE_SPAN]))
            for k in checkpoints[:-1]
        ]


def _residual_ok_fraction(p, r, target_digits):
    """``_residual_ok`` as it was, in ``Fraction`` arithmetic: the reference
    for its integer inequality."""
    half = max(1, target_digits // 2)
    res = abs(eval_rational(p, r))
    scale = max(Fraction(1), abs(r)) ** p.degree
    return res * 10**half < scale


def _successive_ok_fraction(family, value, target_digits):
    """``_successive_ok`` in ``Fraction`` arithmetic: the step ratio of
    sequence 1 lies within the tolerance of the shifted value."""
    expected = family.shift.apply(value)
    tol = Fraction(1, 10 ** max(0, target_digits - 2))
    return abs(family.successive_ratio(1) - expected) <= tol


class TestIntegerAcceptanceChecks:
    """The residual and successive verdicts decide as their ``Fraction``
    forms."""

    coeffs = st.lists(st.integers(-30, 30), min_size=1, max_size=5)
    rationals = st.fractions(max_denominator=10**12).filter(lambda r: abs(r) < 10**9)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(tail=coeffs, r=rationals, digits=st.integers(1, 40))
    def test_residual_matches_fraction_reference(self, tail, r, digits):
        p = make_polynomial([1, *tail])
        assert driver._residual_ok(p, r, digits) == _residual_ok_fraction(p, r, digits)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        k=st.builds(lambda s, w, e: s * w * 10**e, st.sampled_from([1, -1]),
                    st.integers(1, 9), st.integers(1, 3)),
        g=st.lists(st.integers(-20, 20), min_size=0, max_size=3),
        data=st.data(),
    )
    def test_residual_at_the_equality_edge(self, k, g, data):
        # p = (x - k) * g(x) + R with |R| at, just below or just above the
        # bound |k|^m / 10^half, so |p(k)| * 10^half meets |k|^m exactly
        m = len(g) + 1
        half = data.draw(st.integers(1, m * (len(str(abs(k))) - 1)))
        digits = data.draw(st.sampled_from([2 * half, 2 * half + 1]))
        bound = abs(k) ** m // 10**half
        R = data.draw(st.sampled_from([1, -1])) * (bound + data.draw(st.sampled_from([-1, 0, 1])))
        desc = [1, *g, 0]
        for i in range(m, 0, -1):
            desc[i] -= k * desc[i - 1]
        desc[-1] += R
        p = make_polynomial(desc)
        assert p.degree == m and eval_rational(p, k) == R
        r = Fraction(k)
        assert driver._residual_ok(p, r, digits) == _residual_ok_fraction(p, r, digits)
        assert driver._residual_ok(p, r, digits) == (abs(R) < bound)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        tail=st.lists(st.integers(-9, 9), min_size=2, max_size=4),
        shift=st.tuples(st.integers(-5, 5), st.integers(-3, 3).filter(bool)),
        steps=st.integers(0, 30),
        digits=st.integers(1, 30),
        offset=st.one_of(
            st.sampled_from([-1, 1]),
            st.fractions(min_value=-2, max_value=2),
            st.builds(lambda s, e: s * (1 + Fraction(1, 10**e)),
                      st.sampled_from([-1, 1]), st.integers(3, 40)),
        ),
    )
    def test_successive_matches_fraction_reference(self, tail, shift, steps, digits, offset):
        # the value is placed ``offset`` tolerances from the step ratio's
        # preimage: +-1 lands exactly on the edge |got - expected| = tol.
        # A run of degree 2 or more checks only when sequence 1 was nonzero
        # at the step before, so sequence 1 has a step ratio.
        s = AffineShift(*shift)
        family = SequenceFamily(make_polynomial([1, *tail]), shift=s)
        family.run_to(family.j + steps)
        assume(family.vector(family.j - 1)[0] != 0)
        tol = Fraction(1, 10 ** max(0, digits - 2))
        got = family.successive_ratio(1)
        value = (got + offset * tol - s.a) / s.b
        assert driver._successive_ok(family, s, value, digits) is (
            _successive_ok_fraction(family, value, digits)
        )

    def test_successive_decides_both_ways_at_the_edge(self):
        s = AffineShift(2, 1)
        family = SequenceFamily(QUADRATIC, shift=s)
        family.run_to(12)
        got = family.successive_ratio(1)
        tol = Fraction(1, 10**10)
        on_edge = got + tol - 2
        assert driver._successive_ok(family, s, on_edge, 12)
        assert _successive_ok_fraction(family, on_edge, 12)
        beyond = on_edge + Fraction(1, 10**30)
        assert not driver._successive_ok(family, s, beyond, 12)
        assert not _successive_ok_fraction(family, beyond, 12)

    def test_a_zero_first_component_leaves_nothing_to_contradict(self):
        # x (x^4 - 3x^3 + 3x^2 - x + 2) under -2 + 2x: x_j is 0 at steps 5,
        # 6 and 7 and y_j is not, so three samples settle on the root 0.  The
        # step ratio after x_6 = 0 is y_7 / y_6 = a = -2 exactly, which 0
        # agrees with; the family of shift_scale(p, s) would offer x_5 / x_4
        # = 0 / 1024 instead, and the run would go on to a tie at step 43.
        p = make_polynomial([1, -3, 3, -1, 2, 0])
        s = AffineShift(-2, 2)
        family = SequenceFamily(p, shift=s)
        family.run_to(11)
        assert family.current[:2] == (0, 8192) and family.vector(10)[:2] == (0, -4096)
        assert family.successive_ratio(2) == s.a
        est = driver._single_root(p, s, DriverOptions())
        assert (est.value, est.status, est.iterations, est.estimator) == (
            0, RootStatus.CONVERGED, 7, "cross-ratio")
        # root_via_shift runs on the quartic instead, whose complex pair near
        # -0.14 +- 0.76i has the image modulus 2.75, above root 0's 2
        assert root_via_shift(p, s).status is RootStatus.TIE_DETECTED


    def test_a_rejected_rendering_is_checked_once(self, monkeypatch):
        # every settled value of x^2+2x-1 fails the residual here: the first
        # is checked once and remembered, and the run is handed over at its
        # first tie checkpoint
        checked = []

        def reject(p, value, digits):
            checked.append(value)
            return False

        monkeypatch.setattr(driver, "_residual_ok", reject)
        with handovers() as calls:
            est = dominant_root(QUADRATIC)
        assert len(checked) == 1
        assert len(calls) == 1
        assert (est.status, est.iterations, est.decimal()) == (
            RootStatus.CONVERGED, 41, "-2.41421356237")


def _run_pairs(p, s, opts):
    """``_single_root(p, s, opts)``, the run of ``root_via_shift``, and the
    pair ``(x_j, y_j)`` it reads at each step: the locals ``vec[0]`` and
    ``y`` on the line where it takes its sample, read by a line tracer on
    the outermost call's frame."""
    code = driver._single_root.__code__
    lines, first = inspect.getsourcelines(driver._single_root)
    target = first + next(i for i, line in enumerate(lines) if "n, d = vec[0], y" in line)
    pairs = []
    frames = []

    def on_line(frame, event, arg):
        if event == "line" and frame.f_lineno == target and frame is frames[0]:
            pairs.append((frame.f_locals["vec"][0], frame.f_locals["y"]))
        return on_line

    def on_call(frame, event, arg):
        if frame.f_code is not code:
            return None
        frames.append(frame)
        return on_line

    before = sys.gettrace()
    sys.settrace(on_call)
    try:
        est = driver._single_root(p, s, opts)
    finally:
        sys.settrace(before)
    return est, pairs


class TestShiftedRun:
    """A shifted run steps the scalar recurrence of ``shift_scale(p, s)`` and
    carries ``y``; it reads the first two components of ``(a*I + b*C)^j e_1``
    all the same."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        tail=st.integers(2, 10).flatmap(
            lambda m: st.lists(st.integers(-9, 9), min_size=m, max_size=m)),
        a=st.integers(-6, 6),
        b=st.sampled_from([1, -1, 2, -2, 3]),
    )
    def test_reads_the_first_two_components_at_every_step(self, tail, a, b):
        p = make_polynomial([1, *tail])
        s = AffineShift(a, b)
        if not any(shift_scale(p, s).coeffs):
            return  # nilpotent: a call returns r from the linear square-free part
        # no tie checkpoint within the 61 samples, and so no handover: only an
        # exact sample, which renders short, settles at 1000 digits before
        # the 60th step
        with mock.patch.object(driver, "TIE_SPAN", 31):
            est, pairs = _run_pairs(p, s, DriverOptions(target_digits=1000, max_iters=60))
        assert est.iterations == 60 or est.status is RootStatus.CONVERGED
        family = SequenceFamily(p, shift=s, keep_history=True)
        want = [family.current[:2]] + [family.step()[:2] for _ in range(est.iterations)]
        assert pairs == want
        # peak bits: the start vectors S_0 .. S_(m-1), then every x and y
        computed = [*(family.vector(j) for j in range(len(tail))), *want]
        assert est.peak_bits == max(c.bit_length() for v in computed for c in v)


class TestRenderingComparison:
    """Renderings compare as strings first and as numbers only if they differ."""

    @pytest.mark.parametrize(
        "x, y, equal",
        [
            ("3", "3.00000000000", True),
            ("2.5", "2.50000000000", True),
            ("3.00000000000", "3", True),
            ("3", "3.00000000001", False),
            ("2.5", "2.49999999999", False),
            ("1.41421356237", "1.41421356237", True),
            ("1.41421356237", None, False),
        ],
    )
    def test_equal_numbers_written_differently(self, x, y, equal):
        assert driver._renders_equal(x, y) is equal

    def test_an_exact_sample_renders_short_and_its_neighbour_long(self):
        short = decimal_string(Fraction(5, 2), 12)
        long = decimal_string(Fraction(5 * 10**13 + 1, 2 * 10**13), 12)
        assert (short, long) == ("2.5", "2.50000000000")
        assert driver._renders_equal(short, long)


class TestRenderPrefilter:
    """A pair the prefilter rejects never renders equal."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        digits=st.integers(1, 40),
        n=st.integers(-(10**6), 10**6),
        d=st.integers(1, 10**6),
        power=st.integers(0, 45),
        nudge=st.integers(-50, 50),
    )
    def test_never_skips_equal_renderings(self, digits, n, d, power, nudge):
        # y is x moved by nudge / (d * 10^power): near x, often rendering equal
        x = (n, d)
        y = (n * 10**power + nudge, d * 10**power)
        scale = 10 ** (digits - 1)
        rendered = [Decimal(decimal_string(Fraction(*v), digits)) for v in (x, y)]
        if rendered[0] == rendered[1]:
            assert _may_render_equal(*x, *y, scale)
            assert _may_render_equal(*y, *x, scale)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        digits=st.integers(1, 40),
        lowest=st.booleans(),
        mantissa=st.integers(0, 10**40),
        exponent=st.integers(-30, 30),
        offsets=st.lists(
            st.one_of(
                st.sampled_from([Fraction(-1, 2), Fraction(1, 2)]),
                st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(1, 2)),
            ),
            min_size=2, max_size=2,
        ),
        sign=st.sampled_from([1, -1]),
    )
    def test_never_skips_equal_renderings_at_the_rounding_edges(
        self, digits, lowest, mantissa, exponent, offsets, sign
    ):
        # x and y within half a unit of one D-digit rendering r: up to one
        # unit apart, and with the smallest mantissa as far apart as |r| allows
        low = 10 ** (digits - 1)
        m = low if lowest else low + mantissa % (9 * low)
        unit = Fraction(10) ** exponent
        x, y = (sign * (m + t) * unit for t in offsets)
        pairs = [(v.numerator, v.denominator) for v in (x, y)]
        rendered = [Decimal(decimal_string(v, digits)) for v in (x, y)]
        if rendered[0] == rendered[1]:
            assert _may_render_equal(*pairs[0], *pairs[1], 10 ** (digits - 1))

    def test_rejects_far_apart_samples(self):
        assert not _may_render_equal(3, 2, 7, 5, 10**11)
        assert _may_render_equal(3, 1, 3 * 10**12 + 1, 10**12, 10**11)


class TestRegressionPins:
    """Step counts and decisions that the integer inner loop must keep.

    Past 12 digits, and in the long runs below, a run is handed over to the
    certified extraction at its first checkpoint, the 40th sample; the
    counts include the extraction's steps.
    """

    @pytest.mark.parametrize(
        "digits, steps", [(12, 39), (30, 43), (60, 45), (120, 49)]
    )
    def test_cube_root_via_shift_steps(self, digits, steps):
        est = root_via_shift(CUBIC, AffineShift(1, 1), DriverOptions(target_digits=digits))
        assert est.status is RootStatus.CONVERGED
        assert est.iterations == steps

    def test_unshifted_cube_root_ties_after_119_steps(self):
        est = dominant_root(CUBIC)
        assert est.status is RootStatus.TIE_DETECTED
        assert est.iterations == 119

    def test_tie_between_checkpoints_is_not_reported(self):
        # under x -> x - 4 the root -0.5118 and a complex pair have images
        # of moduli 4.512 and 4.294.  Samples 22-41 spread wider than 2-21,
        # but the blocks that end at the checkpoints (samples 40, 60, ...)
        # contract, so the run is handed over and certified
        p = make_polynomial([1, -8, 4, -3, 8, 6])
        est = root_via_shift(p, AffineShift(-4, 1))
        assert (est.status, est.iterations) == (RootStatus.CONVERGED, 104)
        assert est.decimal() == "-0.511774915115"
        root = Fraction("-0.5117749151150427776140")
        assert abs(est.value - root) <= abs(root) / 10**12

    @pytest.mark.parametrize(
        "coeffs, shift, rendered, steps, bits",
        [
            # the root is -0.58826039542853...: the linear run used to settle
            # on -0.588260395423
            ([1, -7, 6, 5, 0, -3, -2], (-3, 1), "-0.588260395429", 44, 290),
            ([1, -2, -8, 1, 4, 9, 6], (-1, 1), "-2.04017544283", 46, 223),
            ([1, -1, 1, -1, -2], None, "1.44685724791", 48, 126),
            # the root is -3.092384161748...: the linear run used to settle
            # on -3.09238416176 after 75 steps
            ([1, 4, 1, -3, 8], None, "-3.09238416175", 42, 246),
        ],
    )
    def test_long_runs_keep_steps_and_peak_bits(self, coeffs, shift, rendered, steps, bits):
        p = make_polynomial(coeffs)
        est = root_via_shift(p, AffineShift(*shift)) if shift else dominant_root(p)
        assert est.status is RootStatus.CONVERGED
        assert (est.decimal(), est.iterations, est.peak_bits) == (rendered, steps, bits)

    def test_fast_run_hands_over_at_its_first_checkpoint(self):
        # images 1 + sqrt(2) and 1 - sqrt(2): each step earns 0.77 digits, and
        # the linear run used to take 223 steps to settle at 170 digits
        est = _run([1, 0, -2], (1, 1), 170)
        assert (est.status, est.iterations) == (RootStatus.CONVERGED, 46)

    def test_wide_bracket_degree_11_at_30_digits(self):
        # (x+19)(x+20)^2(x+10)^3 (x^5+32x^4-6x^3-23x^2-23x-39): a wide first
        # bracket, where failed extraction rounds once dominated.  Extraction
        # takes no spread: a round ends on a kept sample or its budget
        coeffs = [1, 121, 6072, 163903, 2568750, 23317024, 112386939, 206423730,
                  -141707900, -278685000, -308960000, -296400000]
        with mock.patch.object(driver, "_spread", side_effect=AssertionError):
            got = enumerate_real_roots(make_polynomial(coeffs), DriverOptions(target_digits=30))
        assert [(e.estimator, e.iterations, e.peak_bits) for e in got] == [
            ("cross-ratio", 21, 819),
            *[("exact", 0, 0)] * 3,
            ("cross-ratio", 28, 1113),
            ("cross-ratio", 464, 13484),
        ]
        assert_exact_real_roots(coeffs, got, digits=30)


@contextmanager
def handovers():
    """Record each ``_extract_bracket`` call a ``dominant_root`` or
    ``root_via_shift`` run hands over to, as ``(args, result)``."""
    calls = []

    def spy(*args):
        result = extract_bracket(*args)
        calls.append((args, result))
        return result

    with mock.patch.object(driver, "_extract_bracket", spy):
        yield calls


def _certified_by_signs(q, value: Fraction, digits: int) -> bool:
    """``value`` is a root of ``q``, or ``q`` changes sign across
    ``value -+ |value| * 10^-digits``."""
    if eval_rational(q, value) == 0:
        return True
    delta = abs(value) / 10**digits
    return eval_rational(q, value - delta) * eval_rational(q, value + delta) < 0


#: Runs that took 102 to 515 linear steps before the handover: long pins, the
#: x^3 - 2 ladder, and slow dominant-corpus calls (``x^4-8x^3-6x^2+9x+6`` has
#: the root -1), and one fast run, x^2 - 2 at 170 digits, that took 223.
SLOW_RUNS = [
    ([1, -7, 6, 5, 0, -3, -2], (-3, 1), 12),
    ([1, -2, -8, 1, 4, 9, 6], (-1, 1), 12),
    ([1, -1, 1, -1, -2], None, 12),
    ([1, 0, 0, -2], (1, 1), 30),
    ([1, 0, 0, -2], (1, 1), 120),
    ([1, -8, -6, 9, 6], (-4, 1), 12),
    ([1, -2, -4, -2, -5, -8, -9], (-2, 1), 12),
    ([1, -5, -4, 2, 1], (-3, 1), 12),
    ([1, -9, 4, -6, -1, 0, -8], (-5, 1), 12),
    ([1, 0, -2], (1, 1), 170),
]


def _run(coeffs, shift, digits=12):
    p = make_polynomial(coeffs)
    opts = DriverOptions(target_digits=digits)
    return root_via_shift(p, AffineShift(*shift), opts) if shift else dominant_root(p, opts)


class TestHandover:
    """Slow ``dominant_root``/``root_via_shift`` runs finish by extraction."""

    @pytest.mark.parametrize("coeffs, shift, digits", SLOW_RUNS)
    def test_handed_over_result_is_certified(self, coeffs, shift, digits):
        with handovers() as calls:
            est = _run(coeffs, shift, digits)
        assert len(calls) == 1
        (q, lo, hi, k, s_lo, opts), extracted = calls[0]
        assert q == _square_free(make_polynomial(coeffs))
        assert est.status is RootStatus.CONVERGED
        assert est.value == extracted.value
        assert est.estimator == extracted.estimator
        assert est.shift_used == (AffineShift(*shift) if shift else IDENTITY_SHIFT)
        assert est.iterations > extracted.iterations
        assert est.peak_bits >= extracted.peak_bits
        value = est.value
        if est.estimator != "exact":
            assert _certified(q, value.numerator, value.denominator, lo, hi, k, s_lo, digits)
        assert _certified_by_signs(q, value, digits)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        tail=st.lists(st.integers(-9, 9), min_size=2, max_size=6),
        shift=st.one_of(
            st.none(),
            st.tuples(st.integers(-5, 5), st.sampled_from([-2, -1, 1, 2])),
        ),
    )
    def test_converged_values_match_mpmath(self, tail, shift):
        coeffs = [1, *tail]
        if coeffs[-1] == 0:
            return
        a, b = shift or (0, 1)
        with mpmath.workdps(60):
            roots = mpmath.polyroots(coeffs, maxsteps=400, extraprec=200)
            images = sorted(roots, key=lambda r: -abs(a + b * r))
            if abs(a + b * images[0]) < 1.05 * abs(a + b * images[1]):
                return
            root = mpmath.re(images[0])
            with handovers() as calls:
                est = _run(coeffs, shift)
            if est.status is not RootStatus.CONVERGED:
                return
            off = abs(mpmath.mpf(est.value.numerator) / est.value.denominator - root)
            if calls:
                assert off <= abs(root) * mpmath.mpf(10) ** -12, (coeffs, shift)
            else:
                # a run that settles first is accepted on its renderings
                # and a residual, not on a certificate (ROADMAP item 1)
                assert off <= abs(root) * mpmath.mpf(10) ** -6, (coeffs, shift)

    @pytest.mark.parametrize("coeffs, shift", [([1, 3, -1, -7, -8], None), ([1, -4, -8], (-3, 1))])
    def test_run_agreeing_to_digits_minus_4_is_handed_over(self, coeffs, shift):
        # at the 40th sample (step 39) the last two agree to 8 digits; left
        # to settle, the runs took 52 and 49 steps
        with handovers() as calls:
            est = _run(coeffs, shift)
        assert len(calls) == 1
        (q, lo, hi, k, s_lo, _), extracted = calls[0]
        assert est.iterations - extracted.iterations == 39
        assert (est.status, est.iterations, est.estimator) == (
            RootStatus.CONVERGED, 41, "cross-ratio")
        assert _certified(q, est.value.numerator, est.value.denominator, lo, hi, k, s_lo, 12)

    def test_extraction_runs_on_its_own_budget(self):
        # max_iters bounds the linear phase and, separately, the extraction
        # it hands over to, so the two together may pass max_iters
        with handovers() as calls:
            est = root_via_shift(
                make_polynomial([1, -9, 6]), AffineShift(-4, 1), DriverOptions(max_iters=40)
            )
        assert len(calls) == 1
        assert (est.status, est.iterations) == (RootStatus.CONVERGED, 42)

    def test_equal_end_signs_grow_the_bracket_without_descartes(self, monkeypatch):
        # x^4-2x^3-x^2-8x-8: the first handover bracket has the same sign at
        # both ends and holds no root, so it grows; only the grown bracket,
        # whose ends differ in sign, gets a Descartes count
        built = []

        def spy(*args):
            built.append(args[1:])
            return on_unit_interval(*args)

        monkeypatch.setattr(driver, "_on_unit_interval", spy)
        with handovers() as calls:
            est = _run([1, -2, -1, -8, -8], None)
        assert len(calls) == 1
        (q, lo, hi, k, s_lo, _), _ = calls[0]
        assert built == [(lo, hi, k)]
        assert est.status is RootStatus.CONVERGED

    @pytest.mark.parametrize(
        "coeffs, shift",
        [
            ([1, 0, -4], None),
            ([1, 0, 0, -2], None),
            ([1, 2, -1], (1, 1)),
            # a complex pair dominates: without the gate h <= |c| on the
            # handover bracket, both return a wrong CONVERGED
            ([1, 1, 8, -4], (-2, 2)),
            ([1, 0, 8, 1], None),
        ],
    )
    def test_ties_stay_ties(self, coeffs, shift):
        with handovers() as calls:
            est = _run(coeffs, shift)
        assert est.status is RootStatus.TIE_DETECTED
        assert not calls

    @pytest.mark.parametrize(
        "coeffs, shift, value, steps, bits",
        [
            ([1, -1, -1], None, "1346269/832040", 29, 21),
            ([1, 6, -6, 6], None, "-37153068/5320979", 15, 48),
            ([1, -9, -3, -3, -3, -9], None, "468528802528/50058615109", 10, 46),
            ([1, -7, -1, 6, -2, -8, -4], None, "371100374430/52787297971", 12, 48),
            ([1, -6, 6], (-4, 1), "1956244/1542841", 22, 32),
            ([1, 3, -6, -1], (-1, 1), "-365129898127/84290370995", 18, 48),
            ([1, 9, 0, 8, 7, 6, 7], (-1, 1), "-57001544881807527/6271971935455835", 12, 57),
        ],
    )
    def test_runs_that_settle_first_are_unchanged(self, coeffs, shift, value, steps, bits):
        with handovers() as calls:
            est = _run(coeffs, shift)
        assert not calls
        assert (est.value, est.iterations, est.peak_bits) == (Fraction(value), steps, bits)


class TestRepeatedDominantRoot:
    """A repeated dominant root converges like 1/k, so a call runs on the
    square-free part from its first step; these once ran all 10000 steps
    and returned MAX_ITERS_EXCEEDED."""

    @pytest.mark.parametrize(
        "coeffs, shift, status, value, tol, steps",
        [
            # (x-3)^2 (x+1): settles on the square-free part's run
            ([1, -5, 3, 9], None, RootStatus.CONVERGED, 3, Fraction(1, 10**12), 26),
            # (x-2)^3: the square-free part is linear, so the root is exact
            ([1, -6, 12, -8], (1, 1), RootStatus.CONVERGED, 2, 0, 0),
            # (x-3)^2 (x+3): the square-free part x^2 - 9 ties
            ([1, -3, -9, 27], None, RootStatus.TIE_DETECTED, None, None, 78),
            # (x-3)^2 (x-2): the square-free part's run is handed over and
            # meets 3 exactly
            ([1, -8, 21, -18], None, RootStatus.CONVERGED, 3, 0, 39),
            # x^2 (x-2): the double root 0 dominates under x - 3, found from
            # x - 2 with its zero root divided out, before any step
            ([1, -2, 0, 0], (-3, 1), RootStatus.CONVERGED, 0, 0, 0),
        ],
    )
    def test_finishes_on_the_square_free_part(self, coeffs, shift, status, value, tol, steps):
        est = _run(coeffs, shift)
        assert est.status is status
        assert est.iterations == steps < 200
        assert est.shift_used == (AffineShift(*shift) if shift else IDENTITY_SHIFT)
        if value is not None:
            assert abs(est.value - value) <= value * tol

    @pytest.mark.parametrize(
        "coeffs, shift, value",
        [
            # each repeated root's image is the second largest: on p its
            # Jordan block would decay like k * gap^-k and make the run tie
            # at its first checkpoint
            ([1, -5, -30, 175, -125], None, "-5.85410196625"),  # (x-5)^2 (x^2+5x-5)
            ([1, 3, -42, 100, -72], (6, 2), -9),  # (x-2)^3 (x+9)
            ([1, 12, 39, -10, -150], (-6, -3), "1.64575131106"),  # (x+5)^2 (x^2+2x-6)
            ([1, 7, -12, -176, -320], None, 5),  # (x-5) (x+4)^3
            ([1, -6, -36, 216], (1, -2), -6),  # (x-6)^2 (x+6)
        ],
    )
    def test_a_repeated_root_below_the_dominant_one_does_not_tie(self, coeffs, shift, value):
        est = _run(coeffs, shift)
        assert est.status is RootStatus.CONVERGED
        if isinstance(value, int):
            assert (est.value, est.estimator) == (value, "exact")
        else:
            assert est.decimal() == value

    @pytest.mark.parametrize("max_iters", [1, 20, 38, 39, 40, 41, 60])
    def test_the_budget_bounds_the_square_free_run(self, max_iters):
        # (x-3)^2 (x-2) runs on (x-3)(x-2), whose 40th sample (step 39) is
        # handed over and meets 3 exactly; a smaller budget ends on the
        # square-free run's own last sample, with no digit certified
        p = make_polynomial([1, -8, 21, -18])
        est = dominant_root(p, DriverOptions(max_iters=max_iters))
        if max_iters < 39:
            assert (est.status, est.iterations, est.decimal_digits) == (
                RootStatus.MAX_ITERS_EXCEEDED, max_iters, 0)
            # a family starts at index 1, so step k of the run is index k + 1
            family = SequenceFamily(_square_free(p))
            family.run_to(max_iters + 1)
            assert est.value == family.cross_ratio(1)
        else:
            assert (est.status, est.value, est.iterations) == (RootStatus.CONVERGED, 3, 39)

    @pytest.mark.parametrize(
        "coeffs, steps, rendered",
        [
            # (x-3)^2 (x+1): the square-free run settles before its first
            # checkpoint
            ([1, -5, 3, 9], 26, "3.00000000000"),
            # (x-3)^2 (x+2): the square-free run reaches its first
            # checkpoint, where it is handed over and meets 3 exactly
            ([1, -4, -3, 18], 42, "3"),
        ],
    )
    def test_a_call_screens_for_repeated_roots_once(self, coeffs, steps, rendered):
        # before its first step, and not again at its checkpoints
        screened = []

        def spy(p):
            screened.append(p)
            return _square_free(p)

        with mock.patch.object(driver, "_square_free", spy):
            est = dominant_root(make_polynomial(coeffs))
        assert screened == [make_polynomial(coeffs)]
        assert (est.status, est.iterations, est.decimal()) == (
            RootStatus.CONVERGED, steps, rendered)

    @pytest.mark.parametrize("coeffs", [[1, 0, 0, -2], [1, -5, 3, 9], [1, -6, 12, -8]])
    def test_square_free_part(self, coeffs):
        p = make_polynomial(coeffs)
        q = _square_free(p)
        want = sympy.Poly(coeffs, X).sqf_part().monic().all_coeffs()
        assert list(q.with_leading()) == [int(c) for c in want]
        # a square-free polynomial comes back as it is, with no division
        assert (q is p) == (q.degree == p.degree)


class TestSquareFreeScreen:
    """``_square_free`` returns ``p`` itself when one evaluation
    (``_proved_square_free``) proves it square-free; every other ``p`` goes
    on to the remainder sequence, which returns a square-free ``p`` itself
    too."""

    def test_square_free_with_a_double_root_modulo_the_prime(self):
        # x (x - 32003) is x^2 modulo 32003: a gcd modulo that prime cannot
        # tell it from a square, one evaluation proves it square-free
        p = make_polynomial([1, -32003, 0])
        with mock.patch.object(driver, "_pseudo_divide", side_effect=AssertionError):
            assert _square_free(p) is p

    @pytest.mark.parametrize(
        "coeffs",
        [list(chebyshev(30).with_leading()), RANDOM_64],
        ids=["2*T_30(x/2)", "random-64"],
    )
    def test_high_degree_takes_no_remainder_sequence(self, coeffs):
        p = make_polynomial(coeffs)
        with mock.patch.object(driver, "_pseudo_divide", side_effect=AssertionError):
            assert _square_free(p) is p

    @pytest.mark.parametrize(
        "coeffs",
        [[1, -32003, 0], [1, 0, -2], [1, 0, 0, -2], list(chebyshev(20).with_leading())],
    )
    def test_an_unproved_square_free_p_comes_back_itself(self, coeffs, monkeypatch):
        # with the evaluation forced inconclusive, the remainder sequence
        # finds a constant gcd
        divisions = []
        pseudo_divide = driver._pseudo_divide

        def spy(a, b):
            divisions.append(len(b))
            return pseudo_divide(a, b)

        monkeypatch.setattr(driver, "_proved_square_free", lambda p: False)
        monkeypatch.setattr(driver, "_pseudo_divide", spy)
        p = make_polynomial(coeffs)
        assert _square_free(p) is p
        assert divisions

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        f=st.lists(st.integers(-20, 20), max_size=4),
        g=st.lists(st.integers(-20, 20), min_size=1, max_size=3),
    )
    def test_a_repeated_factor_is_never_proved_square_free(self, f, g):
        # the gcd of p(t) and p'(t) has the factor g(t), |g(t)| > t - R
        product = sympy.Poly([1, *f], X) * sympy.Poly([1, *g], X) ** 2
        p = make_polynomial([int(c) for c in product.all_coeffs()])
        assert not driver._proved_square_free(p)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        f=st.lists(st.integers(-9, 9), max_size=3),
        g=st.lists(st.integers(-9, 9), min_size=1, max_size=2),
        power=st.integers(1, 3),
    )
    def test_matches_sympy(self, f, g, power):
        # f * g^power: a repeated factor from power 2 on
        product = sympy.Poly([1, *f], X) * sympy.Poly([1, *g], X) ** power
        coeffs = [int(c) for c in product.all_coeffs()]
        p = make_polynomial(coeffs)
        q = _square_free(p)
        want = sympy.Poly(coeffs, X).sqf_part().monic().all_coeffs()
        assert list(q.with_leading()) == [int(c) for c in want]
        assert (q is p) == (q.degree == p.degree)


class TestDescartesTransform:
    """``_on_unit_interval`` makes ``P`` in one ``compose_affine`` call; it
    equals the two-step form: ``shift_scale`` onto ``2^k`` times the
    bracket, then a scaling by the width."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        coeffs=st.lists(st.integers(-50, 50), min_size=1, max_size=10),
        lo=st.integers(-(10**6), 10**6),
        width=st.integers(1, 10**6),
        k=st.integers(0, 40),
    )
    def test_matches_the_two_step_form(self, coeffs, lo, width, k):
        q = make_polynomial([1, *coeffs])
        mapped = shift_scale(q, AffineShift(-lo, 1 << k)).with_leading()
        m = q.degree
        old = [c * width ** (m - i) for i, c in enumerate(mapped)]
        assert on_unit_interval(q, lo, lo + width, k) == old


def _isolate_monomial(q: MonicIntPolynomial):
    """Descartes bisection in the monomial basis: the reference ``_isolate``
    must equal, list for list.  Each interval carries ``P`` itself, counts
    the sign variations of ``(x+1)^m P(1/(x+1))``, and splits into
    ``2^m P(x/2)`` and that polynomial shifted by 1, all by
    ``compose_affine``.  Returns the exact points, the intervals and the
    number of splits."""
    bound = 1 << (cauchy_bound(q) - 1).bit_length()
    width = 2 * bound

    def point(c, k):
        return width * c - (bound << k)

    def count(desc):
        signs = [c > 0 for c in compose_affine(desc[::-1], 1, 1, 1) if c != 0]
        return min(2, sum(x != y for x, y in zip(signs, signs[1:])))

    exact, intervals, splits = [], [], 0
    todo = [(compose_affine(q.with_leading(), 2 * bound, -bound, 1), 0, 0)]
    while todo:
        poly, c, k = todo.pop()
        n = count(poly)
        if n == 0:
            continue
        if n == 1:
            low = next(a for a in reversed(poly) if a != 0)
            intervals.append((point(c, k), point(c + 1, k), k, 1 if low > 0 else -1))
            continue
        splits += 1
        left = compose_affine(poly, 1, 0, 2)
        right = compose_affine(left, 1, 1, 1)
        if right[-1] == 0:
            exact.append(Fraction(point(2 * c + 1, k + 1), 1 << (k + 1)))
        todo.append((left, 2 * c, k + 1))
        todo.append((right, 2 * c + 1, k + 1))
    return exact, intervals, splits


#: Named isolation cases: the number of splits of each tree, and of roots
#: met exactly at a split point.
ISOLATION_CASES = {
    "2*T_20(x/2)": (list(chebyshev(20).with_leading()), 45, 0),
    # six of its roots are met exactly at split points
    "wilkinson-12": (_from_roots(range(1, 13)), 34, 6),
    # a close pair near 0.01
    "x^10-2(100x-1)^2": ([1] + [0] * 7 + [-20000, 400, -2], 55, 0),
}


def _isolate_counted(q: MonicIntPolynomial, splits: int):
    """``_isolate(q)`` and its number of splits, failing at once past
    ``splits`` of them: a wrong halving can make the tree endless."""
    halvings = []
    halves = driver._halves

    def split(b):
        halvings.append(len(b))
        assert len(halvings) <= splits, "more splits than the monomial form"
        return halves(b)

    with mock.patch.object(driver, "_halves", split):
        return _isolate(q), len(halvings)


class TestBernsteinIsolation:
    """``_isolate`` carries Bernstein coefficients and returns what the
    monomial form returns, in the same order, after as many splits, from
    two ``compose_affine`` calls a tree."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        b=st.lists(st.integers(-(10**6), 10**6), min_size=2, max_size=10),
        t=st.fractions(0, 1, max_denominator=50),
    )
    def test_halves_are_the_bernstein_coefficients_of_each_half(self, b, t):
        # B(x) = sum b_i C(m, i) x^i (1-x)^(m-i); the halves' coefficients
        # describe 2^m B(x/2) and 2^m B((1+x)/2)
        m = len(b) - 1

        def bernstein(coeffs, x):
            return sum(
                c * math.comb(m, i) * x**i * (1 - x) ** (m - i) for i, c in enumerate(coeffs)
            )

        left, right = driver._halves(b)
        assert bernstein(left, t) == 2**m * bernstein(b, t / 2)
        assert bernstein(right, t) == 2**m * bernstein(b, (1 + t) / 2)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(tail=st.lists(st.integers(-20, 20), min_size=2, max_size=12))
    def test_matches_the_monomial_form(self, tail):
        q = _square_free(make_polynomial([1, *tail]))
        if q.degree < 2:
            return
        exact, intervals, splits = _isolate_monomial(q)
        assert _isolate_counted(q, splits) == ((exact, intervals), splits)

    @pytest.mark.parametrize(
        "coeffs, splits, met", ISOLATION_CASES.values(), ids=ISOLATION_CASES.keys())
    def test_named_cases_match_the_monomial_form(self, coeffs, splits, met):
        q = make_polynomial(coeffs)
        assert _square_free(q) is q
        exact, intervals, made = _isolate_monomial(q)
        assert (made, len(exact)) == (splits, met)
        assert _isolate_counted(q, splits) == ((exact, intervals), splits)
        assert len(exact) + len(intervals) == len(sympy.Poly(coeffs, X).real_roots())

    @pytest.mark.parametrize("name", ["2*T_20(x/2)", "wilkinson-12"])
    def test_a_tree_makes_two_transforms(self, name):
        coeffs, splits, _ = ISOLATION_CASES[name]
        transforms = []
        original = driver.compose_affine

        def transform(*args):
            transforms.append(args[1:])
            return original(*args)

        with mock.patch.object(driver, "compose_affine", transform):
            _, made = _isolate_counted(make_polynomial(coeffs), splits)
        assert (len(transforms), made) == (2, splits)


class TestSeedCollapse:
    """The default seed reaches the zero vector only when the iteration
    matrix is nilpotent, ``p = (x-r)^m`` under a shift with ``a + b*r = 0``.
    The square-free part of such a ``p`` is ``x - r``, so the call returns
    ``r = -a/b`` exactly and never steps."""

    @pytest.mark.parametrize(
        "coeffs, shift",
        [
            ([1, 0, 0], None),  # x^2
            ([1, -6, 12, -8], (-2, 1)),  # (x-2)^3 under x -> x - 2
            ([1, 6, 9], (3, 1)),  # (x+3)^2 under x -> x + 3
        ],
    )
    def test_nilpotent_matrix_collapses_in_one_step(self, coeffs, shift):
        shift_used = AffineShift(*shift) if shift else IDENTITY_SHIFT
        family = SequenceFamily(make_polynomial(coeffs), shift=shift_used)
        family.step()
        assert not any(family.current)
        est = _run(coeffs, shift)
        root = Fraction(-shift_used.a, shift_used.b)
        assert (est.status, est.value, est.iterations) == (RootStatus.CONVERGED, root, 0)
        assert (est.estimator, est.decimal_digits) == ("exact", EXACT_AGREEMENT)
        assert est.shift_used == shift_used

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        r=st.integers(-20, 20),
        m=st.integers(1, 8),
        b=st.sampled_from([1, 2, 3, -1, -2, -5]),
    )
    def test_nilpotent_shift_returns_its_root_exactly(self, r, m, b):
        coeffs = [int(c) for c in sympy.Poly((X - r) ** m, X).all_coeffs()]
        est = _run(coeffs, (-b * r, b))
        assert (est.status, est.value, est.estimator, est.iterations) == (
            RootStatus.CONVERGED, r, "exact", 0,
        )

    @pytest.mark.parametrize(
        "coeffs, shift, status",
        [
            # trace 0 under the identity, but x^2 - 1 has roots 1 and -1
            ([1, 0, -1], None, RootStatus.TIE_DETECTED),
            # (x-1)(x-3) under x -> x - 2: trace 0, images -1 and 1
            ([1, -4, 3], (-2, 1), RootStatus.TIE_DETECTED),
            # x^3 - 3x + 1: trace 0, three real roots, -1.879 dominates
            ([1, 0, -3, 1], None, RootStatus.CONVERGED),
        ],
    )
    def test_zero_trace_alone_is_not_a_collapse(self, coeffs, shift, status):
        a, b = shift or (0, 1)
        assert (len(coeffs) - 1) * a == b * coeffs[1]
        est = _run(coeffs, shift)
        assert est.status is status
        assert est.iterations > 0


def _extraction_rounds(q, bracket, opts):
    """Run ``_extract_bracket`` on one bracket of ``q``; return its estimate
    and each round's recentred coefficient list, from the ``compose_affine``
    call that starts the round, with the products ``top . v`` it made, as
    ``(top, v)`` pairs read off its ``mul`` calls."""
    rounds = []
    compose = driver.compose_affine

    def recentre(*args):
        out = compose(*args)
        rounds.append((out, []))
        return out

    def product(x, y):
        rounds[-1][1].append((x, y))
        return x * y

    with (
        mock.patch.object(driver, "compose_affine", recentre),
        mock.patch.object(driver, "mul", product),
    ):
        est = extract_bracket(q, *bracket, opts)
    m = q.degree
    out = []
    for desc, factors in rounds:
        assert len(factors) % m == 0
        products = [tuple(zip(*factors[i:i + m])) for i in range(0, len(factors), m)]
        out.append((desc, products))
    return est, out


def _round_family(desc):
    """The reference family of a round whose recentred list is ``desc``: the
    reversed polynomial's, from ``e_1``, with every vector kept."""
    return SequenceFamily(
        reversed_monic(MonicIntPolynomial(tuple(desc[1:]))), keep_history=True
    )


def _round_peak(family, products):
    """The peak bits of a round that made ``products`` products from
    ``e_1``, read off its reference family: 1 for the seed, then each
    product's first component.  The family's own ``peak_bits`` also counts
    the ``m - 1`` products it makes on construction, which a round may not
    reach."""
    family.run_to(products)
    return max(family.vector(j)[0].bit_length() for j in range(products + 1))


class TestEstimateFields:
    def test_converged_digits_meet_target(self):
        opts = DriverOptions(target_digits=9)
        est = dominant_root(QUADRATIC, opts)
        assert est.decimal_digits >= 9

    def test_decimal_rendering(self):
        est = dominant_root(QUADRATIC)
        assert est.decimal(5) == "-2.4142"

    def test_extraction_reports_the_peak_of_every_round(self):
        # x^20 - 2(1000x - 1)^2: the root near -2.239 takes four extraction
        # runs, and the failed ones reach wider integers than the last
        q = make_polynomial([1] + [0] * 17 + [-2_000_000, 4000, -2])
        found = []
        for bracket in _isolate(q)[1]:
            est, rounds = _extraction_rounds(q, bracket, DriverOptions())
            # each round's peak is its reference family's over as many products
            peaks = [_round_peak(_round_family(desc), len(products)) for desc, products in rounds]
            assert est.peak_bits == max(peaks)
            found.append((est.value, est.decimal(), peaks[-1], len(peaks), est.peak_bits))
        assert min(found)[1:] == ("-2.23912721205", 1835, 4, 25149)

    def test_a_round_steps_the_reversed_companion_row_and_builds_no_polynomial(self):
        # x^10 - 2(100x - 1)^2 at 30 digits: a close pair, some rounds fail
        q = make_polynomial([1] + [0] * 7 + [-20000, 400, -2])
        opts = DriverOptions(target_digits=30)
        for bracket in _isolate(q)[1]:
            want = extract_bracket(q, *bracket, opts)
            with (
                mock.patch.object(SequenceFamily, "__init__", side_effect=AssertionError),
                mock.patch.object(IterationMatrix, "__init__", side_effect=AssertionError),
                mock.patch.object(MonicIntPolynomial, "__post_init__", side_effect=AssertionError),
                mock.patch.object(AffineShift, "__post_init__", side_effect=AssertionError),
            ):
                est, rounds = _extraction_rounds(q, bracket, opts)
            assert est == want
            assert rounds
            # every product of a round is the first row of the reversed
            # recentred polynomial's companion, as reversed_monic builds it,
            # times the vector its family holds at that step
            peaks = []
            for desc, products in rounds:
                family = _round_family(desc)
                top = iteration_matrix(family.poly).top
                peaks.append(_round_peak(family, len(products)))
                assert products == [(top, family.vector(j)) for j in range(len(products))]
            assert est.peak_bits == max(peaks)

    def test_repr_past_the_int_to_str_limit(self):
        # enumerate_real_roots(2*T_40(x/2)) returns fractions of about 20000
        # bits, whose repr(Fraction) raises under the default limit
        est = driver.RootEstimate(
            Fraction(10**700 + 1, 10**700), 12, 1, RootStatus.CONVERGED,
            IDENTITY_SHIFT, "cross-ratio",
        )
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            text = repr(est)
        finally:
            sys.set_int_max_str_digits(limit)
        assert text == (
            f"RootEstimate(value=Fraction(1{'0' * 699}1, 1{'0' * 700}), decimal_digits=12, "
            "iterations=1, status=<RootStatus.CONVERGED: 'converged'>, "
            "shift_used=AffineShift(a=0, b=1), estimator='cross-ratio', peak_bits=0)"
        )

    def test_repr_reads_as_the_dataclass_repr(self):
        est = root_via_shift(QUADRATIC, AffineShift(2, 1))
        fields = ", ".join(
            f"{name}={getattr(est, name)!r}"
            for name in ("value", "decimal_digits", "iterations", "status", "shift_used",
                         "estimator", "peak_bits")
        )
        assert repr(est) == f"RootEstimate({fields})"
        whole = driver._exact_estimate(Fraction(3), IDENTITY_SHIFT, DriverOptions())
        assert repr(whole).startswith("RootEstimate(value=Fraction(3, 1), decimal_digits=999,")

    def test_peak_bits_grow_with_precision(self):
        small = dominant_root(QUADRATIC, DriverOptions(target_digits=6))
        large = dominant_root(QUADRATIC, DriverOptions(target_digits=24))
        assert large.peak_bits > small.peak_bits > 0

    def test_tie_reports_no_stable_digits(self):
        est = dominant_root(make_polynomial([1, 0, -4]))
        assert est.status is RootStatus.TIE_DETECTED
        assert est.decimal_digits == 0


class TestCorpusAgreement:
    def test_dominant_root_matches_reference(self, corpus):
        for entry in corpus[:40]:
            est = dominant_root(entry.poly)
            assert est.converged, entry.poly
            assert abs(float(est.value) - entry.dominant) < 1e-8

    def test_enumeration_matches_reference(self, simple_real_corpus):
        for entry in simple_real_corpus[:15]:
            got = [float(e.value) for e in enumerate_real_roots(entry.poly)]
            want = entry.roots.real_roots()
            assert len(got) == len(want), entry.poly
            for g, w in zip(got, want):
                assert abs(g - w) < 1e-6, entry.poly
