"""Polynomial construction, evaluation, and integer substitutions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqroots import (
    AffineShift,
    DegreeTooSmallError,
    EmptyInputError,
    IDENTITY_SHIFT,
    MonicIntPolynomial,
    NotMonicError,
    NoZeroRootError,
    make_polynomial,
)
from seqroots.poly import (
    MAX_DEGREE,
    cauchy_bound,
    compose_affine,
    deflate_zero_root,
    eval_homogeneous,
    eval_rational,
    reversed_monic,
    shift_scale,
)


class TestMakePolynomial:
    def test_full_list_with_leading_one(self):
        p = make_polynomial([1, 2, -1])
        assert p.degree == 2
        assert p.coeffs == (2, -1)
        assert p.with_leading() == (1, 2, -1)
        assert p.constant_term == -1

    def test_rejects_non_monic(self):
        with pytest.raises(NotMonicError):
            make_polynomial([2, 1])

    def test_rejects_degree_zero(self):
        with pytest.raises(EmptyInputError):
            make_polynomial([1])
        with pytest.raises(EmptyInputError):
            make_polynomial([])

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            make_polynomial([1, 2.5, 1])

    def test_rejects_degree_above_cap(self):
        with pytest.raises(ValueError):
            MonicIntPolynomial((0,) * (MAX_DEGREE + 1))

    def test_str_is_readable(self):
        assert "x" in str(make_polynomial([1, 2, -1]))


class TestEvalRational:
    def test_integer_point(self):
        p = make_polynomial([1, 2, -1])
        assert eval_rational(p, 2) == Fraction(7)

    def test_rational_point_is_exact(self):
        p = make_polynomial([1, 0, 0, -2])
        x = Fraction(536171481, 425559582)
        assert eval_rational(p, x) == x**3 - 2

    def test_root_gives_zero(self):
        p = make_polynomial([1, -3, 2])
        assert eval_rational(p, 1) == 0
        assert eval_rational(p, 2) == 0

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        coeffs=st.lists(
            st.one_of(st.integers(-3, 3), st.integers(-(10**12), 10**12)),
            min_size=1, max_size=9,
        ),
        x=st.one_of(
            st.integers(-(10**9), 10**9),
            st.fractions(max_denominator=10**15),
            st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
        ),
    )
    def test_matches_fraction_horner(self, coeffs, x):
        expected = Fraction(1)
        for a in coeffs:
            expected = expected * x + a
        got = eval_rational(MonicIntPolynomial(tuple(coeffs)), x)
        assert isinstance(got, Fraction)
        assert got == expected


def _sign(x) -> int:
    return (x > 0) - (x < 0)


#: ``(u, v)`` with ``v > 0``, not necessarily in lowest terms: dyadic points
#: ``u / 2^k``, integers, and ``r * (1 +- 10^-D)`` written as
#: ``r_num * (10^D +- 1) / (r_den * 10^D)``, the points a certificate tests.
_POINTS = st.one_of(
    st.tuples(st.integers(-(10**30), 10**30), st.integers(0, 80).map(lambda k: 1 << k)),
    st.tuples(st.integers(-50, 50), st.just(1)),
    st.builds(
        lambda r, digits, sign: (
            r.numerator * (10**digits + sign),
            r.denominator * 10**digits,
        ),
        st.one_of(st.integers(-50, 50).map(Fraction), st.fractions(max_denominator=10**12)),
        st.integers(1, 40),
        st.sampled_from([-1, 1]),
    ),
)


class TestEvalHomogeneous:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        coeffs=st.lists(
            st.one_of(st.integers(-3, 3), st.integers(-(10**12), 10**12)),
            min_size=1, max_size=9,
        ),
        roots=st.lists(st.integers(-50, 50), max_size=3),
        point=_POINTS,
    )
    def test_sign_matches_eval_rational(self, coeffs, roots, point):
        # degree 1-12: integer roots multiplied in, so that integer points
        # also hit zeros
        desc = [1, *coeffs]
        for root in roots:
            desc = [a - root * b for a, b in zip(desc + [0], [0] + desc)]
        p = MonicIntPolynomial(tuple(desc[1:]))
        u, v = point
        got = eval_homogeneous(p, u, v)
        reference = eval_rational(p, Fraction(u, v))
        assert isinstance(got, int)
        assert _sign(got) == _sign(reference)
        assert got == reference * v**p.degree


class TestAffineShift:
    def test_rejects_zero_scale(self):
        with pytest.raises(ValueError):
            AffineShift(1, 0)

    def test_apply(self):
        s = AffineShift(2, 3)
        assert s.apply(Fraction(1, 2)) == Fraction(7, 2)


class TestShiftScale:
    def test_known_quadratic(self):
        p = make_polynomial([1, 2, -1])
        q = shift_scale(p, AffineShift(2, 1))
        assert q.with_leading() == (1, -2, -1)

    def test_known_cubic(self):
        p = make_polynomial([1, 0, 0, -2])
        q = shift_scale(p, AffineShift(1, 1))
        assert q.with_leading() == (1, -3, 3, -3)

    def test_identity_shift_is_noop(self):
        p = make_polynomial([1, 4, -3, 7])
        assert shift_scale(p, IDENTITY_SHIFT) == p

    def test_scale_only(self):
        p = make_polynomial([1, 0, -1])  # roots 1, -1
        q = shift_scale(p, AffineShift(0, 2))  # roots 2, -2
        assert q.with_leading() == (1, 0, -4)

    def test_root_mapping_is_exact(self):
        # a rational root r of p maps to a + b*r as a root of the image
        p = make_polynomial([1, -3, 2])  # roots 1, 2
        s = AffineShift(-4, 3)
        q = shift_scale(p, s)
        for r in (1, 2):
            assert eval_rational(q, s.apply(r)) == 0

    def test_composition_round_trip(self):
        p = make_polynomial([1, 5, -2, 9])
        s = AffineShift(3, 1)
        back = AffineShift(-3, 1)
        assert shift_scale(shift_scale(p, s), back) == p


def _expand_affine(desc, alpha, beta, gamma):
    """``gamma^m * P((alpha*x + beta)/gamma)`` term by term in ``Fraction``s:
    the powers of the linear factor are multiplied out one at a time."""
    m = len(desc) - 1
    linear = (Fraction(alpha, gamma), Fraction(beta, gamma))
    out = [Fraction(0)] * (m + 1)
    power = [Fraction(1)]  # ((alpha*x + beta)/gamma)^k, descending
    for c in reversed(desc):
        for i, t in enumerate(power):
            out[m - len(power) + 1 + i] += c * t
        power = [a * linear[0] + b * linear[1] for a, b in zip(power + [0], [0] + power)]
    return [c * gamma**m for c in out]


class TestComposeAffine:
    """``compose_affine`` is the one substitution kernel: ``shift_scale``,
    the Descartes transforms and the bisection halves all go through it."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        desc=st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=13),
        alpha=st.integers(1, 10**4),
        beta=st.integers(-10**4, 10**4),
        gamma=st.integers(1, 10**4),
    )
    def test_matches_fraction_expansion(self, desc, alpha, beta, gamma):
        before = list(desc)
        got = compose_affine(desc, alpha, beta, gamma)
        assert got == _expand_affine(desc, alpha, beta, gamma)
        assert all(type(c) is int for c in got)
        assert desc == before

    @pytest.mark.parametrize(
        "alpha, beta, gamma, expected",
        [
            (1, 0, 1, [2, -3, 0, 5]),
            (1, 1, 1, [2, 3, 0, 4]),  # P(x + 1)
            (1, 0, 2, [2, -6, 0, 40]),  # 8 P(x/2)
            (3, 0, 1, [54, -27, 0, 5]),  # P(3x)
        ],
    )
    def test_each_factor_alone(self, alpha, beta, gamma, expected):
        assert compose_affine([2, -3, 0, 5], alpha, beta, gamma) == expected


class TestDeflateZeroRoot:
    def test_divides_out_x(self):
        p = make_polynomial([1, 0, -1, 0])  # x^3 - x
        assert deflate_zero_root(p).with_leading() == (1, 0, -1)

    def test_requires_zero_constant(self):
        with pytest.raises(NoZeroRootError):
            deflate_zero_root(make_polynomial([1, 2, -1]))

    def test_requires_degree_two(self):
        with pytest.raises(DegreeTooSmallError):
            deflate_zero_root(make_polynomial([1, 0]))


class TestReversedMonic:
    def test_known_cubic(self):
        p = make_polynomial([1, 0, 0, -2])
        assert reversed_monic(p).with_leading() == (1, 0, 0, 4)

    def test_roots_invert_exactly(self):
        # roots r of p map to a_m / r; rational example (x-2)(x-3)
        p = make_polynomial([1, -5, 6])
        q = reversed_monic(p)
        for r in (2, 3):
            assert eval_rational(q, Fraction(6, r)) == 0

    def test_rejects_zero_constant(self):
        with pytest.raises(ValueError):
            reversed_monic(make_polynomial([1, 1, 0]))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(coeffs=st.lists(st.integers(-50, 50), min_size=1, max_size=12).filter(lambda c: c[-1]))
    def test_coefficient_j_is_scaled_by_a_power_of_the_constant(self, coeffs):
        # coefficient j of the result is a_(m-j) * a_m^(j-1), with a_0 = 1
        p = make_polynomial([1, *coeffs])
        full, m, const = p.with_leading(), p.degree, p.constant_term
        expected = tuple(full[m - j] * const ** (j - 1) for j in range(1, m + 1))
        assert reversed_monic(p).coeffs == expected


class TestCauchyBound:
    def test_value(self):
        assert cauchy_bound(make_polynomial([1, 2, -1])) == 3
        assert cauchy_bound(make_polynomial([1, 0, 0, -2])) == 3

    def test_bounds_every_root(self, corpus):
        for entry in corpus[:25]:
            bound = cauchy_bound(entry.poly)
            assert all(abs(z) < bound for z in entry.roots.roots)
