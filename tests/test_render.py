"""Decimal rendering of exact rationals and digit-agreement measurement."""

from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqroots.render import EXACT_AGREEMENT, agreement_digits, decimal_string, ratio_string


class TestDecimalString:
    def test_five_digit_significand(self):
        assert decimal_string(Fraction(169, -70), 5) == "-2.4143"
        assert decimal_string(Fraction(70, 169), 5) == "0.41420"
        assert decimal_string(Fraction(29, 70), 5) == "0.41429"

    def test_seven_digit_significand(self):
        assert decimal_string(Fraction(536171481, 425559582), 7) == "1.259921"
        assert decimal_string(Fraction(99, 81), 7) == "1.222222"

    def test_short_exact_values_stay_short(self):
        assert decimal_string(Fraction(9, 6), 5) == "1.5"
        assert decimal_string(Fraction(-12, 5), 5) == "-2.4"
        assert decimal_string(Fraction(5, -2), 5) == "-2.5"
        assert decimal_string(Fraction(-2, 1), 5) == "-2"
        assert decimal_string(0, 5) == "0"

    def test_round_half_even(self):
        assert decimal_string(Fraction(25, 10), 1) == "2"
        assert decimal_string(Fraction(35, 10), 1) == "4"

    def test_rejects_nonpositive_digits(self):
        with pytest.raises(ValueError):
            decimal_string(Fraction(1, 3), 0)

    def test_large_integers_do_not_overflow(self):
        big = Fraction(10**400 + 7, 3)
        text = decimal_string(big, 12)
        assert text.startswith("3.33333333333")
        assert "E+399" in text

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_nonpositive_digits_every_time(self, bad):
        # no context is kept for a digit count that was refused
        for _ in range(2):
            with pytest.raises(ValueError):
                decimal_string(Fraction(1, 3), bad)

    def test_interleaved_digit_counts_match_a_fresh_context(self):
        # one kept context per digit count: 5, 7, 5 gives what a fresh
        # context per call gives, and 5 digits do not leak into 7
        values = [Fraction(169, -70), Fraction(536171481, 425559582), Fraction(5, 2), 7]
        for digits in (5, 7, 5, 12, 7, 5):
            ctx = Context(prec=digits, rounding=ROUND_HALF_EVEN)
            for v in values:
                f = Fraction(v)
                fresh = str(ctx.divide(Decimal(f.numerator), Decimal(f.denominator)))
                assert decimal_string(v, digits) == fresh
        assert [decimal_string(Fraction(1, 3), d) for d in (5, 7, 5)] == [
            "0.33333", "0.3333333", "0.33333",
        ]


    @given(
        n=st.integers(-(10**40), 10**40),
        d=st.integers(1, 10**40),
        factor=st.integers(1, 10**6),
        digits=st.integers(1, 40),
    )
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_integer_pair_renders_as_its_fraction(self, n, d, factor, digits):
        # the pair need not be in lowest terms
        want = decimal_string(Fraction(n, d), digits)
        assert decimal_string(n * factor, digits, d * factor) == want


class TestRatioString:
    def test_zero_denominator_is_inf(self):
        assert ratio_string(1, 0, 5) == "inf"

    def test_normal_ratio(self):
        assert ratio_string(169, -70, 5) == "-2.4143"

    def test_zero_over_a_negative_denominator_has_no_sign(self):
        assert ratio_string(0, -3, 5) == "0"


class TestAgreementDigits:
    def test_equal_values(self):
        assert agreement_digits(Fraction(3, 7), Fraction(3, 7)) == EXACT_AGREEMENT

    def test_close_values(self):
        a = Fraction(141421356, 100000000)
        b = Fraction(141421356237, 100000000000)
        assert 8 <= agreement_digits(a, b) <= 10

    def test_far_values(self):
        assert agreement_digits(Fraction(1), Fraction(2)) <= 1

    def test_huge_precision_gap(self):
        a = Fraction(1, 3)
        b = a + Fraction(1, 10**1000)
        assert agreement_digits(a, b) == EXACT_AGREEMENT
