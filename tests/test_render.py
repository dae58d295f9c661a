"""Decimal rendering of exact rationals and digit-agreement measurement."""

from fractions import Fraction

import pytest

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


class TestRatioString:
    def test_zero_denominator_is_inf(self):
        assert ratio_string(1, 0, 5) == "inf"

    def test_normal_ratio(self):
        assert ratio_string(169, -70, 5) == "-2.4143"


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
