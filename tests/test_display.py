from fractions import Fraction

import pytest

from volatix.display import (
    decimal_str,
    exact_str,
    parse_rational,
    percent_str,
    plain_number_str,
    round_half_up,
    sig2_percent_str,
)
from volatix.errors import InvalidNumberError


def test_round_half_up_ties_away_from_zero():
    assert round_half_up(Fraction(5, 1000), 2) == Fraction(1, 100)
    assert round_half_up(Fraction(-5, 1000), 2) == Fraction(-1, 100)
    assert round_half_up(Fraction(44, 1000), 2) == Fraction(4, 100)
    assert round_half_up(Fraction(3, 2)) == 2
    assert round_half_up(Fraction(-3, 2)) == -2


@pytest.mark.parametrize(
    "value,places,expected",
    [
        (Fraction(112, 6), 2, "18.67"),
        (Fraction(-17183, 5300), 2, "-3.24"),
        (Fraction(0), 2, "0.00"),
        (Fraction(99, 650), 2, "0.15"),
        (Fraction(5), 0, "5"),
        (Fraction(1, 25), 2, "0.04"),
        (Fraction(-4, 1000), 2, "0.00"),
        (Fraction(-5, 1000), 2, "-0.01"),
        (Fraction(1005, 1000), 2, "1.01"),
    ],
)
def test_decimal_str(value, places, expected):
    assert decimal_str(value, places) == expected


def test_percent_str_rounds_to_integer_percent():
    assert percent_str(Fraction(99, 26)) == "381%"
    assert percent_str(Fraction(79, 20)) == "395%"
    assert percent_str(Fraction(673, 272)) == "247%"
    assert percent_str(Fraction(0)) == "0%"
    assert percent_str(Fraction(-1, 53)) == "-2%"
    assert percent_str(Fraction(-1, 200)) == "-1%"
    assert percent_str(Fraction(-1, 201)) == "0%"


def test_sig2_percent_two_significant_figures():
    assert sig2_percent_str(Fraction(3881, 11639)) == "33%"
    assert sig2_percent_str(Fraction(1061, 11639)) == "9.1%"
    assert sig2_percent_str(Fraction(73, 11639)) == "0.63%"
    assert sig2_percent_str(Fraction(231, 11639)) == "2.0%"
    assert sig2_percent_str(Fraction(1, 10000)) == "0.01%"  # exact, no padding
    assert sig2_percent_str(Fraction(0)) == "0%"
    assert sig2_percent_str(Fraction(1)) == "100%"


@pytest.mark.parametrize(
    "value,expected",
    [
        (Fraction("0.1"), "0.1"),
        (Fraction("0.25"), "0.25"),
        (Fraction(1), "1"),
        (Fraction("1.5"), "1.5"),
        (Fraction(50), "50"),
        (Fraction(1, 3), "1/3"),
    ],
)
def test_plain_number_str(value, expected):
    assert plain_number_str(value) == expected


def test_exact_str_and_parse_round_trip():
    x = Fraction(-17183, 5300)
    assert exact_str(x) == "-17183/5300"
    assert parse_rational("16.15") == Fraction(323, 20)
    assert parse_rational("-17183/5300") == x
    assert parse_rational("12") == 12


@pytest.mark.parametrize("text", ["1/0", "abc", "", "nan", "inf", "1/2/3"])
def test_parse_rational_rejects_non_rationals(text):
    with pytest.raises(InvalidNumberError, match="not a rational number"):
        parse_rational(text)
