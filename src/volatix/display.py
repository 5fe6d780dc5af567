"""Rendering rules for exact rationals.

All arithmetic in volatix is done on ``fractions.Fraction``; this module owns
the one place where numbers become strings.  The conventions, applied
everywhere (CSV, JSON, CLI):

* citation averages and absolute volatilities: 2 decimals, ties rounded
  half away from zero ("half-up");
* relative volatilities: integer percent with a ``%`` suffix;
* threshold-table percentages: 2 significant figures;
* ``--exact`` mode: the full rational as ``"numerator/denominator"``.

Keeping formatting centralized (and float-free for the rounded forms) is what
makes serialized output byte-identical across runs.
"""

from __future__ import annotations

import decimal
from fractions import Fraction

from .errors import InvalidNumberError


def round_half_up(x: Fraction, places: int = 0) -> Fraction:
    """Round to ``places`` decimals, ties away from zero, exactly."""
    scale = 10**places
    num = x.numerator * scale
    den = x.denominator
    q, r = divmod(abs(num), den)
    if 2 * r >= den:
        q += 1
    if num < 0:
        q = -q
    return Fraction(q, scale)


def decimal_str(x: Fraction, places: int = 2) -> str:
    """Fixed-point decimal string with half-up rounding, e.g. ``'68.27'``."""
    scale = 10**places
    rounded = round_half_up(x, places)
    units = abs(rounded.numerator) * (scale // rounded.denominator)
    sign = "-" if rounded < 0 else ""
    whole, frac = divmod(units, scale)
    if places == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{places}d}"


def percent_str(x: Fraction) -> str:
    """Ratio rendered as an integer percent, e.g. Fraction(271,100) -> '271%'."""
    return decimal_str(x * 100, 0) + "%"


def sig2_percent_str(x: Fraction) -> str:
    """Ratio rendered as a percent with 2 significant figures, e.g. '0.63%'.

    Values exactly representable in fewer digits keep their short form
    ('0.01%', not '0.010%').
    """
    value = x * 100
    if value == 0:
        return "0%"
    with decimal.localcontext() as ctx:
        ctx.prec = 2
        ctx.rounding = decimal.ROUND_HALF_UP
        d = decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
    return format(d, "f") + "%"


def exact_str(x: Fraction) -> str:
    """Audit form: the reduced rational as 'numerator/denominator'."""
    return f"{x.numerator}/{x.denominator}"


def plain_number_str(x: Fraction) -> str:
    """Shortest exact decimal if one exists (denominator 2^a * 5^b), else p/q.

    Used for threshold cut labels: Fraction('0.25') -> '0.25', 50 -> '50'.
    """
    den = x.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return exact_str(x)
    places = max(twos, fives)
    s = decimal_str(x, places)
    if "." in s:
        s = s.rstrip("0").rstrip(".")
    return s


def parse_rational(text: str) -> Fraction:
    """Parse '16.15', '3/4' or '12' into an exact Fraction.

    Text that is not a finite rational, or has a zero denominator, raises
    :class:`~volatix.errors.InvalidNumberError`.
    """
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise InvalidNumberError(f"not a rational number: {text!r}") from None
