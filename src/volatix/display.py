"""Rendering rules for exact rationals.

Values stay exact until here, the one place where numbers become strings:
``fractions.Fraction``s, or ``(num, den)`` integer pairs with ``den > 0``
that need not be reduced, rounded on their integer numerator and
denominator.  The conventions, applied everywhere (CSV, JSON, CLI):

* citation averages and absolute volatilities: 2 decimals, ties rounded
  half away from zero ("half-up");
* relative volatilities: integer percent with a ``%`` suffix;
* threshold-table percentages: 2 significant figures;
* ``--exact`` mode: the full reduced rational as ``"numerator/denominator"``.

Keeping formatting centralized (and float-free for the rounded forms) is what
makes serialized output byte-identical across runs.  Each ``*_str`` of a
``Fraction`` has a ``ratio_*_str`` twin that takes the pair.
"""

from __future__ import annotations

import decimal
import math
import re
from fractions import Fraction

from .errors import InvalidNumberError

#: Longest number, and largest exponent, read from the command line: more
#: makes ``Fraction`` hang or results too long for ``str(int)`` (4300 digits).
MAX_DIGITS = 1000
_EXPONENT = re.compile(r"e([-+]?\d+)\s*\Z", re.IGNORECASE)


def _half_up_units(num: int, den: int) -> int:
    """``num / den`` rounded to an integer, ties away from zero, on ints only."""
    units, rest = divmod(abs(num), den)
    if 2 * rest >= den:
        units += 1
    return -units if num < 0 else units


def round_half_up(x: Fraction, places: int = 0) -> Fraction:
    """Round to ``places`` decimals, ties away from zero, exactly."""
    scale = 10**places
    return Fraction(_half_up_units(x.numerator * scale, x.denominator), scale)


def ratio_decimal_str(num: int, den: int, places: int = 2) -> str:
    """``num / den`` as a fixed-point decimal string with half-up rounding."""
    scale = 10**places
    units = _half_up_units(num * scale, den)
    sign = "-" if units < 0 else ""
    whole, frac = divmod(abs(units), scale)
    if places == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{places}d}"


def decimal_str(x: Fraction, places: int = 2) -> str:
    """Fixed-point decimal string with half-up rounding, e.g. ``'68.27'``."""
    return ratio_decimal_str(x.numerator, x.denominator, places)


def ratio_percent_str(num: int, den: int) -> str:
    """``num / den`` as an integer percent, e.g. (542, 200) -> '271%'."""
    return f"{_half_up_units(num * 100, den)}%"


def percent_str(x: Fraction) -> str:
    """Ratio rendered as an integer percent, e.g. Fraction(271,100) -> '271%'."""
    return ratio_percent_str(x.numerator, x.denominator)


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


def ratio_exact_str(num: int, den: int) -> str:
    """Audit form of ``num / den``: reduced by one ``gcd``, sign on the numerator."""
    g = math.gcd(num, den)
    return f"{num // g}/{den // g}"


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
    # x times 10**places is an integer not divisible by 10, as x is reduced,
    # so this decimal has no trailing zero
    return decimal_str(x, max(twos, fives))


def _plain_number(text: str) -> str:
    """``text``, unless it holds a ``_`` or a character outside ASCII, which
    raise ``InvalidNumberError``: ``int`` and ``Fraction`` read ``1_0`` and
    ``١٠`` as 10, and ``Fraction`` reads ``1_0`` only from Python 3.11 on."""
    if "_" in text or not text.isascii():
        raise InvalidNumberError(f"not a plain ASCII number: {text!r}")
    return text


def parse_int(text: str) -> int:
    """Parse an integer written in ASCII digits, such as '12' or '-3'; a
    ``_`` or a non-ASCII digit raises ``InvalidNumberError``, as ``int`` would
    not."""
    return int(_plain_number(text))


def parse_rational(text: str) -> Fraction:
    """Parse '16.15', '3/4' or '12' into an exact Fraction.

    Text that is not a finite rational, has a zero denominator, has a ``_``
    or a character outside ASCII, or is longer or has a larger exponent than
    MAX_DIGITS raises ``InvalidNumberError``.
    """
    exponent = _EXPONENT.search(_plain_number(text))
    if len(text) > MAX_DIGITS or (exponent and abs(int(exponent[1])) > MAX_DIGITS):
        raise InvalidNumberError(f"number out of range (over {MAX_DIGITS} digits): {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise InvalidNumberError(f"not a rational number: {text!r}") from None
