"""Exact rationals to and from text, within a fixed digit limit.

CPython converts an integer to or from a decimal string of at most 4300
digits by default, and raises a ``ValueError`` that names
``sys.set_int_max_str_digits`` beyond it.  This module holds that limit as
:data:`MAX_DIGITS` and enforces it itself, with ``SizeLimitError``: parsing
refuses a decimal exponent beyond it before ``Fraction`` builds a power of
ten with that many digits, and rendering refuses a numerator or denominator
with more digits.  The interpreter's own setting is never read or changed.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import CohereError, SizeLimitError

# CPython's default limit on the digits of an int converted to or from a string.
MAX_DIGITS = 4300
_EXPONENT_RE = re.compile(r"[eE][-+]?([0-9_]+)$")
_TOO_LONG = 10**MAX_DIGITS


def parse_rational(text: str) -> Fraction:
    """Exact rational from ``a/b``, integer, or decimal notation.  A decimal
    exponent beyond ``MAX_DIGITS`` raises ``SizeLimitError`` before
    ``Fraction`` builds a power of ten with that many digits."""
    text = text.strip()
    exponent = _EXPONENT_RE.search(text)
    if exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_DIGITS)) or int(digits or 0) > MAX_DIGITS:
            raise SizeLimitError(f"decimal exponent beyond {MAX_DIGITS}: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CohereError(f"not a rational number: {text!r}") from exc


def fraction_str(x: Fraction) -> str:
    """Rational rendering used by every serialized surface: ``num/den``, or
    a bare integer when the denominator is one.  A numerator or denominator
    with more than ``MAX_DIGITS`` digits raises ``SizeLimitError``."""
    if abs(x.numerator) >= _TOO_LONG or x.denominator >= _TOO_LONG:
        raise SizeLimitError(
            f"cannot print a rational whose numerator or denominator has more "
            f"than {MAX_DIGITS} digits"
        )
    return str(x)
