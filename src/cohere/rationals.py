"""Exact rationals to and from text, within a fixed digit limit.

CPython converts an integer to or from a decimal string of at most 4300
digits by default, and raises a ``ValueError`` that names
``sys.set_int_max_str_digits`` beyond it.  This module holds that limit as
:data:`MAX_DIGITS` and enforces it itself, with ``SizeLimitError``: parsing
refuses a numeral with more digits, and a decimal exponent beyond it, before
``Fraction`` is built, and rendering refuses a numerator or denominator with
more digits.  The interpreter's own setting is never read or changed.

A float is refused wherever a probability enters the engine: its binary
expansion is not the decimal written, so ``0.1`` would become a rational
with a 17-digit denominator.  The records take no string either, since
only :func:`parse_rational` reads text within the digit limits.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import CohereError, ProbabilityRangeError, SizeLimitError

# CPython's default limit on the digits of an int converted to or from a string.
MAX_DIGITS = 4300
_EXPONENT_RE = re.compile(r"[eE][-+]?([0-9_]+)$")
_NUMERAL_RE = re.compile(r"[0-9_]+")
_TOO_LONG = 10**MAX_DIGITS
# How much of a refused text an error message quotes.
_QUOTED = 40


def _quoted(text: str) -> str:
    if len(text) <= _QUOTED:
        return repr(text)
    return f"{text[:_QUOTED]!r}... ({len(text)} characters)"


def parse_rational(text: str) -> Fraction:
    """Exact rational from ``a/b``, integer, or decimal notation.  A numeral
    with more than ``MAX_DIGITS`` digits, or a decimal exponent beyond
    ``MAX_DIGITS``, raises ``SizeLimitError`` before ``Fraction`` converts
    that many digits or builds a power of ten with that many."""
    text = text.strip()
    exponent = _EXPONENT_RE.search(text)
    if exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_DIGITS)) or int(digits or 0) > MAX_DIGITS:
            raise SizeLimitError(f"decimal exponent beyond {MAX_DIGITS}: {_quoted(text)}")
    # No numeral of a text this short can exceed the limit.
    if len(text) > MAX_DIGITS:
        for numeral in _NUMERAL_RE.findall(text):
            if len(numeral) - numeral.count("_") > MAX_DIGITS:
                raise SizeLimitError(
                    f"numeral of more than {MAX_DIGITS} digits: {_quoted(text)}"
                )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CohereError(f"not a rational number: {_quoted(text)}") from exc


def type_refused(value: float | str, name: str, accepted: str = "Fraction or int") -> TypeError:
    """The error raised where ``value``, a float or a string, is given for
    ``name`` to a receiver that takes the types ``accepted`` names."""
    shown = f"string {_quoted(value)}" if isinstance(value, str) else f"float {value!r}"
    return TypeError(f"{name} is the {shown}; give an exact {accepted}")


def as_unit(value: Fraction | int | str, name: str = "value") -> Fraction:
    """Coerce to an exact rational in [0, 1]; a string goes through
    :func:`parse_rational` and its digit limits, and a float raises
    ``TypeError``."""
    if isinstance(value, float):
        raise type_refused(value, name, "Fraction, int or string")
    f = parse_rational(value) if isinstance(value, str) else Fraction(value)
    if f < 0 or f > 1:
        raise ProbabilityRangeError(f"{name} must lie in [0, 1], got {fraction_str(f)}")
    return f


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
