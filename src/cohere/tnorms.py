"""Triangular norms and conorms on exact rationals.

Implemented families: minimum, product, Lukasiewicz, drastic, and the
Hamacher family with parameter lambda in [0, inf].  A family is defined by
its t-norm T alone.  Every t-conorm follows by duality,
S(p1, ..., pk) = 1 - T(1 - p1, ..., 1 - pk) (Klement, Mesiar & Pap 2000,
Triangular Norms), which holds exactly on rationals for every family here.
All arguments and parameters are :class:`fractions.Fraction`; the infinite
parameter is the distinguished token :data:`INF`, never a float.  N-ary
evaluation folds the binary t-norm left-associatively; associativity makes
the fold order irrelevant.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from ._record import Record, set_field
from .rationals import as_unit, fraction_str, parse_rational, type_refused

ZERO = Fraction(0)
ONE = Fraction(1)


class _Infinity:
    """Token for the Hamacher parameter lambda = infinity (drastic limit)."""

    def __repr__(self) -> str:
        return "INF"


INF = _Infinity()

HamacherParam = Union[Fraction, _Infinity]


class OperatorFamily(Record):
    """A t-norm family together with its dual t-conorm.

    ``kind`` is one of ``minimum``, ``product``, ``lukasiewicz``, ``drastic``,
    ``hamacher``; the Hamacher kind carries a parameter >= 0 or :data:`INF`.
    """

    _fields = ("kind", "parameter")
    KINDS = ("minimum", "product", "lukasiewicz", "drastic", "hamacher")
    kind: str
    parameter: HamacherParam | None

    def __init__(self, kind: str, parameter: HamacherParam | None = None) -> None:
        set_field(self, "kind", kind)
        set_field(self, "parameter", parameter)
        if kind not in self.KINDS:
            raise ValueError(f"unknown operator family {kind!r}")
        if kind == "hamacher":
            if parameter is None:
                raise ValueError("hamacher family needs a parameter")
            if not isinstance(parameter, _Infinity) and parameter < 0:
                raise ValueError("hamacher parameter must be >= 0")
        elif parameter is not None:
            raise ValueError(f"{kind} family takes no parameter")

    def __str__(self) -> str:
        if self.kind == "hamacher":
            p = self.parameter
            return f"hamacher({p if isinstance(p, _Infinity) else fraction_str(p)})"
        return self.kind


MINIMUM = OperatorFamily("minimum")
PRODUCT = OperatorFamily("product")
LUKASIEWICZ = OperatorFamily("lukasiewicz")
DRASTIC = OperatorFamily("drastic")


def hamacher(parameter: HamacherParam | int | str) -> OperatorFamily:
    if isinstance(parameter, float):
        raise type_refused(parameter, "the hamacher parameter", "Fraction, int or string")
    if isinstance(parameter, str):
        parameter = parse_rational(parameter)
    elif not isinstance(parameter, _Infinity):
        parameter = Fraction(parameter)
    return OperatorFamily("hamacher", parameter)


HAMACHER0 = hamacher(0)


# ---------------------------------------------------------------------------
# The t-norm of each family, and every t-conorm by duality
# ---------------------------------------------------------------------------


def _tnorm2(f: OperatorFamily, x: Fraction, y: Fraction) -> Fraction:
    if f.kind == "minimum":
        return min(x, y)
    if f.kind == "product":
        return x * y
    if f.kind == "lukasiewicz":
        return max(x + y - 1, ZERO)
    lam = f.parameter
    if f.kind == "drastic" or isinstance(lam, _Infinity):
        return min(x, y) if (x == 1 or y == 1) else ZERO
    if lam == 0 and x == 0 and y == 0:
        return ZERO
    return x * y / (lam + (1 - lam) * (x + y - x * y))


def _units(args: Sequence[Fraction]) -> list[Fraction]:
    values = [as_unit(a, f"args[{i}]") for i, a in enumerate(args)]
    if not values:
        raise ValueError("at least one argument is required")
    return values


def tnorm(f: OperatorFamily, args: Sequence[Fraction]) -> Fraction:
    """Evaluate the t-norm on one or more unit arguments."""
    values = _units(args)
    out = values[0]
    for v in values[1:]:
        out = _tnorm2(f, out, v)
    return out


def tconorm(f: OperatorFamily, args: Sequence[Fraction]) -> Fraction:
    """Evaluate the dual t-conorm on one or more unit arguments:
    S(p1, ..., pk) = 1 - T(1 - p1, ..., 1 - pk)."""
    return 1 - tnorm(f, [1 - v for v in _units(args)])


# ---------------------------------------------------------------------------
# Closed forms for the Hamacher lambda=0 pair
# ---------------------------------------------------------------------------


def hamacher0_nary(args: Sequence[Fraction]) -> Fraction:
    """Closed form from the additive generator t(x) = (1-x)/x:
    0 when any argument is 0, else 1 / (sum (1-p)/p + 1)."""
    values = _units(args)
    if any(v == 0 for v in values):
        return ZERO
    return 1 / (sum((1 - v) / v for v in values) + 1)


def hamacher0_conary(args: Sequence[Fraction]) -> Fraction:
    """Dual closed form, 1 - hamacher0_nary(1 - p1, ..., 1 - pk), which is
    1 when any argument is 1, else (sum p/(1-p)) / (sum p/(1-p) + 1)."""
    return 1 - hamacher0_nary([1 - v for v in _units(args)])
