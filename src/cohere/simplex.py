"""Exact two-phase simplex over rationals for equality-form programs.

:func:`solve_eq_lp` runs phase 1 on ``A x = b, x >= 0``, and every optimum
of ``c.x`` comes from :meth:`LPResult.optimize` on its result (phase 2).
Bland's anti-cycling rule makes every run terminate, and every number is
exact.  An infeasible system comes back with a Farkas vector ``y``,
``y.A <= 0`` componentwise and ``y.b > 0``, which downstream code turns into
a positive-gain betting certificate.

A system comes as rational rows ``[A_i | b_i]`` (``int`` or ``Fraction``
entries), which :func:`integer_rows` scales, row i by ``s_i``, the lcm of
its denominators; or as integer rows ``M_i = s_i [A_i | b_i]`` with their
``scales``, used as they are.  Phase 1 weights artificial i by ``s_i``, so
the scales travel with the rows: other scales give the same polytope but
may pivot to another point or certificate.

The tableau holds Python integers (fraction-free pivoting: Edmonds 1967,
Bareiss 1968, Math. Comp. 22).  Row scaling leaves ``B^-1 A`` unchanged for
every basis ``B``, so the true tableau is that of the rational system.  The
solver stores ``T = d * (true tableau)``, where ``d`` is the absolute
determinant of the basis columns of the sign-normalized ``[M | diag(s)]``,
so every entry is an integer.  It starts from ``d = prod(s_i)`` and,
pivoting on ``p = T[r][c]``, sets ``T[i] = (p T[i] - T[i][c] T[r]) / d`` for
every other row and then ``d = p``; the division is exact by Sylvester's
determinant identity.  A negative pivot, possible only while artificials
are pivoted out, is first negated with its row, which keeps ``d`` positive.

The cost row is ``d`` times the reduced costs (times the lcm of the
objective's denominators in phase 2), so its signs are the true ones, and
ratios are compared by cross-multiplication with the same tie-break on the
basis index.  The pivot sequence, and so every answer, is therefore that of a
``fractions.Fraction`` tableau.  A solution stays as the tableau gives it,
integer numerators over ``d``, and is checked exactly in integers against
``M`` before it is returned; Farkas vectors and optimal values are fractions.

Phase 1 runs once per system.  It keeps its final tableau, artificials and
redundant rows dropped, on the returned :class:`LPResult`, and
:meth:`LPResult.optimize` runs phase 2 from it, so every objective over the
same matrix starts from the same basis: it prices the objective against the
kept tableau and pivots on a copy only when some column enters.
:meth:`LPResult.spread` reads the same tableau for a solution positive on
every column that one non-degenerate pivot brings in, with no LP at all: a
mediant, which sums the numerators and sums the denominators of solutions.
Columns pinned to zero are barred rather than given an extra equation: they
are left out of the tableau, so they never enter the basis.

Problem sizes here are tiny (tens of columns), so no factorization or
sparsity is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod
from typing import Collection, Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
Solution = tuple[tuple[int, ...], int]  # integer numerators over a denominator > 0


@dataclass(frozen=True, slots=True)
class LPResult:
    """Outcome of phase 1 or of one optimisation, a solution as numerators
    ``x`` over ``den``; feasible phase 1 keeps its ``tableau`` for :meth:`optimize`."""

    status: str
    x: tuple[int, ...] | None = None
    den: int | None = None
    objective: Fraction | None = None
    farkas: tuple[Fraction, ...] | None = None
    tableau: _Tableau | None = field(default=None, compare=False, repr=False)

    def optimize(self, objective: Sequence[Fraction], maximize: bool = False) -> LPResult:
        """Optimize ``objective`` over the system this feasibility result
        solved, by phase 2 on a copy of its tableau; ``self`` is unchanged,
        so any number of objectives can start from it."""
        if self.tableau is None:
            raise ValueError("only a feasible phase-1 result can be optimized")
        return self.tableau.optimize(objective, maximize)

    def spread(self) -> Solution:
        """A solution positive wherever ``x`` is and on every column that one
        non-degenerate pivot from this basis brings in: the mediant of ``x``
        and each basic solution such a pivot reaches, checked exactly."""
        if self.tableau is None:
            raise ValueError("only a feasible phase-1 result can be spread")
        return self.tableau.spread()


def solve_eq_lp(
    rows: Sequence[Sequence[int | Fraction]],
    rhs: Sequence[int | Fraction],
    *,
    barred: Collection[int] = (),
    scales: Sequence[int] | None = None,
) -> LPResult:
    """Decide whether ``{x >= 0 : rows . x = rhs}`` is empty, by phase 1 only.

    Entries are ``int`` or ``Fraction``; with ``scales``, they are integers
    already scaled, row i by ``scales[i] > 0``.  A feasible system comes back
    with some basic feasible point ``x``, and every optimum over it comes
    from :meth:`LPResult.optimize` on that result.  The ``barred`` columns
    are fixed at zero: they never enter the basis, so every ``x`` is zero on
    them.  Infeasible systems come back with an exact Farkas certificate for
    the original (unflipped, unscaled) rows, over the columns not barred.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if any(len(r) != n for r in rows) or len(rhs) != m:
        raise ValueError("inconsistent system dimensions")
    if m == 0:
        raise ValueError("at least one constraint row is required")
    if scales is None:
        rows, rhs, scales = integer_rows(rows, rhs)
    elif len(scales) != m:
        raise ValueError("one scale per row is required")
    if barred:
        barred = set(barred)
        columns = [j for j in range(n) if j not in barred]
    else:
        columns = range(n)

    # Normalize signs so every right-hand side is nonnegative, and start from
    # d * [A | I | b] over the columns that are not barred, with d the
    # product of the rows' scales s_i.
    flip = [1 if b >= 0 else -1 for b in rhs]
    d = prod(scales)
    k = len(columns)
    ncols = k + m
    tab = []
    for i, (row, s) in enumerate(zip(rows, scales)):
        up = flip[i] * (d // s)
        scaled = [row[j] * up for j in columns]
        scaled.extend(d if r == i else 0 for r in range(m))
        scaled.append(rhs[i] * up)
        tab.append(scaled)
    basis = list(range(k, ncols))

    # Phase-1 reduced costs: cost 1 on artificials, priced out of the basis.
    sums = [sum(column) for column in zip(*tab)]
    cost = [-s for s in sums[:k]] + [0] * m + [-sums[ncols]]

    _, d = _iterate(tab, cost, basis, k, d)

    if cost[ncols] < 0:
        # y_i = 1 - reduced cost of artificial i, mapped back through flips.
        z = [flip[i] * (d - cost[k + i]) for i in range(m)]
        _check_farkas(rows, rhs, scales, z, columns)
        return LPResult(status=INFEASIBLE, farkas=tuple(Fraction(v, d) for v in z))

    # Pivot leftover artificials out of the basis; drop rows that turn out
    # to be redundant equations once the barred columns are zero.
    keep: list[int] = []
    for r in range(m):
        if basis[r] < k:
            keep.append(r)
            continue
        col = next((j for j in range(k) if tab[r][j] != 0), None)
        if col is None:
            continue
        d = _pivot(tab, cost, basis, r, col, d)
        keep.append(r)
    start = _Tableau(
        rows, rhs, columns, [tab[r][:k] + [tab[r][ncols]] for r in keep],
        [basis[r] for r in keep], d,
    )
    x = _extract(start.tab, start.basis, columns, n)
    check_solution(rows, rhs, x, d)
    return LPResult(status=OPTIMAL, x=x, den=d, tableau=start)


def integer_rows(rows, rhs) -> tuple[list[list[int]], list[int], list[int]]:
    """The integer rows ``s_i * A_i`` and right-hand sides ``s_i * b_i``,
    and the scales ``s_i``, each the lcm of row i's denominators."""
    scales = [lcm(b.denominator, *(v.denominator for v in row)) for row, b in zip(rows, rhs)]
    integer = [
        [v.numerator * (s // v.denominator) for v in row] for row, s in zip(rows, scales)
    ]
    return integer, [b.numerator * (s // b.denominator) for b, s in zip(rhs, scales)], scales


class _Tableau:
    """Phase 1's feasible integer tableau ``d * [B^-1 A | B^-1 b]`` over the
    columns that are not barred, with its basis, and the system it solves as
    integer rows ``s_i * A_i`` and right-hand sides ``s_i * b_i``."""

    __slots__ = ("rows", "rhs", "columns", "tab", "basis", "d")

    def __init__(self, rows, rhs, columns, tab, basis, d):
        self.rows, self.rhs, self.columns = rows, rhs, columns
        self.tab, self.basis, self.d = tab, basis, d

    def optimize(self, objective, maximize) -> LPResult:
        n = len(self.rows[0])
        if len(objective) != n:
            raise ValueError("objective length does not match the variable count")
        # Integer phase-2 costs: the objective times the lcm of its denominators.
        sign = -1 if maximize else 1
        scale = lcm(*(c.denominator for c in objective))
        scaled = [c.numerator * (scale // c.denominator) for c in objective]
        weights = [sign * scaled[j] for j in self.columns]
        d, tab, basis = self.d, self.tab, self.basis
        cost = [d * w for w in weights] + [0]
        for row, bv in zip(tab, basis):
            coeff = weights[bv]
            if coeff != 0:
                cost = [v - coeff * w for v, w in zip(cost, row)]

        # Pivot on a copy, and only when some column enters.
        if any(v < 0 for v in cost[:-1]):
            tab, basis = [row[:] for row in tab], basis[:]
            status, d = _iterate(tab, cost, basis, len(weights), d)
            if status == UNBOUNDED:
                return LPResult(status=UNBOUNDED)
        x = _extract(tab, basis, self.columns, n)
        check_solution(self.rows, self.rhs, x, d, scaled, -sign * cost[-1])
        value = Fraction(-sign * cost[-1], d * scale)
        return LPResult(status=OPTIMAL, x=x, den=d, objective=value)

    def spread(self) -> Solution:
        # Column c's pivot on row r, at the ratio test's minimum b / p with
        # (b, p) = (tab[r][-1], tab[r][c]), reaches the basic solution with
        # numerators b on c and (p tab[i][-1] - tab[i][c] b) / d (exact by
        # Sylvester's identity) on B(i), over p.  Adding x's and theirs, over
        # d + sum(p), gives (tab[i][-1] (d + sum(p)) - sum_c tab[i][c] b_c) / d.
        tab, basis = self.tab, self.basis
        steps = {}
        for c in set(range(len(self.columns))) - set(basis):
            best = None
            for row in tab:
                if row[c] > 0:
                    if row[-1] == 0:
                        break  # degenerate: the pivot would not move x
                    if best is None or row[-1] * best[1] < best[0] * row[c]:
                        best = row[-1], row[c]
            else:
                if best is not None:
                    steps[c] = best
        den = self.d + sum(p for _, p in steps.values())
        x = [0] * len(self.rows[0])
        for c, (b, _) in steps.items():
            x[self.columns[c]] = b
        for row, bv in zip(tab, basis):
            v = row[-1] * den - sum(b * row[c] for c, (b, _) in steps.items())
            x[self.columns[bv]] = v // self.d
        check_solution(self.rows, self.rhs, x, den)
        return tuple(x), den


def _iterate(tab, cost, basis, n, d) -> tuple[str, int]:
    """Run Bland-rule pivots on columns ``0 .. n-1`` until optimality or
    unboundedness; return the status and the final denominator."""
    while True:
        entering = next((j for j in range(n) if cost[j] < 0), None)
        if entering is None:
            return OPTIMAL, d
        leaving = None
        for r, row in enumerate(tab):
            coeff = row[entering]
            if coeff > 0:
                # row[-1] / coeff against best_rhs / best_coeff, both > 0.
                if leaving is None:
                    leaving, best_rhs, best_coeff = r, row[-1], coeff
                    continue
                lhs = row[-1] * best_coeff
                other = best_rhs * coeff
                if lhs < other or (lhs == other and basis[r] < basis[leaving]):
                    leaving, best_rhs, best_coeff = r, row[-1], coeff
        if leaving is None:
            return UNBOUNDED, d
        d = _pivot(tab, cost, basis, leaving, entering, d)


def _pivot(tab, cost, basis, row, col, d) -> int:
    """Fraction-free pivot on ``(row, col)``; return the new denominator."""
    prow = tab[row]
    p = prow[col]
    if p == 0:
        raise ValueError("pivot on a zero coefficient")
    if p < 0:
        prow[:] = [-v for v in prow]
        p = -p
    for r, other in enumerate(tab):
        if r != row:
            _eliminate(other, prow, col, p, d)
    _eliminate(cost, prow, col, p, d)
    basis[row] = col
    return p


def _eliminate(other, prow, col, p, d) -> None:
    """Replace ``other`` by ``(p * other - other[col] * prow) / d`` in place."""
    coeff = other[col]
    if coeff != 0:
        other[:] = [(p * v - coeff * w) // d for v, w in zip(other, prow)]
    elif p != d:
        other[:] = [p * v // d for v in other]


def _extract(tab, basis, columns, n) -> tuple[int, ...]:
    x = [0] * n
    for row, bv in zip(tab, basis):
        x[columns[bv]] = row[-1]
    return tuple(x)


def check_solution(rows, rhs, x, den, objective=None, value=None) -> None:
    """Raise ``AssertionError`` unless numerators ``x >= 0`` over ``den > 0``
    solve the integer system, ``rows_i . x == rhs_i den`` in integers, and,
    with an integer objective, have ``objective . x == value`` (over ``den``)."""
    if den <= 0 or any(v < 0 for v in x):
        raise AssertionError("solution has a negative entry or a nonpositive denominator")
    support = [j for j, v in enumerate(x) if v]
    for row, b in zip(rows, rhs):
        if sum(row[j] * x[j] for j in support) != b * den:
            raise AssertionError("solution violates rows . x = rhs")
    if objective is not None and sum(objective[j] * x[j] for j in support) != value:
        raise AssertionError("objective differs from objective . x")


def _check_farkas(rows, rhs, scales, z, columns=None) -> None:
    """Raise unless ``y = z / d`` (any ``d > 0``) has ``y.A <= 0`` on
    ``columns`` (default: all) and ``y.b > 0``, for ``[A_i | b_i] = [rows_i |
    rhs_i] / s_i``: times ``d L``, ``L = lcm(s)``, each sum is in integers."""
    L = lcm(*scales)
    w = [v * (L // s) for v, s in zip(z, scales)]
    for j in range(len(rows[0])) if columns is None else columns:
        if sum(wi * row[j] for wi, row in zip(w, rows)) > 0:
            raise AssertionError("Farkas certificate violates y.A <= 0")
    if sum(wi * b for wi, b in zip(w, rhs)) <= 0:
        raise AssertionError("Farkas certificate violates y.b > 0")
