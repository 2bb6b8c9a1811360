"""Exact two-phase simplex over rationals for equality-form programs.

:func:`solve_eq_lp` runs phase 1 on ``A x = b, x >= 0``, and every optimum
of ``c.x`` comes from :meth:`LPResult.optimize` on its result (phase 2).
Bland's anti-cycling rule makes every run terminate, and every number is
exact.  An infeasible system comes back with a Farkas vector ``y``,
``y.A <= 0`` componentwise and ``y.b > 0``, which downstream code turns into
a positive-gain betting certificate.

A system comes as integer rows ``M_i = s_i [A_i | b_i]`` with their
``scales`` ``s_i > 0``, which default to 1: the rational system ``[A_i |
b_i]`` cleared of its denominators row by row, as the constituent systems
are built.  Phase 1 weights artificial i by ``s_i``, so the scales travel
with the rows: other scales give the same polytope but may pivot to
another point or certificate.  Objectives are integer vectors too.

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

Each tableau row, and the cost row, is stored as one Python ``int``: the
row ``(e_0, e_1, ...)`` is ``sum_j e_j 2**(bits j)``, a number in balanced
signed digits of ``bits`` bits each.  Every entry ``T`` can hold is, up to
sign, a minor of the sign-normalized integer system ``N = [M | diag(s) |
b]`` (Cramer's rule on ``d B^-1 N``), so by Hadamard's inequality none
exceeds ``H = prod_i ||N_i||_2``.  The cost row is ``d c - c_B T`` for an
integer cost vector ``c``, so its entries stay within ``(m + 1) H`` in phase
1 and within ``(||w||_inf + ||w||_1) H`` in phase 2 for the integer
objective ``w``.  Each LP picks ``bits`` so that ``2**(bits - 1)`` exceeds
its bound: 32 or 64 whenever that suffices, which packs and unpacks through
``array`` in C, and whole bytes beyond.  A Bareiss update is linear in the
row, so one pivot moves a whole row as ``(p R - c P) // d``: every field of
``p R - c P`` is divisible by ``d``, so the division of the whole integer is
exact; its intermediate products may spill across fields, harmlessly, since
they are exact integers; and the result decodes uniquely because none of its
entries reaches ``2**(bits - 1)``, so no field overflows.  Bland's entering
column is the lowest field of the cost row whose sign is negative, found
with one mask; the ratio test reads two fields of each row by shift and
mask, and only the answers decode whole rows.

The cost row is ``d`` times the reduced costs, so its signs are the true
ones, and ratios are compared by cross-multiplication with the same
tie-break on the basis index.  The pivot sequence, and so every answer, is
therefore that of a ``fractions.Fraction`` tableau.  A solution stays as the
tableau gives it, integer numerators over ``d``, and is checked exactly in
integers against ``M`` before it is returned; Farkas vectors and optimal
values are fractions.

Phase 1 runs once per system.  It keeps its final tableau, artificials and
redundant rows dropped, on the returned :class:`LPResult`, and
:meth:`LPResult.optimize` runs phase 2 from it, so every objective over the
same matrix starts from the same basis: it prices the objective against the
kept rows and pivots on a new list of them, which leaves the kept ones as
they were.  :meth:`LPResult.spread` reads the same tableau for a solution
positive on every column that one non-degenerate pivot brings in, with no
LP at all: a mediant, which sums the numerators and sums the denominators
of solutions.  Columns pinned to zero are barred rather than given an extra
equation: they are left out of the tableau, so they never enter the basis.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from math import isqrt, lcm, prod
from operator import mul
from typing import Collection, Sequence

from ._record import Record, set_field

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
Solution = tuple[tuple[int, ...], int]  # integer numerators over a denominator > 0
# The signed machine words that array packs and unpacks in C, by width in bits.
_WORDS = {8 * array(code).itemsize: code for code in "iq"}


class LPResult(Record):
    """Outcome of phase 1 or of one optimisation, a solution as numerators
    ``x`` over ``den``; feasible phase 1 keeps its ``tableau`` for :meth:`optimize`,
    which takes no part in equality."""

    __slots__ = ("status", "x", "den", "objective", "farkas", "tableau")
    _fields = __slots__[:-1]
    status: str
    x: tuple[int, ...] | None
    den: int | None
    objective: Fraction | None
    farkas: tuple[Fraction, ...] | None
    tableau: _Tableau | None

    def __init__(
        self,
        status: str,
        x: tuple[int, ...] | None = None,
        den: int | None = None,
        objective: Fraction | None = None,
        farkas: tuple[Fraction, ...] | None = None,
        tableau: _Tableau | None = None,
    ) -> None:
        set_field(self, "status", status)
        set_field(self, "x", x)
        set_field(self, "den", den)
        set_field(self, "objective", objective)
        set_field(self, "farkas", farkas)
        set_field(self, "tableau", tableau)

    def optimize(self, objective: Sequence[int], maximize: bool = False) -> LPResult:
        """Optimize the integer ``objective`` over the system this
        feasibility result solved, by phase 2 on a copy of its tableau;
        ``self`` is unchanged, so any number of objectives can start from
        it."""
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
    rows: Sequence[Sequence[int]],
    rhs: Sequence[int],
    *,
    barred: Collection[int] = (),
    scales: Sequence[int] | None = None,
) -> LPResult:
    """Decide whether ``{x >= 0 : rows . x = rhs}`` is empty, by phase 1 only.

    Entries are integers, row i scaled by ``scales[i] > 0``, or by 1 when
    ``scales`` is None.  A feasible system comes back with some basic
    feasible point ``x``, and every optimum over it comes from
    :meth:`LPResult.optimize` on that result.  The ``barred`` columns
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
        scales = [1] * m
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
    # Each row is packed into one int, in fields that hold the cost row too.
    bound = _hadamard(rows, rhs, scales)
    fields = _Fields(_bits((m + 1) * bound), ncols + 1)
    tab = []
    for i, (row, s) in enumerate(zip(rows, scales)):
        # Row i is flip_i (d / s_i) [M_i | s_i e_i | b_i]: its artificial entry is d.
        values = [row[j] for j in columns]
        values.extend([0] * m)
        values[k + i] = flip[i] * s
        values.append(rhs[i])
        tab.append(fields.pack(values) * (flip[i] * (d // s)))
    basis = list(range(k, ncols))

    # Phase-1 reduced costs, last in the tableau: cost 1 on artificials,
    # priced out of the basis, which leaves minus the column sums elsewhere.
    tab.append(fields.pack([0] * k + [d] * m + [0]) - sum(tab))
    _, d = _iterate(tab, basis, k, d, fields)

    cost = fields.unpack(tab.pop())
    if cost[ncols] < 0:
        # y_i = 1 - reduced cost of artificial i, mapped back through flips.
        z = [flip[i] * (d - cost[k + i]) for i in range(m)]
        _check_farkas(rows, rhs, scales, z, columns)
        return LPResult(status=INFEASIBLE, farkas=tuple(Fraction(v, d) for v in z))

    # Pivot leftover artificials out of the basis; drop rows that turn out
    # to be redundant equations once the barred columns are zero.  No answer
    # reads the cost row any more, so it is left behind.
    keep: list[int] = []
    for r in range(m):
        if basis[r] < k:
            keep.append(r)
            continue
        col = next((j for j, v in enumerate(fields.unpack(tab[r])[:k]) if v), None)
        if col is None:
            continue
        d = _pivot(tab, basis, r, col, d, [fields.get(row, col) for row in tab])
        keep.append(r)
    # Keep fields 0 .. k-1 and the right-hand side of each kept row: biased,
    # the fields carry no borrow, so they can be cut and joined as bits.
    kept = _Fields(fields.bits, k + 1)
    low, top = (1 << fields.bits * k) - 1, fields.bits * ncols
    packed = [tab[r] + fields.bias for r in keep]
    start = _Tableau(
        rows, rhs, columns,
        [(v & low | v >> top << fields.bits * k) - kept.bias for v in packed],
        [basis[r] for r in keep], d, kept, bound,
    )
    x = _extract(start.tab, start.basis, columns, n, kept)
    check_solution(rows, rhs, x, d)
    return LPResult(status=OPTIMAL, x=x, den=d, tableau=start)


class _Tableau:
    """Phase 1's feasible integer tableau ``d * [B^-1 A | B^-1 b]`` over the
    columns that are not barred, each row packed by ``fields``, with its
    basis, the Hadamard ``bound`` on its entries, and the system it solves as
    integer rows ``s_i * A_i`` and right-hand sides ``s_i * b_i``."""

    __slots__ = ("rows", "rhs", "columns", "tab", "basis", "d", "fields", "bound")

    def __init__(self, rows, rhs, columns, tab, basis, d, fields, bound):
        self.rows, self.rhs, self.columns = rows, rhs, columns
        self.tab, self.basis, self.d = tab, basis, d
        self.fields, self.bound = fields, bound

    def optimize(self, objective, maximize) -> LPResult:
        n = len(self.rows[0])
        if len(objective) != n:
            raise ValueError("objective length does not match the variable count")
        sign = -1 if maximize else 1
        weights = [sign * objective[j] for j in self.columns]
        d, tab, fields = self.d, self.tab, self.fields
        size = [abs(w) for w in weights]
        need = (max(size, default=0) + sum(size)) * self.bound
        if need >= fields.half:
            # This cost row needs wider fields than phase 1's.
            wider = _Fields(_bits(need), fields.width)
            tab = [wider.pack(fields.unpack(row)) for row in tab]
            fields = wider
        cost = fields.pack([d * w for w in weights] + [0])
        for row, bv in zip(tab, self.basis):
            if weights[bv]:
                cost -= weights[bv] * row

        # Pivot on a new list, the cost row last; the kept rows stay as they are.
        tab, basis = tab + [cost], self.basis[:]
        status, d = _iterate(tab, basis, len(weights), d, fields)
        if status == UNBOUNDED:
            return LPResult(status=UNBOUNDED)
        x = _extract(tab, basis, self.columns, n, fields)
        total = fields.get(tab[-1], fields.width - 1)
        check_solution(self.rows, self.rhs, x, d, objective, -sign * total)
        return LPResult(status=OPTIMAL, x=x, den=d, objective=Fraction(-sign * total, d))

    def spread(self) -> Solution:
        # Column c's pivot on row r, at the ratio test's minimum b / p with
        # (b, p) = (tab[r][-1], tab[r][c]), reaches the basic solution with
        # numerators b on c and (p tab[i][-1] - tab[i][c] b) / d (exact by
        # Sylvester's identity) on B(i), over p.  Adding x's and theirs, over
        # d + sum(p), gives (tab[i][-1] (d + sum(p)) - sum_c tab[i][c] b_c) / d.
        tab, basis = [self.fields.unpack(row) for row in self.tab], self.basis
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


class _Fields:
    """The layout of rows of ``width`` integers, each packed into one int
    ``sum_j e_j 2**(bits j)`` with every ``|e_j| < half = 2**(bits - 1)``.

    ``bias`` is ``half`` in every field, so ``row + bias`` holds ``e_j + half``
    in field j with no borrow between fields: field j reads as
    ``((row + bias) >> bits j & mask) - half``, and ``e_j`` is negative
    exactly where that field's top bit is clear."""

    __slots__ = ("bits", "width", "half", "mask", "bias")

    def __init__(self, bits: int, width: int):
        self.bits, self.width = bits, width
        self.half = 1 << bits - 1
        self.mask = (1 << bits) - 1
        self.bias = int.from_bytes((bytes(bits // 8 - 1) + b"\x80") * width, "little")

    def pack(self, values: Sequence[int]) -> int:
        code = _WORDS.get(self.bits)
        if code:
            words = array(code, values)
            if sys.byteorder == "big":
                words.byteswap()
            data = words.tobytes()
        else:
            data = b"".join(v.to_bytes(self.bits // 8, "little", signed=True) for v in values)
        # Flipping each field's top bit turns two's complement into e_j + half.
        return (int.from_bytes(data, "little") ^ self.bias) - self.bias

    def unpack(self, row: int) -> list[int]:
        size = self.bits // 8
        data = ((row + self.bias) ^ self.bias).to_bytes(size * self.width, "little")
        code = _WORDS.get(self.bits)
        if not code:
            return [
                int.from_bytes(data[i:i + size], "little", signed=True)
                for i in range(0, len(data), size)
            ]
        words = array(code)
        words.frombytes(data)
        if sys.byteorder == "big":
            words.byteswap()
        return words.tolist()

    def get(self, row: int, j: int) -> int:
        return ((row + self.bias) >> self.bits * j & self.mask) - self.half


def _bits(bound: int) -> int:
    """The field width for entries of absolute value at most ``bound``: a
    machine word of :data:`_WORDS` when one holds them, else the fewest
    whole bytes that do."""
    need = bound.bit_length() + 1
    return next((bits for bits in sorted(_WORDS) if need <= bits), -(-need // 8) * 8)


def _hadamard(rows, rhs, scales) -> int:
    """``H = prod_i ||[M_i | s_i | b_i]||_2``, rounded up: no minor of the
    system exceeds it (Hadamard's inequality), and so no entry of any
    tableau the solver builds from it, barred columns or not, does."""
    square = prod(
        sum(map(mul, row, row)) + s * s + b * b for row, b, s in zip(rows, rhs, scales)
    )
    return isqrt(square - 1) + 1


def _iterate(tab, basis, n, d, fields) -> tuple[str, int]:
    """Run Bland-rule pivots on columns ``0 .. n-1`` of the packed rows
    ``tab``, whose last is the cost row, until optimality or unboundedness;
    return the status and the final denominator."""
    bits, bias, mask, half = fields.bits, fields.bias, fields.mask, fields.half
    signs = bias & (1 << bits * n) - 1  # the top bit of fields 0 .. n-1
    top = bits * (fields.width - 1)
    while True:
        cost = tab[-1] + bias
        negative = (signs | cost) ^ cost
        if not negative:
            return OPTIMAL, d
        entering = (negative & -negative).bit_length() // bits - 1
        shift = bits * entering
        column = [((row + bias) >> shift & mask) - half for row in tab]
        leaving = None
        for r in range(len(basis)):
            coeff = column[r]
            if coeff > 0:
                # rhs / coeff against best_rhs / best_coeff, both > 0.
                rhs = (tab[r] + bias >> top) - half
                if leaving is None:
                    leaving, best_rhs, best_coeff = r, rhs, coeff
                    continue
                lhs = rhs * best_coeff
                other = best_rhs * coeff
                if lhs < other or (lhs == other and basis[r] < basis[leaving]):
                    leaving, best_rhs, best_coeff = r, rhs, coeff
        if leaving is None:
            return UNBOUNDED, d
        d = _pivot(tab, basis, leaving, entering, d, column)


def _pivot(tab, basis, row, col, d, column) -> int:
    """Fraction-free pivot on ``(row, col)`` of the packed rows ``tab``, whose
    entries in column ``col`` are ``column``: every other row ``R``, with
    entry ``c`` there, becomes ``(p R - c P) / d`` for the pivot row ``P``;
    return the new denominator."""
    prow, p = tab[row], column[row]
    if p == 0:
        raise ValueError("pivot on a zero coefficient")
    if p < 0:
        prow, p = -prow, -p
        tab[row] = prow
    for r, (other, coeff) in enumerate(zip(tab, column)):
        if r != row:
            if coeff:
                tab[r] = (p * other - coeff * prow) // d
            elif p != d:
                tab[r] = p * other // d
    basis[row] = col
    return p


def _extract(tab, basis, columns, n, fields) -> tuple[int, ...]:
    x = [0] * n
    top = fields.width - 1
    for row, bv in zip(tab, basis):
        x[columns[bv]] = fields.get(row, top)
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


def _check_farkas(rows, rhs, scales, z, columns) -> None:
    """Raise unless ``y = z / d`` (any ``d > 0``) has ``y.A <= 0`` on
    ``columns`` and ``y.b > 0``, for ``[A_i | b_i] = [rows_i | rhs_i] /
    s_i``: times ``d L``, ``L = lcm(s)``, each sum is in integers."""
    L = lcm(*scales)
    w = [v * (L // s) for v, s in zip(z, scales)]
    for j in columns:
        if sum(wi * row[j] for wi, row in zip(w, rows)) > 0:
            raise AssertionError("Farkas certificate violates y.A <= 0")
    if sum(wi * b for wi, b in zip(w, rhs)) <= 0:
        raise AssertionError("Farkas certificate violates y.b > 0")
