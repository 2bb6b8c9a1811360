"""Brute-force cross-checks by exact vertex enumeration.

The constituent system of an assessment carves a polytope out of the unit
simplex.  At desk scale every basic feasible solution can be enumerated by
Gaussian elimination over column subsets, so extension intervals can be read
off vertex ratios with no simplex involved.  The constituent system itself
comes from the shared builder :func:`cohere.coherence.build_sigma`, and the
interval left for an emptied family from the LP path's own closed form; the
oracle's independence from the LP path lies in the vertex enumeration and in
its own level-descending treatment of zero-probability conditioning events,
which mirrors the LP path's so that the two are comparable.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from .coherence import (
    Assessment,
    ProbabilityInterval,
    _standalone_interval,
    build_sigma,
)
from .conditionals import ConditionalEvent
from .errors import IncoherentAssessmentError, SizeLimitError

ZERO = Fraction(0)

VERTEX_ENUMERATION_LIMIT = 14


def _reduce(rows: list[list[Fraction]], ncols: int) -> int:
    """Gauss-Jordan elimination in place, pivoting on the first ``ncols``
    columns only; returns the rank found there.  Each pivot row leads with
    a one in its pivot column, and the pivot rows come first."""
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        inv = Fraction(1, prow[col])
        for j in range(col, len(prow)):
            prow[j] *= inv
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                for j in range(col, len(prow)):
                    rows[r][j] -= f * prow[j]
        rank += 1
    return rank


def _solve_unique(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[Fraction, ...] | None:
    """Unique exact solution of a (possibly overdetermined) system, or None
    when the columns are dependent or the system is inconsistent."""
    ncols = len(matrix[0])
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
    rank = _reduce(rows, ncols)
    if rank < ncols or any(row[ncols] != 0 for row in rows[rank:]):
        return None
    return tuple(rows[i][ncols] for i in range(ncols))


def vertices(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[tuple[Fraction, ...], ...]:
    """All distinct basic feasible solutions of ``matrix . x = rhs``,
    ``x >= 0``, exactly.

    Every column subset of size rank(matrix) with independent columns and a
    consistent, nonnegative solve yields one vertex; subsets beyond the desk
    bound of 14 variables are refused.
    """
    m = len(matrix[0]) if matrix else 0
    if m > VERTEX_ENUMERATION_LIMIT:
        raise SizeLimitError(
            f"{m} variables exceed the vertex-enumeration bound of "
            f"{VERTEX_ENUMERATION_LIMIT}"
        )
    rank = _reduce([list(row) for row in matrix], m)
    augmented = [list(row) + [b] for row, b in zip(matrix, rhs)]
    if _reduce(augmented, m + 1) > rank:
        return ()
    found: dict[tuple[Fraction, ...], None] = {}
    for subset in itertools.combinations(range(m), rank):
        sub = [[row[j] for j in subset] for row in matrix]
        solution = _solve_unique(sub, rhs)
        if solution is None or any(v < 0 for v in solution):
            continue
        full = [ZERO] * m
        for j, v in zip(subset, solution):
            full[j] = v
        found[tuple(full)] = None
    return tuple(found.keys())


def extension_interval_bruteforce(
    a: Assessment, target: ConditionalEvent
) -> ProbabilityInterval:
    """Extension interval from vertex ratios, descending through
    zero-probability layers the same way the LP path does."""
    lo, hi, vacuous = _levels(a, target)
    return ProbabilityInterval(lo, hi, vacuous=vacuous)


def _levels(
    a: Assessment | None, target: ConditionalEvent
) -> tuple[Fraction, Fraction, bool]:
    if a is None:
        return _standalone_interval(target)

    system = build_sigma(a, target)
    verts = vertices(system.matrix, system.rhs)
    if not verts:
        raise IncoherentAssessmentError("base system unexpectedly unsolvable")
    *supports, den = system.supports
    num = system.target_true

    den_values = [sum(v[h] for h in den) for v in verts]
    ratios = [
        sum(v[h] for h in num) / dv for v, dv in zip(verts, den_values) if dv > 0
    ]

    def descend(vertex_pool):
        next_indices = [
            j
            for j, support in enumerate(supports)
            if all(sum(v[h] for h in support) == 0 for v in vertex_pool)
        ]
        return _levels(a.restrict(next_indices) if next_indices else None, target)

    if not ratios:
        return descend(verts)

    lo, hi = min(ratios), max(ratios)
    zero_den = [v for v, dv in zip(verts, den_values) if dv == 0]
    if not zero_den:
        return lo, hi, False
    deep_lo, deep_hi, _ = descend(zero_den)
    return min(lo, deep_lo), max(hi, deep_hi), False
