"""Coherence checking and coherent-extension intervals, exactly.

A probability assessment on a family of conditional events is coherent when
it admits no finite combination of conditional bets with uniformly positive
gain.  Geometrically this says the probability vector lies in the convex hull
of the constituent points, refined recursively on the subfamily whose
conditioning events all have zero upper probability over the solution set.
This module builds the constituent system, decides solvability with the
exact simplex, extracts positive-gain stake certificates from Farkas vectors
when the system is infeasible, and computes the interval of coherent
extensions to a further conditional event with a Charnes-Cooper style
homogenization that descends through zero-probability layers.

Both the coherence recursion and the interval descent find that
zero-probability subfamily with one routine, :func:`zero_upper`: starting
from the spread point of a phase 1 of the system, which already charges
every antecedent that one non-degenerate pivot from the phase-1 basis
reaches, it maximizes the mass of the union of the antecedents that no
solution found so far charges, until that maximum is zero (Biazzo & Gilio
2000).  Solutions stay numerators over one denominator, combined by mediants.

Each objective starts from a phase 1's feasible tableau, and
:attr:`SigmaSystem.phase1` runs once per system.  An interval level adds a
homogenized phase 1, whose verdict is whether some solution charges the
target's antecedent, so the level optimizes only the ratio.  Only when the
ratio's extremes leave room below 0 or above 1 does a phase 1 with that
antecedent barred run, to ask whether some solution leaves it uncharged,
and only then can a descent below the level widen the interval.

An extension interval's endpoints are proved by the solutions those LPs
already found, not by running the recursion on the extended family: a
solution that meets the target's equation at the endpoint leaves a set of
members without mass that contains the zero-probability layer, so by
heredity their coherence completes the proof.  Those members belong to the
base, so the base's coherence implies theirs, and the same solutions
reduce that too.  A solution of the top level's refined system that
charges some base antecedent restricts, renormalized, to a solution of
the base's own system, since the classes where only the target's
antecedent holds carry no base antecedent.  So the base's zero-probability
layer I0 lies within the set S of base members that none of the top
level's known solutions charges, and by heredity the base is coherent
exactly when S is (Biazzo & Gilio 2000; Gilio 2002): outright when S is
empty.  The solutions are checked exactly, and one coherence check of S,
when it is not empty, closes the proof.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import compress
from math import lcm
from operator import mul
from typing import TYPE_CHECKING, Iterable, Sequence

from ._record import Record, set_field
from .conditionals import (
    ConditionalEvent,
    _shared_context,
    constituents,
)
from .errors import IncoherentAssessmentError, ProbabilityRangeError
from .events import Context
from .rationals import fraction_str, type_refused

# The simplex is imported inside each function that solves or checks an LP,
# so a process that needs none never compiles it.
if TYPE_CHECKING:
    from .simplex import LPResult, Solution

ZERO = Fraction(0)
ONE = Fraction(1)
# Indexed by a TruthValue3: whether it is not void, and whether it is true.
_NOT_VOID = (1, 0, 1)
_TRUE = (0, 0, 1)


class Assessment(Record):
    """A finite family of conditional events with exact probabilities."""

    _fields = ("family", "probs")
    family: tuple[ConditionalEvent, ...]
    probs: tuple[Fraction, ...]

    def __init__(self, family: Sequence[ConditionalEvent], probs: Sequence[Fraction]) -> None:
        set_field(self, "family", tuple(family))
        set_field(self, "probs", tuple(probs))
        if not family:
            raise ValueError("an assessment needs at least one conditional event")
        if len(family) != len(probs):
            raise ValueError("family and probability vector differ in length")
        _shared_context(family)
        for p in probs:
            if isinstance(p, (float, str)):
                raise type_refused(p, "a probability")
            if not 0 <= p <= 1:
                raise ProbabilityRangeError(f"probability {fraction_str(p)} outside [0, 1]")

    @property
    def context(self) -> Context:
        return self.family[0].context

    def restrict(self, indices: Sequence[int]) -> "Assessment":
        return Assessment(
            tuple(self.family[i] for i in indices),
            tuple(self.probs[i] for i in indices),
        )

    def extend(self, ce: ConditionalEvent, p: Fraction) -> "Assessment":
        if isinstance(p, (float, str)):
            raise type_refused(p, "a probability")
        return Assessment(self.family + (ce,), self.probs + (Fraction(p),))


class SigmaSystem(Record):
    """Constituent system of an assessment, optionally refined by a target,
    in integers: row j < n is member j's equation times ``scales[j] =
    den(p_j)``, so ``matrix[j][h]`` is ``den(p_j)``, 0 or ``num(p_j)`` as
    constituent ``h`` makes conditional ``j`` true, false or void (the
    paper's point Q_h times the scale), and ``rhs[j]`` is ``num(p_j)``.  The
    last row is unit mass, with scale 1.  ``supports[j]`` lists the
    constituents where antecedent ``j`` holds, the target's last;
    ``target_true`` lists those where the target is true.
    """

    _fields = ("matrix", "rhs", "scales", "supports", "target_true")
    matrix: tuple[tuple[int, ...], ...]
    rhs: tuple[int, ...]
    scales: tuple[int, ...]
    supports: tuple[tuple[int, ...], ...]
    target_true: tuple[int, ...]

    def __init__(
        self,
        matrix: tuple[tuple[int, ...], ...],
        rhs: tuple[int, ...],
        scales: tuple[int, ...],
        supports: tuple[tuple[int, ...], ...],
        target_true: tuple[int, ...] = (),
    ) -> None:
        set_field(self, "matrix", matrix)
        set_field(self, "rhs", rhs)
        set_field(self, "scales", scales)
        set_field(self, "supports", supports)
        set_field(self, "target_true", target_true)

    @cached_property
    def phase1(self) -> LPResult:
        """Phase 1 of the system, run once; every mass LP over it starts from
        this result's tableau."""
        from .simplex import solve_eq_lp

        return solve_eq_lp(self.matrix, self.rhs, scales=self.scales)

    @cached_property
    def homogenized(self) -> LPResult:
        """Phase 1 of the Charnes-Cooper homogenization of a system refined
        by a target, run once: variables (y, t), each row ``[M_j | -rhs_j]``
        under its scale, homogeneous, and the target's antecedent mass of y
        equal to one.  The unit-mass row makes t the mass of y, so t > 0 at
        every feasible (y, t), and y / t is a solution of the system that
        charges the target's antecedent; the system has one exactly when
        this phase 1 is feasible."""
        from .simplex import solve_eq_lp

        m = len(self.matrix[0])
        hom_matrix = [row + (-b,) for row, b in zip(self.matrix, self.rhs)]
        hom_matrix.append(_indicator(self.supports[-1], m + 1))
        return solve_eq_lp(hom_matrix, [0] * len(self.matrix) + [1], scales=self.scales + (1,))

    def _cleared(self, stakes: Sequence[Fraction]) -> tuple[int, list[int]]:
        """The weights ``stakes[j] / scales[j]`` as integers ``W`` over one
        denominator ``D > 0``, returned as ``(D, W)``."""
        weights = [Fraction(s, scale) for s, scale in zip(stakes, self.scales)]
        D = lcm(*(w.denominator for w in weights))
        return D, [w.numerator * (D // w.denominator) for w in weights]

    def gains(self, stakes: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Betting gain on each constituent for the given stake vector."""
        D, W = self._cleared(stakes)
        return tuple(
            Fraction(sum(w * (q - b) for w, q, b in zip(W, column, self.rhs)), D)
            for column in zip(*self.matrix[:-1])
        )


def build_sigma(a: Assessment, target: ConditionalEvent | None = None) -> SigmaSystem:
    """Build the constituent system of an assessment.

    Column ``h`` is read off constituent ``h``'s profile alone; the class
    bitsets are not needed.  A ``target`` refines the constituents by its
    own truth value, so it can split columns but adds no equation: it
    carries no probability.  Column order follows the deterministic
    constituent order, so repeated builds yield identical matrices.
    """
    members = tuple(a.family) + ((target,) if target is not None else ())
    cs = constituents(members)
    # Member j's truth values; each IntEnum value indexes (0, num, den).
    columns = tuple(zip(*cs.profiles))
    matrix = tuple(
        tuple(map((0, p.numerator, p.denominator).__getitem__, column))
        for column, p in zip(columns, a.probs)
    )
    constituent_indices = range(len(cs.inside))
    supports = tuple(
        tuple(compress(constituent_indices, map(_NOT_VOID.__getitem__, column)))
        for column in columns
    )
    target_true = ()
    if target is not None:
        target_true = tuple(compress(constituent_indices, map(_TRUE.__getitem__, columns[-1])))
    return SigmaSystem(
        matrix=matrix + ((1,) * len(cs.inside),),
        rhs=tuple(p.numerator for p in a.probs) + (1,),
        scales=tuple(p.denominator for p in a.probs) + (1,),
        supports=supports,
        target_true=target_true,
    )


class SigmaFeasibility(Record):
    """Outcome of solving a constituent system: exactly one of a solution
    (mass vector) or a positive-gain stake certificate."""

    __slots__ = _fields = ("witness", "certificate")
    witness: tuple[Fraction, ...] | None
    certificate: tuple[Fraction, ...] | None

    def __init__(
        self,
        witness: tuple[Fraction, ...] | None = None,
        certificate: tuple[Fraction, ...] | None = None,
    ) -> None:
        set_field(self, "witness", witness)
        set_field(self, "certificate", certificate)


def sigma_feasible(system: SigmaSystem) -> SigmaFeasibility:
    """Solve the system, or refute it with stakes whose gain is positive on
    every constituent."""
    from .simplex import OPTIMAL

    result = system.phase1
    if result.status == OPTIMAL:
        den = result.den
        return SigmaFeasibility(witness=tuple(Fraction(v, den) if v else ZERO for v in result.x))
    n = len(system.matrix) - 1
    stakes = tuple(-result.farkas[j] for j in range(n))
    # Every gain that SigmaSystem.gains computes is positive exactly when
    # each constituent's weighted payoff exceeds the weighted prices, all in
    # integers over the weights' one denominator.
    _, W = system._cleared(stakes)
    price = sum(map(mul, W, system.rhs))
    if any(sum(map(mul, W, column)) <= price for column in zip(*system.matrix[:-1])):
        raise AssertionError("certificate extraction produced a non-positive gain")
    return SigmaFeasibility(certificate=stakes)


def zero_upper(system: SigmaSystem, start: LPResult) -> tuple[tuple[int, ...], Solution]:
    """Indices of the antecedents with zero upper probability over the
    solutions of ``start``, a phase 1 of the system's matrix (some columns
    possibly barred), and the mediant of the solutions visited on the way,
    as numerators over one denominator.

    An antecedent that a known solution charges has positive upper
    probability.  The first is ``start.spread()``, positive on ``start.x``'s
    support and on every column one non-degenerate pivot from its basis
    brings in, so a mass LP is needed only for the antecedents it leaves
    uncharged: they all have zero upper probability exactly when the maximum
    mass on the union of their supports is zero, and otherwise the maximizer
    charges at least one of them.  Every round optimizes from ``start``.
    The mediant, a convex combination of those solutions, charges every
    antecedent outside the returned indices.
    """
    from .simplex import OPTIMAL

    if start.status != OPTIMAL:
        raise IncoherentAssessmentError("mass optimization on an unsolvable system")
    remaining = range(len(system.matrix) - 1)
    solution, den = start.spread()
    mediant = solution
    while True:
        remaining = _uncharged(system, solution, remaining)
        if not remaining:
            return (), (mediant, den)
        union = sorted({h for j in remaining for h in system.supports[j]})
        best = start.optimize(_indicator(union, len(system.matrix[0])), maximize=True)
        if best.objective == 0:
            return remaining, (mediant, den)
        solution = best.x
        mediant = tuple(u + v for u, v in zip(mediant, solution))
        den += best.den


def _uncharged(system: SigmaSystem, x: Sequence[int], members: Iterable[int]) -> tuple[int, ...]:
    """The indices among ``members`` whose antecedent the mass vector ``x``
    over the system's constituents leaves without mass."""
    return tuple(j for j in members if not any(x[h] for h in system.supports[j]))


def _indicator(support: Sequence[int], width: int) -> list[int]:
    vector = [0] * width
    for h in support:
        vector[h] = 1
    return vector


class LevelRecord(Record):
    """One recursion level: which original indices were examined, the
    solution found (if any), and the zero-upper-probability subset."""

    __slots__ = _fields = ("indices", "i0", "witness")
    indices: tuple[int, ...]
    i0: tuple[int, ...]
    witness: tuple[Fraction, ...] | None

    def __init__(
        self, indices: tuple[int, ...], i0: tuple[int, ...], witness: tuple[Fraction, ...] | None
    ) -> None:
        set_field(self, "indices", indices)
        set_field(self, "i0", i0)
        set_field(self, "witness", witness)


class CoherenceVerdict(Record):
    """The levels examined, and stakes refuting the last one, if any."""

    __slots__ = _fields = ("certificate", "trace")
    certificate: tuple[Fraction, ...] | None
    trace: tuple[LevelRecord, ...]

    def __init__(
        self, certificate: tuple[Fraction, ...] | None, trace: tuple[LevelRecord, ...]
    ) -> None:
        set_field(self, "certificate", certificate)
        set_field(self, "trace", trace)

    @property
    def coherent(self) -> bool:
        return self.certificate is None

    @property
    def witness(self) -> tuple[Fraction, ...] | None:
        return self.trace[-1].witness

    @property
    def deciding_indices(self) -> tuple[int, ...]:
        return self.trace[-1].indices


def check_coherence(a: Assessment) -> CoherenceVerdict:
    """Decide coherence by descending through zero-probability layers.

    Solve the constituent system; on failure the verdict carries the stake
    certificate for the refuted sub-assessment.  On success, recurse on the
    subfamily whose conditioning events have zero upper probability over the
    solution set; the assessment is coherent when that subfamily is empty.
    """
    trace: list[LevelRecord] = []
    indices = tuple(range(len(a.family)))
    while True:
        current = a.restrict(indices)
        system = build_sigma(current)
        feasibility = sigma_feasible(system)
        if feasibility.certificate is not None:
            trace.append(LevelRecord(indices, (), None))
            return CoherenceVerdict(feasibility.certificate, tuple(trace))
        i0 = tuple(indices[j] for j in zero_upper(system, system.phase1)[0])
        trace.append(LevelRecord(indices, i0, feasibility.witness))
        if not i0:
            return CoherenceVerdict(None, tuple(trace))
        if len(i0) >= len(indices):
            raise AssertionError("zero-probability layer failed to shrink")
        indices = i0


# ---------------------------------------------------------------------------
# Coherent-extension intervals
# ---------------------------------------------------------------------------


class ProbabilityInterval(Record):
    """Closed interval of coherent extension values.

    ``vacuous`` marks the convention case where the target's conditioning
    event is unreachable and nothing else constrains the value.
    """

    __slots__ = _fields = ("lo", "hi", "vacuous")
    lo: Fraction
    hi: Fraction
    vacuous: bool

    def __init__(self, lo: Fraction, hi: Fraction, vacuous: bool = False) -> None:
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)
        set_field(self, "vacuous", vacuous)
        for name, value in (("the lower endpoint", lo), ("the upper endpoint", hi)):
            if isinstance(value, (float, str)):
                raise type_refused(value, name)
        if not (0 <= lo <= hi <= 1):
            raise ValueError(f"invalid interval [{lo}, {hi}]")

    def __contains__(self, z: Fraction) -> bool:
        return self.lo <= z <= self.hi

    def __str__(self) -> str:
        return f"[{fraction_str(self.lo)}, {fraction_str(self.hi)}]"


def _standalone_interval(target: ConditionalEvent) -> tuple[Fraction, Fraction, bool]:
    """Coherent values for a single conditional with no companions left."""
    verifying, falsifying = target.masks
    if not verifying:
        return ZERO, ZERO, False
    if not falsifying:
        return ONE, ONE, False
    return ZERO, ONE, True


def _fractional_bounds(system: SigmaSystem) -> tuple[tuple[Fraction, Solution], ...] | None:
    """Extremes of the target's value, its target-true mass over its
    antecedent mass, over the solutions of a system refined by the target
    that charge the antecedent, each with a solution that attains it, as
    numerators over one denominator, or ``None`` when no solution charges
    the antecedent.

    Homogenization (Charnes & Cooper 1962) scales solutions so the
    antecedent mass is one: :attr:`SigmaSystem.homogenized` decides that
    case and serves both extremes, and at an optimum (y, t), y / t attains
    the ratio, as the numerators of y over the numerator of t, with no
    division.
    """
    from .simplex import OPTIMAL

    start = system.homogenized
    if start.status != OPTIMAL:
        return None
    m = len(system.matrix[0])
    objective = _indicator(system.target_true, m + 1)
    optima = (start.optimize(objective, maximize) for maximize in (False, True))
    return tuple((best.objective, (best.x[:m], best.x[m])) for best in optima)


class _Link(Record):
    """One level of an endpoint's proof: the base indices the level
    examined, its system with the target, and a solution of that system,
    numerators over one denominator, whose target-true mass is the endpoint
    times its target-antecedent mass."""

    __slots__ = _fields = ("indices", "system", "solution")
    indices: tuple[int, ...]
    system: SigmaSystem
    solution: Solution

    def __init__(self, indices: tuple[int, ...], system: SigmaSystem, solution: Solution) -> None:
        set_field(self, "indices", indices)
        set_field(self, "system", system)
        set_field(self, "solution", solution)


class _Endpoint(Record):
    """An interval endpoint and the levels that prove it, from the top."""

    __slots__ = _fields = ("value", "chain")
    value: Fraction
    chain: tuple[_Link, ...]

    def __init__(self, value: Fraction, chain: tuple[_Link, ...]) -> None:
        set_field(self, "value", value)
        set_field(self, "chain", chain)

    def below(self, link: _Link) -> "_Endpoint":
        return _Endpoint(self.value, (link,) + self.chain)


def _interval_levels(
    a: Assessment | None, target: ConditionalEvent, indices: tuple[int, ...]
) -> tuple[_Endpoint, _Endpoint, bool]:
    """Interval of values solving the layered constituent conditions, each
    endpoint with its proof.

    At each level the target contributes no equation; its value is the ratio
    of target-true mass to antecedent mass.  The homogenized phase 1 of
    :func:`_fractional_bounds` decides the level when the ratio spans [0, 1],
    since no deeper interval can widen that; otherwise a phase 1 with the
    antecedent's columns barred follows.  When no solution charges the
    antecedent, or some solution leaves it uncharged and so escapes the ratio
    constraint, descend from the feasible phase 1 to the subfamily that has
    zero upper probability there and merge the deeper interval.  ``None``
    stands for the empty family left at the bottom of a descent; ``indices``
    maps ``a``'s members to the base's.

    An endpoint met at a fractional level is proved there by the optimum's
    solution.  One taken from below is proved by the descent's mediant
    solution, which leaves the target's antecedent uncharged, so it meets
    the target's row for every value, followed by the deeper proof.
    """
    if a is None:
        lo, hi, vacuous = _standalone_interval(target)
        return _Endpoint(lo, ()), _Endpoint(hi, ()), vacuous

    from .simplex import OPTIMAL, solve_eq_lp

    system = build_sigma(a, target)
    den = system.supports[-1]

    def descend(start: LPResult) -> tuple[_Endpoint, _Endpoint, bool]:
        next_indices, mediant = zero_upper(system, start)
        deeper = a.restrict(next_indices) if next_indices else None
        lo, hi, vacuous = _interval_levels(
            deeper, target, tuple(indices[j] for j in next_indices)
        )
        link = _Link(indices, system, mediant)
        return lo.below(link), hi.below(link), vacuous

    bounds = _fractional_bounds(system)
    if bounds is None:
        return descend(system.phase1)

    lo, hi = (
        _Endpoint(value, (_Link(indices, system, solution),)) for value, solution in bounds
    )
    if lo.value == 0 and hi.value == 1:
        # Nothing below can widen [0, 1]: the merge would keep these.
        return lo, hi, False
    zero_den = solve_eq_lp(system.matrix, system.rhs, barred=den, scales=system.scales)
    if zero_den.status != OPTIMAL:
        return lo, hi, False

    # Zero-denominator solutions exist: values outside [lo, hi] stay coherent
    # exactly when the subfamily with zero upper probability on that part
    # admits them, so merge the deeper interval.
    deep_lo, deep_hi, _ = descend(zero_den)
    return (
        lo if lo.value <= deep_lo.value else deep_lo,
        hi if hi.value >= deep_hi.value else deep_hi,
        False,
    )


def _open_indices(end: _Endpoint, target: ConditionalEvent) -> tuple[int, ...]:
    """Check an endpoint's proof exactly, and return the base indices that
    its top level's solution leaves uncharged.

    Each level's solution must solve its system and meet the target's row at
    the endpoint.  The members it leaves uncharged contain that level's
    zero-probability layer, so by heredity their coherence completes the
    level (Biazzo & Gilio 2000): the target among them hands over to the
    next level, which must examine exactly the others, or to the target's
    standalone values below the last level; a level that charges the target
    ends the chain.  The members a level leaves to a coherence check belong
    to the base, so the base's coherence completes the proof, and the top
    level's uncharged members contain the base's own zero-probability layer
    (see :func:`extension_interval`).
    """
    from .simplex import check_solution

    z = end.value
    expected = None
    top = ()
    for depth, link in enumerate(end.chain):
        system, (w, den) = link.system, link.solution
        if expected is not None and link.indices != expected:
            raise AssertionError("extension proof skips a zero-probability level")
        # target-true mass == z * target-antecedent mass, times z's denominator
        target_row = [0] * len(w)
        for h in system.supports[-1]:
            target_row[h] -= z.numerator
        for h in system.target_true:
            target_row[h] += z.denominator
        check_solution(system.matrix + (target_row,), system.rhs + (0,), w, den)
        uncharged = tuple(link.indices[j] for j in _uncharged(system, w, range(len(link.indices))))
        if not depth:
            top = uncharged
        if not _uncharged(system, w, (len(system.supports) - 1,)):
            if depth != len(end.chain) - 1:
                raise AssertionError("extension proof continues past a charged target")
            return top
        expected = uncharged
    if expected:
        raise AssertionError("extension proof stops above a zero-probability level")
    lo, hi, _ = _standalone_interval(target)
    if not lo <= z <= hi:
        raise AssertionError(
            f"extension endpoint {fraction_str(z)} is not a value of the target alone"
        )
    return top


def extension_interval(a: Assessment, target: ConditionalEvent) -> ProbabilityInterval:
    """Interval of values z such that appending ``target = z`` to the
    assessment stays coherent.

    The base assessment must itself be coherent.  Each endpoint comes with
    solutions, one per level it descended through, that prove it up to the
    coherence of a subfamily of the base, so up to the base's coherence;
    they are checked exactly.  The top level's solutions also reduce the
    base's coherence to that of the set S of base members none of them
    charges: a solution of the refined system that charges some base
    antecedent restricts, renormalized, to a solution of the base's own
    system, since the classes where only the target's antecedent holds
    carry no base antecedent.  So the base's zero-probability layer I0 lies
    within S, and by heredity the base is coherent exactly when S is, and
    outright when S is empty (Gilio 2002).  The solutions pooled are the
    top links of both endpoints' proofs and, when those leave S non-empty,
    the spread point (y, t) of the homogenized phase 1, read as y / t; each
    is checked exactly where it is made.  S is checked with
    :func:`check_coherence` only when it is not empty.

    An incoherent base raises ``IncoherentAssessmentError``, from that check,
    since I0 within S makes S incoherent too, or from the interval descent;
    a proof that fails its exact check is an engine fault and raises
    ``AssertionError``.
    """
    from .simplex import OPTIMAL

    lo, hi, vacuous = _interval_levels(a, target, tuple(range(len(a.family))))
    open_indices = sorted(set(_open_indices(lo, target)).intersection(_open_indices(hi, target)))
    # Both proofs start at the top level's system, whose homogenized phase 1
    # the interval has already run.
    system = lo.chain[0].system
    if open_indices and system.homogenized.status == OPTIMAL:
        y, _ = system.homogenized.spread()
        open_indices = _uncharged(system, y, open_indices)
    if open_indices and not check_coherence(a.restrict(open_indices)).coherent:
        raise IncoherentAssessmentError("cannot extend an incoherent base assessment")
    return ProbabilityInterval(lo.value, hi.value, vacuous=vacuous)


# ---------------------------------------------------------------------------
# JSON shapes
# ---------------------------------------------------------------------------


def verdict_to_json(v: CoherenceVerdict) -> dict:
    return {
        "coherent": v.coherent,
        "witness": [fraction_str(x) for x in v.witness] if v.witness else None,
        "certificate": (
            [fraction_str(s) for s in v.certificate] if v.certificate else None
        ),
        "trace": [
            {"indices": list(rec.indices), "I0": list(rec.i0)} for rec in v.trace
        ],
    }


def interval_to_json(iv: ProbabilityInterval) -> dict:
    return {
        "lo": fraction_str(iv.lo),
        "hi": fraction_str(iv.hi),
        "vacuous": iv.vacuous,
    }
