"""Shared generators and independent mini-oracles for the test suite."""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from cohere import (
    FALSE,
    TRUE,
    Assessment,
    Atom,
    ConditionalEvent,
    ConstituentSet,
    Context,
    Event,
    EventSyntaxError,
    INF,
    KnowledgeBase,
    OperatorFamily,
    SizeLimitError,
    TruthValue3,
    UnknownAtomError,
    is_impossible,
    parse_event,
)
from cohere.events import MAX_DEPTH, And, Falsum, Not, Or, Verum
from cohere.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult, _check_farkas, solve_eq_lp

ATOM_POOL = ("A", "B", "C", "D", "E")
ZERO = Fraction(0)
ONE = Fraction(1)


def all_ones(kb: KnowledgeBase) -> Assessment:
    """Every conditional of ``kb`` at probability one, Adams' premises."""
    return Assessment(kb.conditionals, (ONE,) * len(kb))


def random_event(rng: random.Random, atoms: tuple[str, ...], depth: int = 2) -> Event:
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        return Atom(rng.choice(atoms))
    if roll < 0.6:
        return ~random_event(rng, atoms, depth - 1)
    left = random_event(rng, atoms, depth - 1)
    right = random_event(rng, atoms, depth - 1)
    return (left & right) if roll < 0.8 else (left | right)


def random_context(rng: random.Random, allow_constraints: bool) -> Context:
    n = rng.randint(2, 4)
    atoms = ATOM_POOL[:n]
    constraints: tuple[Event, ...] = ()
    if allow_constraints and rng.random() < 0.7:
        first = Atom(rng.choice(atoms))
        second = Atom(rng.choice(atoms))
        if rng.random() < 0.5:
            second = ~second
        constraints = (first & second,)
    ctx = Context(atoms, constraints)
    if not reference_worlds(ctx):
        return Context(atoms)
    return ctx


def random_conditional(rng: random.Random, ctx: Context) -> ConditionalEvent:
    while True:
        antecedent = random_event(rng, ctx.atoms)
        if is_impossible(antecedent, ctx):
            continue
        consequent = random_event(rng, ctx.atoms)
        return ConditionalEvent(consequent, antecedent, ctx)


def random_unit(rng: random.Random, max_denominator: int = 6) -> Fraction:
    den = rng.randint(1, max_denominator)
    return Fraction(rng.randint(0, den), den)


def random_assessment(
    rng: random.Random, max_size: int = 3, allow_constraints: bool = True
) -> Assessment:
    ctx = random_context(rng, allow_constraints)
    n = rng.randint(1, max_size)
    family = tuple(random_conditional(rng, ctx) for _ in range(n))
    probs = tuple(random_unit(rng) for _ in range(n))
    return Assessment(family, probs)


def independent_pairs(n: int) -> tuple[Context, tuple[ConditionalEvent, ...]]:
    """n conditional events over 2n fresh, unconstrained atoms."""
    atoms = tuple(f"E{i}" for i in range(1, n + 1)) + tuple(
        f"H{i}" for i in range(1, n + 1)
    )
    ctx = Context(atoms)
    family = tuple(
        ConditionalEvent(Atom(f"E{i}"), Atom(f"H{i}"), ctx) for i in range(1, n + 1)
    )
    return ctx, family


def gn_chain_context(k: int) -> tuple[Context, tuple[ConditionalEvent, ...]]:
    """A k-link chain E1|H1 <= ... <= Ek|Hk via pairwise inclusion constraints."""
    atoms = tuple(
        name for i in range(1, k + 1) for name in (f"E{i}", f"H{i}")
    )
    constraints = []
    for i in range(1, k):
        constraints += [
            parse_event(f"E{i} & H{i} & ~E{i + 1} & H{i + 1}"),
            parse_event(f"~H{i} & ~E{i + 1} & H{i + 1}"),
            parse_event(f"E{i} & H{i} & ~H{i + 1}"),
        ]
    ctx = Context(atoms, tuple(constraints))
    family = tuple(
        ConditionalEvent(Atom(f"E{i}"), Atom(f"H{i}"), ctx) for i in range(1, k + 1)
    )
    return ctx, family


# ---------------------------------------------------------------------------
# Per-world semantics: an event's value in one world, read off its tree with
# no mask, as the independent reference for the engine's one fold.  A world
# is a mapping from each atom of its context to its truth value, in the
# context's atom order.
# ---------------------------------------------------------------------------

World = Mapping[str, bool]


def evaluate(e: Event, w: World) -> bool:
    """The value of ``e`` in the world ``w``."""
    if isinstance(e, Atom):
        return w[e.name]
    if isinstance(e, Not):
        return not evaluate(e.operand, w)
    if isinstance(e, And):
        return evaluate(e.left, w) and evaluate(e.right, w)
    if isinstance(e, Or):
        return evaluate(e.left, w) or evaluate(e.right, w)
    if isinstance(e, Verum):
        return True
    if isinstance(e, Falsum):
        return False
    raise TypeError(f"not an event: {e!r}")


def truth_value(ce: ConditionalEvent, w: World) -> TruthValue3:
    """The three-valued truth value of ``ce`` in the world ``w``."""
    if not evaluate(ce.antecedent, w):
        return TruthValue3.VOID
    return TruthValue3.TRUE if evaluate(ce.consequent, w) else TruthValue3.FALSE


def truth_table_equal(a: ConditionalEvent, b: ConditionalEvent) -> bool:
    """Exhaustive world-by-world comparison, independent of `equivalent`."""
    assert a.context == b.context
    return all(truth_value(a, w) == truth_value(b, w) for _, w in reference_worlds(a.context))


# ---------------------------------------------------------------------------
# Reference parser: the recursive-descent parser that reads one character at
# a time, which the engine's token-list parser replaced.  The differential
# tests require the same tree, or the same exception, message and position.
# ---------------------------------------------------------------------------

_REFERENCE_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class ReferenceParser:
    def __init__(self, text: str, atoms=None):
        self.text = text
        self.pos = 0
        self.allowed = frozenset(atoms) if atoms is not None else None

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Event:
        expr = self.parse_or(1)
        self.skip_ws()
        if self.pos != len(self.text):
            raise EventSyntaxError(
                f"unexpected trailing input {self.text[self.pos:]!r}", self.pos
            )
        # A tree of L levels is written with at least L characters.
        if len(self.text) > MAX_DEPTH and reference_levels(expr) > MAX_DEPTH:
            raise SizeLimitError(f"event tree has more than {MAX_DEPTH} levels")
        return expr

    def parse_or(self, depth: int) -> Event:
        node = self.parse_and(depth)
        while self.peek() == "|":
            self.pos += 1
            node = Or(node, self.parse_and(depth))
        return node

    def parse_and(self, depth: int) -> Event:
        node = self.parse_unary(depth)
        while self.peek() == "&":
            self.pos += 1
            node = And(node, self.parse_unary(depth))
        return node

    def parse_unary(self, depth: int) -> Event:
        # ``depth``: one level for the operand, one per parenthesis or negation around it
        if depth > MAX_DEPTH:
            raise SizeLimitError(f"event nests more than {MAX_DEPTH} levels")
        if self.peek() == "~":
            self.pos += 1
            return Not(self.parse_unary(depth + 1))
        return self.parse_primary(depth)

    def parse_primary(self, depth: int) -> Event:
        ch = self.peek()
        if ch == "(":
            open_pos = self.pos
            self.pos += 1
            node = self.parse_or(depth + 1)
            if self.peek() != ")":
                raise EventSyntaxError("unbalanced parenthesis", open_pos)
            self.pos += 1
            return node
        match = _REFERENCE_NAME_RE.match(self.text, self.pos)
        if not match:
            raise EventSyntaxError(
                f"expected an event, found {ch!r}" if ch else "unexpected end of input",
                self.pos,
            )
        name = match.group(0)
        self.pos = match.end()
        if name == "T":
            return TRUE
        if name == "F":
            return FALSE
        if self.allowed is not None and name not in self.allowed:
            raise UnknownAtomError(f"unknown atom {name!r}")
        return Atom(name)


def reference_levels(e: Event) -> int:
    """The levels of ``e``'s tree, counted a layer at a time."""
    levels, layer = 0, [e]
    while layer:
        levels += 1
        layer = [n.operand for n in layer if isinstance(n, Not)] + [
            c for n in layer if isinstance(n, (And, Or)) for c in (n.left, n.right)
        ]
    return levels


def reference_parse_event(text: str, atoms=None) -> Event:
    return ReferenceParser(text, atoms).parse()


def reference_parse_conditional(text: str, context: Context) -> ConditionalEvent:
    """``parse_conditional`` on the reference parser, scanning the text a
    character at a time for the first top-level bar that splits it into
    two well-formed events."""
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "|" and depth == 0:
            try:
                consequent = reference_parse_event(text[:i], context.atoms)
                antecedent = reference_parse_event(text[i + 1:], context.atoms)
            except EventSyntaxError:
                continue
            return ConditionalEvent(consequent, antecedent, context)
    raise EventSyntaxError(
        "expected a conditional of the form 'consequent | antecedent'", len(text)
    )


# ---------------------------------------------------------------------------
# Reference semantics: the per-world loops that the assignment bitsets of
# `cohere.events` replaced.  Bit k stands for assignment k of all 2**n, in
# enumeration order, and is set only on admissible assignments.  Differential
# tests require the engine to return exactly the same masks and constituents.
# ---------------------------------------------------------------------------


def reference_worlds(ctx: Context) -> list[tuple[int, World]]:
    """Each admissible world with its assignment number, found by evaluating
    every constraint on every assignment."""
    out = []
    everything = itertools.product((False, True), repeat=len(ctx.atoms))
    for k, values in enumerate(everything):
        w = dict(zip(ctx.atoms, values))
        if not any(evaluate(c, w) for c in ctx.constraints):
            out.append((k, w))
    return out


def worlds_in(ctx: Context, mask: int) -> list[World]:
    """The admissible worlds whose assignment bits are set in ``mask``, in
    assignment order."""
    return [w for k, w in reference_worlds(ctx) if mask >> k & 1]


def literals(w: World) -> str:
    """The world written as its literals in atom order, as ``~A B``."""
    return " ".join(a if v else f"~{a}" for a, v in w.items())


def reference_masks(ce: ConditionalEvent) -> tuple[int, int]:
    """``(verifying, falsifying)`` assignment bitsets, one world at a time."""
    verifying = falsifying = 0
    for k, w in reference_worlds(ce.context):
        if evaluate(ce.antecedent, w):
            if evaluate(ce.consequent, w):
                verifying |= 1 << k
            else:
                falsifying |= 1 << k
    return verifying, falsifying


def reference_p_entails_qc(
    members: Sequence[ConditionalEvent], target: ConditionalEvent
) -> bool:
    """Quasi-conjunction entailment by exhaustive subset search, one world at
    a time: the target is never false, or the quasi conjunction of some
    nonempty subfamily never takes a higher value than the target under
    false < void < true.  The quasi conjunction is false where some member
    is false, and otherwise takes the members' highest value."""
    worlds = [w for _, w in reference_worlds(target.context)]
    goal = [truth_value(target, w) for w in worlds]
    if TruthValue3.FALSE not in goal:
        return True
    values = [[truth_value(ce, w) for w in worlds] for ce in members]
    for size in range(1, len(members) + 1):
        for subset in itertools.combinations(values, size):
            qc = [qc_value(column) for column in zip(*subset)]
            if all(q <= g for q, g in zip(qc, goal)):
                return True
    return False


def qc_value(values: Sequence[TruthValue3]) -> TruthValue3:
    """The quasi conjunction's value in a world where its members take
    ``values``: false where some member is false, else their highest."""
    return TruthValue3.FALSE if TruthValue3.FALSE in values else max(values)


def qd_value(values: Sequence[TruthValue3]) -> TruthValue3:
    """The quasi disjunction's value in a world where its members take
    ``values``: true where some member is true, else their lowest."""
    return TruthValue3.TRUE if TruthValue3.TRUE in values else min(values)


def reference_untolerated(columns: Sequence[Sequence[TruthValue3]]) -> list[int]:
    """Positions of the members that Adams' tolerance test never removes,
    one world at a time, where ``columns[i]`` holds member i's value in each
    admissible world.  Each round removes every member that some world
    verifies while it falsifies no member left; the family is p-consistent
    exactly when nothing is left."""
    rest = list(range(len(columns)))
    while rest:
        safe = [TruthValue3.FALSE not in values for values in zip(*(columns[j] for j in rest))]
        kept = [
            i for i in rest
            if not any(v == TruthValue3.TRUE and ok for v, ok in zip(columns[i], safe))
        ]
        if len(kept) == len(rest):
            break
        rest = kept
    return rest


def reference_constituents(family: Sequence[ConditionalEvent]) -> ConstituentSet:
    """Admissible worlds grouped by profile, classes in order of first world."""
    ctx = family[0].context
    groups: dict[tuple[TruthValue3, ...], int] = {}
    for k, w in reference_worlds(ctx):
        profile = tuple(truth_value(ce, w) for ce in family)
        groups[profile] = groups.get(profile, 0) | 1 << k
    c0 = groups.pop((TruthValue3.VOID,) * len(family), 0)
    return ConstituentSet(tuple(groups.values()), tuple(groups), c0)


def reference_sigma(a: Assessment, target: ConditionalEvent | None = None):
    """The constituent system as the paper writes it, in fractions: one point
    per constituent of ``reference_constituents``, entry j being 1, 0 or p_j
    as member j is true, false or void there, read column by column into one
    equation per member, and the unit-mass row last."""
    members = a.family + ((target,) if target is not None else ())
    coefficient = {TruthValue3.TRUE: ONE, TruthValue3.FALSE: ZERO}
    points = [
        [coefficient.get(v, p) for v, p in zip(profile, a.probs)]
        for profile in reference_constituents(members).profiles
    ]
    rows = [list(row) for row in zip(*points)] + [[ONE] * len(points)]
    return rows, list(a.probs) + [ONE]


def reference_zero_upper(system, start: LPResult) -> tuple[int, ...]:
    """The antecedents with zero upper probability over the solutions of
    ``start``, a phase 1 of the system's matrix, by mass LPs alone: drop the
    antecedents that ``start.x`` or a maximizer charges, and maximize the
    mass on the union of the others' supports until that maximum is zero."""
    remaining = tuple(range(len(system.matrix) - 1))
    solution = start.x
    while True:
        remaining = tuple(
            j for j in remaining if not any(solution[h] for h in system.supports[j])
        )
        if not remaining:
            return ()
        union = {h for j in remaining for h in system.supports[j]}
        objective = [int(h in union) for h in range(len(system.matrix[0]))]
        best = start.optimize(objective, maximize=True)
        if best.objective == 0:
            return remaining
        solution = best.x


def reference_gains(system, stakes: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Betting gain on each constituent of ``system`` for the given stake
    vector: the weights ``stakes[j] / scales[j]``, as integers over one
    denominator, times each member's payoff less its price."""
    weights = [Fraction(s, scale) for s, scale in zip(stakes, system.scales)]
    D = lcm(*(w.denominator for w in weights))
    W = [w.numerator * (D // w.denominator) for w in weights]
    return tuple(
        Fraction(sum(w * (q - b) for w, q, b in zip(W, column, system.rhs)), D)
        for column in zip(*system.matrix[:-1])
    )


def phase1_witness(system) -> tuple[Fraction, ...] | None:
    """The solution that the system's phase 1 found, in fractions, or None
    when the system has none."""
    result = system.phase1
    return solution(result) if result.status == OPTIMAL else None


def sigma_points(system) -> list[tuple[Fraction, ...]]:
    """The paper's constituent points Q_h, read back from a system's integer
    rows: Q_h[j] = matrix[j][h] / scales[j] over the members."""
    return [
        tuple(Fraction(q, s) for q, s in zip(column, system.scales))
        for column in zip(*system.matrix[:-1])
    ]


def rational_system(rows, rhs, scales):
    """The rational rows and right-hand sides that integer rows stand for
    under their scales."""
    return (
        [[Fraction(v, s) for v in row] for row, s in zip(rows, scales)],
        [Fraction(b, s) for b, s in zip(rhs, scales)],
    )


def integer_rows(rows, rhs) -> tuple[list[list[int]], list[int], list[int]]:
    """The integer rows ``s_i * A_i`` and right-hand sides ``s_i * b_i``,
    and the scales ``s_i``, each the lcm of row i's denominators: the
    inverse of :func:`rational_system`."""
    scales = [lcm(b.denominator, *(v.denominator for v in row)) for row, b in zip(rows, rhs)]
    integer = [
        [v.numerator * (s // v.denominator) for v in row] for row, s in zip(rows, scales)
    ]
    return integer, [b.numerator * (s // b.denominator) for b, s in zip(rhs, scales)], scales


# ---------------------------------------------------------------------------
# Direct formulas that `cohere.tnorms` and `cohere.inference` now derive by
# duality from the t-norms and the quasi-conjunction regions.  Differential
# tests require the derived values to equal these exactly.
# ---------------------------------------------------------------------------

def _reference_tconorm2(f: OperatorFamily, x: Fraction, y: Fraction) -> Fraction:
    if f.kind == "minimum":
        return max(x, y)
    if f.kind == "product":
        return x + y - x * y
    if f.kind == "lukasiewicz":
        return min(x + y, ONE)
    lam = f.parameter
    if f.kind == "drastic" or lam is INF:
        return max(x, y) if (x == 0 or y == 0) else ONE
    if lam == 0 and x == 1 and y == 1:
        return ONE
    return (x + y - x * y - (1 - lam) * x * y) / (1 - (1 - lam) * x * y)


def reference_tconorm(f: OperatorFamily, args: Sequence[Fraction]) -> Fraction:
    """Each family's t-conorm by its own binary formula, folded left to right."""
    out = args[0]
    for v in args[1:]:
        out = _reference_tconorm2(f, out, v)
    return out


def reference_hamacher0_conary(args: Sequence[Fraction]) -> Fraction:
    """The appendix's closed form of the Hamacher (parameter 0) t-conorm:
    1 when any argument is 1, else (sum p/(1-p)) / (sum p/(1-p) + 1)."""
    if any(v == 1 for v in args):
        return ONE
    total = sum(v / (1 - v) for v in args)
    return total / (total + 1)


def reference_in_u_gamma_qc(probs: Sequence[Fraction], gamma: Fraction) -> bool:
    """The quasi conjunction's upper region by its sequential threshold
    (gamma - u)/(1 - (2 - gamma) u), u the Hamacher (parameter 0) t-conorm
    of the premises so far."""
    if gamma == 1:
        return True
    up = probs[0]
    if up > gamma:
        return False
    for nxt in probs[1:]:
        # 1 - (2 - gamma) u >= (1 - u)^2 > 0 because u <= gamma < 1
        if nxt > (gamma - up) / (1 - (2 - gamma) * up):
            return False
        up = reference_hamacher0_conary([up, nxt])
    return True


def reference_in_l_gamma_qd(probs: Sequence[Fraction], gamma: Fraction) -> bool:
    """The quasi disjunction's lower region by its sequential threshold
    gamma l/(l - gamma + gamma l), l the Hamacher (parameter 0) t-norm of
    the premises so far."""
    if gamma == 0:
        return True
    low = probs[0]
    if low < gamma:
        return False
    for nxt in probs[1:]:
        # l (1 + gamma) - gamma >= gamma^2 > 0 because l >= gamma > 0
        if nxt < gamma * low / (low - gamma + gamma * low):
            return False
        low = low * nxt / (low + nxt - low * nxt)
    return True


def reference_in_u_gamma_qd(probs: Sequence[Fraction], gamma: Fraction) -> bool:
    """The quasi disjunction's upper region: total probability at most
    gamma (everything for gamma 1)."""
    return gamma == 1 or sum(probs) <= gamma


# ---------------------------------------------------------------------------
# Reference LP solver: the Fraction-tableau simplex that `cohere.simplex`
# replaced with integer pivots.  Differential tests require the engine to
# return exactly the same `answer`.
# ---------------------------------------------------------------------------

def solution(result: LPResult) -> tuple[Fraction, ...]:
    """A result's solution in fractions: its numerators over ``den``."""
    return tuple(Fraction(v, result.den) for v in result.x)


def answer(result: LPResult) -> tuple:
    """What an LP result answers: its status, solution in fractions, optimal
    value and Farkas vector.  Two results that agree on these may still hold
    their solution over different denominators."""
    x = None if result.x is None else solution(result)
    return result.status, x, result.objective, result.farkas


def solve_rational(rows, rhs, objective=None, maximize=False, *, barred=(), scales=None):
    """``solve_eq_lp`` on rational ``rows`` and ``rhs``, cleared to integers
    by :func:`integer_rows` unless their ``scales`` are given (then they are
    integers already), and then ``objective``'s optimum from its result when
    there is an objective and the system is feasible: the shape of
    ``reference_solve_eq_lp``'s answers."""
    if scales is None:
        rows, rhs, scales = integer_rows(rows, rhs)
    start = solve_eq_lp(rows, rhs, barred=barred, scales=scales)
    if objective is None or start.status != OPTIMAL:
        return start
    return optimize_rational(start, objective, maximize)


def optimize_rational(start: LPResult, objective, maximize=False) -> LPResult:
    """``start.optimize`` of a rational ``objective``: the integer objective
    times the lcm of its denominators, with the optimal value divided back."""
    scale = lcm(*(c.denominator for c in objective))
    best = start.optimize([c.numerator * (scale // c.denominator) for c in objective], maximize)
    if best.objective is None:
        return best
    return LPResult(best.status, best.x, best.den, best.objective / scale, best.farkas)


def reference_solve_eq_lp(
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    objective: Sequence[Fraction] | None = None,
    maximize: bool = False,
) -> LPResult:
    """Solve ``{x >= 0 : rows . x = rhs}``, optionally optimizing ``objective``.

    With ``objective=None`` only feasibility is decided; the returned ``x`` is
    then some basic feasible point, as numerators over the lcm of its
    denominators.  Infeasible systems come back with an exact Farkas
    certificate for the original (unflipped) rows.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if any(len(r) != n for r in rows) or len(rhs) != m:
        raise ValueError("inconsistent system dimensions")
    if m == 0:
        raise ValueError("at least one constraint row is required")

    # Normalize signs so every right-hand side is nonnegative.
    flip = [ONE if rhs[i] >= 0 else -ONE for i in range(m)]
    tab = [[flip[i] * Fraction(rows[i][j]) for j in range(n)] for i in range(m)]
    b = [flip[i] * Fraction(rhs[i]) for i in range(m)]

    # Artificial columns n .. n+m-1 form the starting basis.
    for i in range(m):
        tab[i].extend(ONE if k == i else ZERO for k in range(m))
        tab[i].append(b[i])
    basis = list(range(n, n + m))
    ncols = n + m

    # Phase-1 reduced costs: cost 1 on artificials, priced out of the basis.
    cost = [ZERO] * ncols + [ZERO]
    for j in range(n):
        cost[j] = -sum(tab[i][j] for i in range(m))
    cost[ncols] = -sum(tab[i][ncols] for i in range(m))

    _reference_iterate(tab, cost, basis, ncols, allowed=range(n))

    phase1_value = -cost[ncols]
    if phase1_value > 0:
        # y_i = 1 - reduced cost of artificial i, mapped back through flips.
        y = tuple(flip[i] * (ONE - cost[n + i]) for i in range(m))
        _check_farkas(*integer_rows(rows, rhs), y, range(n))
        return LPResult(status=INFEASIBLE, farkas=y)

    # Pivot leftover artificials out of the basis; drop rows that turn out
    # to be redundant equations.
    keep: list[int] = []
    for r in range(m):
        if basis[r] < n:
            keep.append(r)
            continue
        col = next((j for j in range(n) if tab[r][j] != 0), None)
        if col is None:
            continue
        _reference_pivot(tab, cost, basis, r, col, ncols)
        keep.append(r)
    tab = [tab[r] for r in keep]
    basis = [basis[r] for r in keep]
    tab = [row[:n] + [row[ncols]] for row in tab]

    if objective is None:
        return _reference_optimum(tab, basis, n)

    if len(objective) != n:
        raise ValueError("objective length does not match the variable count")
    sign = -ONE if maximize else ONE
    cost = [sign * Fraction(c) for c in objective] + [ZERO]
    for r, bv in enumerate(basis):
        if cost[bv] != 0:
            coeff = cost[bv]
            for j in range(n + 1):
                cost[j] -= coeff * tab[r][j]

    status = _reference_iterate(tab, cost, basis, n, allowed=range(n))
    if status == UNBOUNDED:
        return LPResult(status=UNBOUNDED)
    value = sign * -cost[n]
    return _reference_optimum(tab, basis, n, objective=value)


def _reference_iterate(tab, cost, basis, rhs_col, allowed) -> str:
    """Run Bland-rule pivots until optimality or unboundedness."""
    while True:
        entering = next((j for j in allowed if cost[j] < 0), None)
        if entering is None:
            return OPTIMAL
        best_ratio = None
        leaving = None
        for r in range(len(tab)):
            coeff = tab[r][entering]
            if coeff > 0:
                ratio = tab[r][rhs_col] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = r
        if leaving is None:
            return UNBOUNDED
        _reference_pivot(tab, cost, basis, leaving, entering, rhs_col)


def _reference_pivot(tab, cost, basis, row, col, rhs_col) -> None:
    pivot = tab[row][col]
    if pivot == 0:
        raise ValueError("pivot on a zero coefficient")
    prow = tab[row]
    if pivot != 1:
        for j in range(rhs_col + 1):
            prow[j] /= pivot
    for r, other in enumerate(tab):
        if r == row or other[col] == 0:
            continue
        coeff = other[col]
        for j in range(rhs_col + 1):
            other[j] -= coeff * prow[j]
    if cost[col] != 0:
        coeff = cost[col]
        for j in range(rhs_col + 1):
            cost[j] -= coeff * prow[j]
    basis[row] = col


def _reference_optimum(tab, basis, n, objective=None) -> LPResult:
    x = [ZERO] * n
    for r, bv in enumerate(basis):
        if bv < n:
            x[bv] = tab[r][-1]
    den = lcm(*(v.denominator for v in x))
    numerators = tuple(v.numerator * (den // v.denominator) for v in x)
    return LPResult(status=OPTIMAL, x=numerators, den=den, objective=objective)
