"""Default-reasoning layer: p-consistency, p-entailment, and bound formulas.

A knowledge base p-entails a conditional when every coherent extension of the
all-ones assessment gives the conclusion probability one.  The coherence of an
all-ones assessment is Adams' p-consistency (Gilio 2002, "Probabilistic
reasoning under coherence in System P", Ann. Math. Artif. Intell. 34), so both
questions are decided exactly by Adams' tolerance test (Adams 1975, The Logic
of Conditionals), on the verifying and falsifying world masks of the members,
with no linear program.  The quasi-conjunction route finds, by the same test,
the one subfamily whose quasi conjunction can be included in the target in the
Goodman-Nguyen order, and checks that inclusion.  The closed-form bound
propagation functions assume logically independent premises; under logical
constraints the true bounds can only be tighter, so route constrained problems
through the extension-interval path of ``coherence`` instead.  They import
the t-norms where they use them, so deciding entailment never loads them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Sequence

from ._record import Record, set_field
from .coherence import ProbabilityInterval
from .conditionals import (
    ConditionalEvent,
    _shared_context,
    gn_includes,
    quasi_masks,
)
from .errors import CohereError, NotPConsistentError, SizeLimitError
from .events import Atom, Context
from .rationals import as_unit

LOOP_MAX = 16


class KnowledgeBase(Record):
    """Named conditional events over one context."""

    _fields = ("context", "names", "conditionals")
    context: Context
    names: tuple[str, ...]
    conditionals: tuple[ConditionalEvent, ...]

    def __init__(
        self, context: Context, names: Sequence[str], conditionals: Sequence[ConditionalEvent]
    ) -> None:
        set_field(self, "context", context)
        set_field(self, "names", tuple(names))
        set_field(self, "conditionals", tuple(conditionals))
        if len(names) != len(conditionals):
            raise ValueError("names and conditionals differ in length")
        if len(set(names)) != len(names):
            raise ValueError("conditional names must be unique")
        for ce in conditionals:
            if ce.context is not context and ce.context != context:
                raise ValueError("conditionals must live in the knowledge base context")

    def __len__(self) -> int:
        return len(self.conditionals)

    def get(self, name: str) -> ConditionalEvent:
        try:
            return self.conditionals[self.names.index(name)]
        except ValueError:
            raise KeyError(name) from None


def _tolerance_test(masks: Sequence[tuple[int, int]]) -> list[int]:
    """Positions of the ``(verifying, falsifying)`` mask pairs that Adams'
    tolerance test never removes.

    A member is tolerated by a family when some admissible world verifies it
    and falsifies no member of the family.  Each round removes every member
    tolerated by the members still left; the removed sets are the layers of
    the System Z partition (Goldszmidt & Pearl 1996), and the family is
    p-consistent exactly when nothing is left (Adams 1975).
    """
    rest = list(range(len(masks)))
    while rest:
        unsafe = 0
        for i in rest:
            unsafe |= masks[i][1]
        kept = [i for i in rest if not (masks[i][0] | unsafe) ^ unsafe]
        if len(kept) == len(rest):
            break
        rest = kept
    return rest


def _untolerated(family: Sequence[ConditionalEvent]) -> tuple[ConditionalEvent, ...]:
    """The members that Adams' tolerance test never removes.

    Every world that meets an antecedent of what is left falsifies one of its
    members, so a stake of -1 on each of them wins on every constituent: the
    remainder certifies that its all-ones assessment is incoherent.
    """
    _shared_context(family)
    return tuple(family[i] for i in _tolerance_test([ce.masks for ce in family]))


def p_consistent(kb: KnowledgeBase) -> bool:
    """True iff assigning probability one to every member is coherent.

    Decided by Adams' tolerance test, which coincides with coherence for
    all-ones assessments (Gilio 2002).  An empty base raises ``ValueError``.
    """
    return not _untolerated(kb.conditionals)


def p_entails(kb: KnowledgeBase, target: ConditionalEvent) -> bool:
    """Exact p-entailment: the coherent extensions of the all-ones assessment
    to the target reduce to the single value one.

    A p-consistent base p-entails the target exactly when assigning one to
    every member and zero to the target, that is one to its negation, is
    incoherent (Gilio 2002), so one tolerance test of the base plus the
    negated target decides it.  The negation verifies where the target
    falsifies and the other way round, so its masks are the target's swapped.
    A p-consistent extension contains the base as a p-consistent subfamily,
    so only a failed test needs the base tested on its own, to tell a
    p-inconsistent base (``NotPConsistentError``) from an entailment.  An
    empty base, or a target from another context, raises ``ValueError``.
    """
    _shared_context(kb.conditionals)  # an empty base raises ValueError
    _shared_context((*kb.conditionals, target))  # so does a foreign target
    verifying, falsifying = target.masks
    if not _tolerance_test([*(ce.masks for ce in kb.conditionals), (falsifying, verifying)]):
        return False
    if not p_consistent(kb):
        raise NotPConsistentError("knowledge base is not p-consistent")
    return True


def p_entails_qc(kb: KnowledgeBase, target: ConditionalEvent) -> bool:
    """Quasi-conjunction entailment check.

    Succeeds when the target's antecedent implies its consequent, or when the
    quasi conjunction of some nonempty subfamily is included in the target
    under the Goodman-Nguyen order; the target's antecedent-consequent
    conjunction must be possible.  The subfamilies whose quasi conjunction
    verifies only where the target does are closed under union, and covering
    the target's falsifying worlds only gets easier as a subfamily grows, so
    only the largest of them needs the inclusion test.  Adams' tolerance test
    on the members' verifying worlds outside the target's finds it, because it
    drops only members that no such subfamily can hold.
    """
    members = kb.conditionals
    _shared_context((*members, target))
    verifying, falsifying = target.masks
    if not verifying:
        raise CohereError(
            "quasi-conjunction entailment requires a possible "
            "antecedent-consequent conjunction on the target"
        )
    if not p_consistent(kb):
        raise NotPConsistentError("knowledge base is not p-consistent")
    if not falsifying:
        return True
    kept = _tolerance_test(
        [((v | verifying) ^ verifying, f) for v, f in (ce.masks for ce in members)]
    )
    return bool(kept) and gn_includes(quasi_masks([members[i] for i in kept])[0], target)


# ---------------------------------------------------------------------------
# Closed-form bound propagation (logical independence assumed)
# ---------------------------------------------------------------------------


def _units(probs: Sequence[Fraction]) -> list[Fraction]:
    if not probs:
        raise ValueError("at least one premise probability is required")
    return [as_unit(p, f"p{i + 1}") for i, p in enumerate(probs)]


def qc_bounds(probs: Sequence[Fraction]) -> ProbabilityInterval:
    """Quasi conjunction of independent premises: Lukasiewicz lower bound,
    Hamacher (parameter 0) conorm upper bound."""
    from .tnorms import LUKASIEWICZ, hamacher0_conary, tnorm

    p = _units(probs)
    return ProbabilityInterval(tnorm(LUKASIEWICZ, p), hamacher0_conary(p))


def qd_bounds(probs: Sequence[Fraction]) -> ProbabilityInterval:
    """Quasi disjunction: Hamacher (parameter 0) lower bound, Lukasiewicz
    conorm upper bound."""
    from .tnorms import LUKASIEWICZ, hamacher0_nary, tconorm

    p = _units(probs)
    return ProbabilityInterval(hamacher0_nary(p), tconorm(LUKASIEWICZ, p))


def or_rule_bounds(probs: Sequence[Fraction]) -> ProbabilityInterval:
    """Same event under alternative conditioning events: Hamacher
    (parameter 0) pair on both sides."""
    from .tnorms import hamacher0_conary, hamacher0_nary

    p = _units(probs)
    return ProbabilityInterval(hamacher0_nary(p), hamacher0_conary(p))


def gn_chain_bounds(probs: Sequence[Fraction]) -> ProbabilityInterval:
    """Quasi conjunction of a Goodman-Nguyen chain: the premise probabilities
    must be nondecreasing and the interval spans them."""
    p = _units(probs)
    if any(a > b for a, b in zip(p, p[1:])):
        raise ValueError("chain premises must be nondecreasing")
    return ProbabilityInterval(p[0], p[-1])


def compound_bounds(probs: Sequence[Fraction]) -> ProbabilityInterval:
    """Chained conditioning: the extension is uniquely the product."""
    from .tnorms import PRODUCT, tnorm

    value = tnorm(PRODUCT, _units(probs))
    return ProbabilityInterval(value, value)


def dual_compound_value(x: Fraction, y: Fraction) -> Fraction:
    """Disjunction built from a conditional and its complement-conditioned
    companion: the probabilistic sum, the product t-conorm."""
    from .tnorms import PRODUCT, tconorm

    return tconorm(PRODUCT, [as_unit(x, "x"), as_unit(y, "y")])


def biconditional_value(x: Fraction, y: Fraction) -> Fraction:
    """Both-given-either: the Hamacher (parameter 0) t-norm, zero at (0, 0)."""
    from .tnorms import hamacher0_nary

    return hamacher0_nary([as_unit(x, "x"), as_unit(y, "y")])


# ---------------------------------------------------------------------------
# Premise regions from conclusion bounds
# ---------------------------------------------------------------------------


def in_l_gamma_qc(probs: Sequence[Fraction], gamma: Fraction) -> bool:
    """Premises forcing the quasi conjunction's lower bound to at least
    gamma: total probability at least gamma + n - 1 (everything for gamma 0)."""
    p = _units(probs)
    g = as_unit(gamma, "gamma")
    if g == 0:
        return True
    return sum(p) >= g + len(p) - 1


def in_u_gamma_qc(probs: Sequence[Fraction], gamma: Fraction) -> bool:
    """Premises forcing the quasi conjunction's upper bound, the Hamacher
    (parameter 0) t-conorm, to at most gamma (everything for gamma 1)."""
    from .tnorms import hamacher0_conary

    p = _units(probs)
    g = as_unit(gamma, "gamma")
    return hamacher0_conary(p) <= g


def in_l_gamma_qd(probs: Sequence[Fraction], gamma: Fraction) -> bool:
    """Premises forcing the quasi disjunction's lower bound to at least gamma.

    That bound is the Hamacher (parameter 0) t-norm, the dual of the quasi
    conjunction's upper bound, so this is :func:`in_u_gamma_qc` of the
    complemented premises at 1 - gamma: the t-norm is at least gamma
    (everything for gamma 0)."""
    p = _units(probs)
    g = as_unit(gamma, "gamma")
    return in_u_gamma_qc([1 - v for v in p], 1 - g)


def in_u_gamma_qd(probs: Sequence[Fraction], gamma: Fraction) -> bool:
    """Premises forcing the quasi disjunction's upper bound to at most gamma.

    That bound is the Lukasiewicz t-conorm, the dual of the quasi
    conjunction's lower bound, so this is :func:`in_l_gamma_qc` of the
    complemented premises at 1 - gamma: total probability at most gamma
    (everything for gamma 1)."""
    p = _units(probs)
    g = as_unit(gamma, "gamma")
    return in_l_gamma_qc([1 - v for v in p], 1 - g)


# ---------------------------------------------------------------------------
# Loop families
# ---------------------------------------------------------------------------


def _loop_context(n: int) -> Context:
    if not 2 <= n <= LOOP_MAX:
        raise SizeLimitError(f"loop size must be between 2 and {LOOP_MAX}")
    return Context(tuple(f"A{i}" for i in range(1, n + 1)))


def loop_family(n: int, context: Context | None = None) -> KnowledgeBase:
    """The cyclic family A2|A1, ..., An|A(n-1), A1|An, over fresh atoms
    A1..An (which need 2 <= n <= LOOP_MAX) unless a context is given."""
    ctx = context if context is not None else _loop_context(n)
    names = []
    conditionals = []
    for j in range(1, n + 1):
        i = j % n + 1
        names.append(f"c{j}")
        conditionals.append(ConditionalEvent(Atom(f"A{i}"), Atom(f"A{j}"), ctx))
    return KnowledgeBase(ctx, tuple(names), tuple(conditionals))


def deranged_family(
    n: int, derangement: Sequence[int], context: Context
) -> KnowledgeBase:
    """The family A(i_j)|A(j) for a fixed-point-free permutation i."""
    if sorted(derangement) != list(range(1, n + 1)):
        raise ValueError(f"{derangement} is not a permutation of 1..{n}")
    if any(i == j for j, i in enumerate(derangement, start=1)):
        raise ValueError(f"{derangement} has a fixed point")
    names = tuple(f"d{j}" for j in range(1, n + 1))
    conditionals = tuple(
        ConditionalEvent(Atom(f"A{i}"), Atom(f"A{j}"), context)
        for j, i in enumerate(derangement, start=1)
    )
    return KnowledgeBase(context, names, conditionals)


def loop_entails(n: int, derangement: Sequence[int]) -> bool:
    """Mutual p-entailment between the cyclic family and a deranged family."""
    ctx = _loop_context(n)
    loop = loop_family(n, ctx)
    other = deranged_family(n, derangement, ctx)
    return all(p_entails(loop, t) for t in other.conditionals) and all(
        p_entails(other, t) for t in loop.conditionals
    )


def derangements(n: int) -> Iterator[tuple[int, ...]]:
    """All fixed-point-free permutations of 1..n."""
    for perm in itertools.permutations(range(1, n + 1)):
        if all(i != j for j, i in enumerate(perm, start=1)):
            yield perm
