"""Conditional events with three-valued semantics.

A conditional event ``E | H`` is true in a world where ``E & H`` holds, false
where ``~E & H`` holds, and void where ``H`` fails.  Quasi conjunction and
quasi disjunction combine families of conditionals into a single conditional
on the disjunction of the antecedents.  :func:`constituents` partitions
the admissible worlds by their joint truth-value profile into plain
bitsets, each with its profile, which is the input to all coherence
computations; a family with more than :data:`MAX_CONSTITUENTS` classes is
refused.  Every semantic question here is a bit operation on a
conditional's verifying and falsifying masks, each built by the one fold of
``events``, and no world is built.  Computing them is also how a
conditional is checked: the fold rejects undeclared atoms, and an empty
antecedent mask is an impossible antecedent.
"""

from __future__ import annotations

import enum
from typing import Sequence

from ._record import Record, set_field
from .errors import EventSyntaxError, ImpossibleAntecedentError, SizeLimitError
from .events import (
    Context,
    Event,
    Not,
    and_all,
    is_impossible,
    or_all,
    parse_event,
)


class TruthValue3(enum.IntEnum):
    """Three-valued outcome, totally ordered false < void < true."""

    FALSE = 0
    VOID = 1
    TRUE = 2

    def __str__(self) -> str:
        return TruthValue3.NAMES[self]


# Printed names, indexed by value; set after the class body, where a tuple
# would be taken for a member (enum.nonmember needs Python 3.11).
TruthValue3.NAMES = ("False", "Void", "True")


class ConditionalEvent(Record):
    """A pair consequent-given-antecedent, valid in a fixed context.

    Construction computes :attr:`masks` once, the ``(verifying,
    falsifying)`` bitsets over the context's assignments: bit k is set when
    assignment k is admissible and makes ``E & H``, respectively ``~E & H``,
    true.  Both come from the folded consequent and antecedent, consequent
    first, with no world visited; the fold rejects undeclared atoms, and the
    antecedent must then be possible.  The masks take no part in equality.
    """

    _fields = ("consequent", "antecedent", "context")
    consequent: Event
    antecedent: Event
    context: Context
    masks: tuple[int, int]

    def __init__(self, consequent: Event, antecedent: Event, context: Context) -> None:
        set_field(self, "consequent", consequent)
        set_field(self, "antecedent", antecedent)
        set_field(self, "context", context)
        consequent_mask = context.mask(consequent)
        antecedent_mask = context.mask(antecedent)
        if not antecedent_mask:
            raise ImpossibleAntecedentError(
                f"antecedent {antecedent} is impossible in this context"
            )
        verifying = antecedent_mask & consequent_mask
        set_field(self, "masks", (verifying, antecedent_mask ^ verifying))

    def __str__(self) -> str:
        return f"{self.consequent} | {self.antecedent}"


def negate(ce: ConditionalEvent) -> ConditionalEvent:
    """Negate the consequent, keeping the antecedent."""
    return ConditionalEvent(Not(ce.consequent), ce.antecedent, ce.context)


def _shared_context(family: Sequence[ConditionalEvent]) -> Context:
    if not family:
        raise ValueError("family must be nonempty")
    ctx = family[0].context
    for ce in family[1:]:
        if ce.context is not ctx and ce.context != ctx:
            raise ValueError("conditional events must share one context")
    return ctx


def quasi_conjunction(family: Sequence[ConditionalEvent]) -> ConditionalEvent:
    """Conjoin conditionals: no member false and not all void, given some
    antecedent occurs.

    Returns ``(E1H1 v ~H1) & ... & (EnHn v ~Hn) | (H1 v ... v Hn)``; a
    singleton family is returned unchanged.
    """
    ctx = _shared_context(family)
    if len(family) == 1:
        return family[0]
    consequent = and_all([(ce.consequent & ce.antecedent) | ~ce.antecedent for ce in family])
    antecedent = or_all([ce.antecedent for ce in family])
    return ConditionalEvent(consequent, antecedent, ctx)


def quasi_disjunction(family: Sequence[ConditionalEvent]) -> ConditionalEvent:
    """Dual of :func:`quasi_conjunction`: some member true, given some
    antecedent occurs."""
    ctx = _shared_context(family)
    if len(family) == 1:
        return family[0]
    consequent = or_all([ce.consequent & ce.antecedent for ce in family])
    antecedent = or_all([ce.antecedent for ce in family])
    return ConditionalEvent(consequent, antecedent, ctx)


def quasi_masks(family: Sequence[ConditionalEvent]) -> tuple[tuple[int, int], tuple[int, int]]:
    """The ``(verifying, falsifying)`` masks of the quasi conjunction and of
    the quasi disjunction of ``family``, from the members' masks alone, so
    no formula is built however large the family.  Member i verifies
    ``V_i`` and falsifies ``F_i``, and its antecedent holds on ``V_i | F_i``:
    the quasi conjunction falsifies the union of the ``F_i`` and verifies
    the rest of the antecedents' union; the quasi disjunction verifies the
    union of the ``V_i`` and falsifies the rest."""
    _shared_context(family)
    verifying = falsifying = 0
    for ce in family:
        v, f = ce.masks
        verifying |= v
        falsifying |= f
    antecedent = verifying | falsifying
    return (antecedent ^ falsifying, falsifying), (verifying, antecedent ^ verifying)


def gn_includes(
    a: ConditionalEvent | tuple[int, int], b: ConditionalEvent | tuple[int, int]
) -> bool:
    """Goodman-Nguyen inclusion: the truth value of ``a`` never exceeds the
    truth value of ``b`` under false < void < true.

    Equivalently, every world falsifying ``b`` falsifies ``a``, and every
    world verifying ``a`` verifies ``b``.  Either side may be given by its
    ``(verifying, falsifying)`` masks in the other's context, as
    :func:`quasi_masks` returns them.
    """
    if isinstance(a, ConditionalEvent) and isinstance(b, ConditionalEvent):
        _shared_context([a, b])
    a_verifying, a_falsifying = getattr(a, "masks", a)
    b_verifying, b_falsifying = getattr(b, "masks", b)
    return not (
        (b_falsifying | a_falsifying) ^ a_falsifying or (a_verifying | b_verifying) ^ b_verifying
    )


def n_conditional(events: Sequence[Event], context: Context) -> ConditionalEvent:
    """Conjunction of all events given their disjunction.

    Generalizes the biconditional (two events) and equals the quasi
    conjunction of any deranged loop of pairwise conditionals.
    """
    if len(events) < 1:
        raise ValueError("n_conditional requires at least one event")
    for e in events:
        if is_impossible(e, context):
            raise ImpossibleAntecedentError(f"event {e} is impossible in this context")
    return ConditionalEvent(and_all(list(events)), or_all(list(events)), context)


def biconditional(a: Event, b: Event, context: Context) -> ConditionalEvent:
    """Both events given at least one of them: ``a & b | (a v b)``."""
    return n_conditional([a, b], context)


def equivalent(a: ConditionalEvent, b: ConditionalEvent) -> bool:
    """Semantic equality: world-equivalent antecedents and identical truth
    values on every admissible world, that is equal verifying and falsifying
    masks."""
    _shared_context([a, b])
    return a.masks == b.masks


# ---------------------------------------------------------------------------
# Constituents
# ---------------------------------------------------------------------------


MAX_CONSTITUENTS = 2187  # 3**7: desk scale for the constituent count


class ConstituentSet(Record):
    """Partition of the admissible worlds induced by a family of conditionals.

    ``inside`` lists the classes meeting at least one antecedent, each an
    assignment bitset, ordered by lowest set bit, which is the class's
    lexicographically first world; ``profiles[h]`` is class ``h``'s truth
    value under each member.  ``c0`` is the bitset of the worlds where every
    antecedent fails, 0 when there are none.  Together the bitsets partition
    the context's ``full_mask``.
    """

    _fields = ("inside", "profiles", "c0")
    inside: tuple[int, ...]
    profiles: tuple[tuple[TruthValue3, ...], ...]
    c0: int

    def __init__(
        self, inside: tuple[int, ...], profiles: tuple[tuple[TruthValue3, ...], ...], c0: int
    ) -> None:
        set_field(self, "inside", inside)
        set_field(self, "profiles", profiles)
        set_field(self, "c0", c0)

    def __len__(self) -> int:
        return len(self.inside) + (1 if self.c0 else 0)


def constituents(family: Sequence[ConditionalEvent]) -> ConstituentSet:
    """Group admissible worlds by their profile over ``family``.

    Two worlds share a class iff every conditional takes the same truth value
    in both.  The bitset of all admissible assignments is split by each
    member's falsifying, void and verifying masks in turn, so every class
    is one bitset and no world is built.  Classes are ordered by their
    lowest set bit, which is their first admissible world, so that derived
    matrices are reproducible.
    """
    ctx = _shared_context(family)
    full = ctx.full_mask
    # Each split refines the last, so the count only grows: refusing as soon
    # as it passes the bound holds at most three times the bound classes.
    classes: list[tuple[int, tuple[TruthValue3, ...]]] = [(full, ())]
    for ce in family:
        verifying, falsifying = ce.masks
        parts = (
            (falsifying, TruthValue3.FALSE),
            (full ^ verifying ^ falsifying, TruthValue3.VOID),
            (verifying, TruthValue3.TRUE),
        )
        classes = [
            (cls & part, profile + (value,))
            for cls, profile in classes
            for part, value in parts
            if cls & part
        ]
        if len(classes) > MAX_CONSTITUENTS:
            raise SizeLimitError(
                f"family of {len(family)} conditionals generates more than "
                f"{MAX_CONSTITUENTS} constituents"
            )
    classes.sort(key=lambda c: (c[0] & -c[0]).bit_length())
    all_void = tuple([TruthValue3.VOID] * len(family))
    c0 = 0
    inside, profiles = [], []
    for cls, profile in classes:
        if profile == all_void:
            c0 = cls
        else:
            inside.append(cls)
            profiles.append(profile)
    return ConstituentSet(tuple(inside), tuple(profiles), c0)


# ---------------------------------------------------------------------------
# Conditional expression parsing
# ---------------------------------------------------------------------------


def parse_conditional(text: str, context: Context) -> ConditionalEvent:
    """Parse ``consequent | antecedent`` using the event grammar.

    The conditioning bar is the first bar at parenthesis depth zero that
    splits the text into two well-formed events; any later top-level bars
    belong to the antecedent.  ``(A | B) | H`` therefore denotes the
    disjunction of A and B conditioned on H.
    """
    i = text.find("|")
    while i >= 0:
        # Depth zero: as many parentheses close before the bar as open.
        if text.count("(", 0, i) == text.count(")", 0, i):
            try:
                consequent = parse_event(text[:i], context.atom_set)
                antecedent = parse_event(text[i + 1:], context.atom_set)
            except EventSyntaxError:
                pass
            else:
                return ConditionalEvent(consequent, antecedent, context)
        i = text.find("|", i + 1)
    raise EventSyntaxError(
        "expected a conditional of the form 'consequent | antecedent'", len(text)
    )
