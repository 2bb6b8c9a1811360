"""Event algebra: parsing, printing, world enumeration, semantic queries."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cohere import (
    Atom,
    Context,
    EventSyntaxError,
    FALSE,
    SizeLimitError,
    TRUE,
    UnknownAtomError,
    enumerate_worlds,
    implies,
    is_impossible,
    parse_event,
    world_equivalent,
)
from cohere.events import MAX_DEPTH, And, Not, Or, and_all

from helpers import evaluate, random_event


class TestParser:
    def test_conjunction_with_negation(self):
        assert parse_event("A & ~B") == And(Atom("A"), Not(Atom("B")))

    def test_constants(self):
        assert parse_event("T") is TRUE
        assert parse_event("F") is FALSE

    def test_precedence(self):
        assert parse_event("A | (B & C)") == Or(Atom("A"), And(Atom("B"), Atom("C")))
        # ~ binds tighter than &, which binds tighter than |
        assert parse_event("~A & B | C") == Or(
            And(Not(Atom("A")), Atom("B")), Atom("C")
        )

    def test_left_associative(self):
        assert parse_event("A & B & C") == And(And(Atom("A"), Atom("B")), Atom("C"))

    def test_syntax_error_carries_position(self):
        with pytest.raises(EventSyntaxError) as err:
            parse_event("A & ")
        assert err.value.position == 4

    def test_unbalanced_parenthesis(self):
        with pytest.raises(EventSyntaxError):
            parse_event("(A | B")

    def test_trailing_garbage(self):
        with pytest.raises(EventSyntaxError):
            parse_event("A B")

    def test_unknown_atom_when_vocabulary_given(self):
        with pytest.raises(UnknownAtomError):
            parse_event("A & X", atoms=("A", "B"))

    def test_roundtrip_examples(self):
        for text in ("A & ~B", "A | (B & C)", "~(A | B) & C", "A & (B & C)", "T | ~F"):
            event = parse_event(text)
            assert parse_event(str(event)) == event


def _deep(levels):
    """Formulas in ``A`` with exactly ``levels`` levels: ``A`` itself, or its
    negation after an odd number of ``~``."""
    mixed = ("~(" * levels)[: levels - 1]
    return {
        "flat": " & ".join(["A"] * levels),
        "negations": "~" * (levels - 1) + "A",
        "parentheses": "(" * (levels - 1) + "A" + ")" * (levels - 1),
        "negated parentheses": mixed + "A" + ")" * mixed.count("("),
    }


class TestDepthBound:
    """Formulas exactly at ``MAX_DEPTH`` parse, fold and print under pytest's
    own stack; one level more is a size limit, raised before any recursion
    could overflow."""

    @pytest.mark.parametrize("shape", _deep(MAX_DEPTH))
    def test_at_the_bound_is_accepted(self, shape):
        ctx = Context(("A", "B"))
        text = _deep(MAX_DEPTH)[shape]
        event = parse_event(text, ctx.atoms)
        negated = text.count("~") % 2
        assert ctx.mask(event) == ctx.mask(Not(Atom("A")) if negated else Atom("A"))
        assert parse_event(str(event), ctx.atoms) == event

    @pytest.mark.parametrize("shape", _deep(MAX_DEPTH + 1))
    def test_beyond_the_bound_is_refused(self, shape):
        with pytest.raises(SizeLimitError, match=f"more than {MAX_DEPTH} levels"):
            parse_event(_deep(MAX_DEPTH + 1)[shape])


def test_conjunction_of_a_thousand_events():
    # A left-deep fold of 1000 events overflowed the stack in the mask fold
    # and in printing; the pairwise fold is about 10 levels deep.
    ctx = Context(("A", "B"))
    event = and_all([Atom("A")] * 1000)
    assert ctx.mask(event) == ctx.mask(Atom("A"))
    text = str(event)
    assert text.count("A") == 1000
    assert parse_event(text, ctx.atoms) == event


def _random_tree(seed):
    rng = random.Random(seed)
    return random_event(rng, ("A", "B", "C"), depth=3)


@given(st.integers(0, 10_000))
def test_roundtrip_random_trees(seed):
    event = _random_tree(seed)
    assert parse_event(str(event)) == event


def _worlds(ctx: Context) -> list[str]:
    return list(enumerate_worlds(ctx.atoms, admissible=ctx.full_mask))


def _read(literals: str) -> dict[str, bool]:
    """A world read back from its literals."""
    return {lit.lstrip("~"): not lit.startswith("~") for lit in literals.split()}


class TestEnumerateWorlds:
    def test_two_free_atoms(self):
        assert len(_worlds(Context(("A", "B")))) == 4

    def test_conjunction_constraint_leaves_three(self):
        worlds = _worlds(Context(("A", "B"), (parse_event("A & B"),)))
        assert worlds == ["~A ~B", "~A B", "A ~B"]
        assert [(evaluate(Atom("A"), w), evaluate(Atom("B"), w)) for w in map(_read, worlds)] == [
            (False, False),
            (False, True),
            (True, False),
        ]

    def test_three_free_atoms(self):
        assert len(_worlds(Context(("A", "B", "C")))) == 8

    def test_order_is_lexicographic(self):
        assert _worlds(Context(("A", "B"))) == ["~A ~B", "~A B", "A ~B", "A B"]


@given(st.integers(0, 2_000))
def test_no_world_satisfies_a_constraint(seed):
    rng = random.Random(seed)
    constraint = random_event(rng, ("A", "B", "C"))
    for w in map(_read, _worlds(Context(("A", "B", "C"), (constraint,)))):
        assert not evaluate(constraint, w)


class TestImpossibility:
    def test_contradiction(self):
        ctx = Context(("A",))
        assert is_impossible(parse_event("A & ~A"), ctx)

    def test_free_atom_is_possible(self):
        ctx = Context(("A",))
        assert not is_impossible(Atom("A"), ctx)

    def test_constraint_forces_impossibility(self):
        ctx = Context(("A", "B"), (parse_event("A & B"),))
        assert is_impossible(parse_event("A & B"), ctx)

    def test_unknown_atom_rejected(self):
        ctx = Context(("A",))
        with pytest.raises(UnknownAtomError):
            is_impossible(Atom("Z"), ctx)


class TestImplies:
    def test_conjunction_implies_conjunct(self):
        ctx = Context(("A", "B"))
        assert implies(parse_event("A & B"), Atom("A"), ctx)

    def test_disjunct_implied(self):
        ctx = Context(("A", "B"))
        assert implies(Atom("A"), parse_event("A | B"), ctx)

    def test_independent_atoms_do_not_imply(self):
        ctx = Context(("A", "B"))
        assert not implies(Atom("A"), Atom("B"), ctx)


@given(st.integers(0, 500))
def test_implies_is_a_preorder(seed):
    rng = random.Random(seed)
    ctx = Context(("A", "B", "C"))
    e1, e2, e3 = (random_event(rng, ctx.atoms) for _ in range(3))
    assert implies(e1, e1, ctx)
    if implies(e1, e2, ctx) and implies(e2, e3, ctx):
        assert implies(e1, e3, ctx)


@given(st.integers(0, 500))
def test_de_morgan_on_worlds(seed):
    rng = random.Random(seed)
    ctx = Context(("A", "B", "C"))
    a = random_event(rng, ctx.atoms)
    b = random_event(rng, ctx.atoms)
    assert world_equivalent(~(a & b), ~a | ~b, ctx)
    assert world_equivalent(~(a | b), ~a & ~b, ctx)


class TestConstituentBound:
    def test_lowered_bound_is_honored(self, monkeypatch):
        from cohere import ConditionalEvent, conditionals, constituents

        monkeypatch.setattr(conditionals, "MAX_CONSTITUENTS", 4)
        ctx = Context(("A", "H", "B", "K"))
        family = [
            ConditionalEvent(Atom("A"), Atom("H"), ctx),
            ConditionalEvent(Atom("B"), Atom("K"), ctx),
        ]
        with pytest.raises(SizeLimitError, match="more than 4 constituents"):
            constituents(family)  # needs 9 classes
        monkeypatch.setattr(conditionals, "MAX_CONSTITUENTS", 9)
        assert len(constituents(family)) == 9

    def test_refuses_on_the_measured_count(self, monkeypatch):
        # Two members over 8 worlds could give 9 classes, beyond a bound of
        # 4; the same member twice gives 3, which fits, while a second,
        # different member splits the 3 into more than 4 and is refused.
        from cohere import ConditionalEvent, conditionals, constituents

        monkeypatch.setattr(conditionals, "MAX_CONSTITUENTS", 4)
        ctx = Context(("A", "B", "C"))
        ce = ConditionalEvent(Atom("A"), Atom("B") | Atom("C"), ctx)
        assert len(constituents([ce, ce])) == 3
        other = ConditionalEvent(Atom("B"), Atom("A") | Atom("C"), ctx)
        with pytest.raises(SizeLimitError):
            constituents([ce, other])

    def test_large_family_with_few_constituents_answers(self):
        # 8 members over 12 atoms could give 3**8 classes over 4096 worlds,
        # both beyond the default bound; they give 2**8.
        from cohere import Assessment, ConditionalEvent, check_coherence, constituents

        ctx = Context(tuple(f"X{i}" for i in range(12)))
        family = [ConditionalEvent(Atom(f"X{i}"), TRUE, ctx) for i in range(8)]
        assert len(constituents(family)) == 2**8
        half = Fraction(1, 2)
        assert check_coherence(Assessment(tuple(family), (half,) * 8)).coherent

    def test_oversize_family_still_refused(self):
        from cohere import ConditionalEvent, constituents

        ctx = Context(tuple(f"X{i}" for i in range(12)))
        family = [ConditionalEvent(Atom(f"X{i}"), TRUE, ctx) for i in range(12)]
        with pytest.raises(SizeLimitError, match="more than 2187 constituents"):
            constituents(family)  # 4096 classes


class TestContext:
    def test_duplicate_atoms_rejected(self):
        with pytest.raises(ValueError):
            Context(("A", "A"))

    def test_reserved_names_rejected(self):
        with pytest.raises(ValueError):
            Context(("T",))

    def test_atom_cap(self):
        with pytest.raises(SizeLimitError):
            Context(tuple(f"X{i}" for i in range(25)))

    def test_constraints_must_be_declared(self):
        with pytest.raises(UnknownAtomError):
            Context(("A",), (Atom("B"),))
