"""Three-valued conditional events, quasi connectives, constituents."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cohere import (
    Atom,
    ConditionalEvent,
    Context,
    ImpossibleAntecedentError,
    TruthValue3,
    constituents,
    equivalent,
    gn_includes,
    n_conditional,
    negate,
    parse_conditional,
    parse_event,
    quasi_conjunction,
    quasi_disjunction,
)
from cohere.conditionals import quasi_masks

from helpers import (
    evaluate,
    random_conditional,
    reference_worlds,
    truth_table_equal,
    truth_value,
    worlds_in,
)


def ce(consequent: str, antecedent: str, ctx: Context) -> ConditionalEvent:
    return ConditionalEvent(
        parse_event(consequent, ctx.atoms), parse_event(antecedent, ctx.atoms), ctx
    )


@pytest.fixture
def ctx2():
    return Context(("A", "B"))


@pytest.fixture
def ctx4():
    return Context(("A", "H", "B", "K"))


class TestTruthValue:
    def test_ordering(self):
        assert TruthValue3.FALSE < TruthValue3.VOID < TruthValue3.TRUE

    def test_three_cases(self, ctx2):
        b_given_a = ce("B", "A", ctx2)
        for _, w in reference_worlds(ctx2):
            expected = (
                TruthValue3.VOID
                if not evaluate(Atom("A"), w)
                else TruthValue3.TRUE if evaluate(Atom("B"), w) else TruthValue3.FALSE
            )
            assert truth_value(b_given_a, w) == expected

    def test_impossible_antecedent_rejected(self, ctx2):
        with pytest.raises(ImpossibleAntecedentError):
            ce("A", "B & ~B", ctx2)


class TestNegate:
    def test_consequent_flips(self, ctx2):
        assert truth_table_equal(negate(ce("B", "A", ctx2)), ce("~B", "A", ctx2))

    def test_involution(self, ctx2):
        c = ce("A | B", "A", ctx2)
        assert equivalent(negate(negate(c)), c)

    def test_sure_consequent(self, ctx2):
        assert truth_table_equal(negate(ce("T", "A", ctx2)), ce("F", "A", ctx2))


class TestQuasiConjunction:
    def test_chained_conditioning_collapses(self):
        ctx = Context(("A", "B", "H"))
        got = quasi_conjunction([ce("A", "H", ctx), ce("B", "A & H", ctx)])
        assert truth_table_equal(got, ce("A & B", "H", ctx))

    def test_mutual_conditionals_give_biconditional(self, ctx2):
        got = quasi_conjunction([ce("A", "B", ctx2), ce("B", "A", ctx2)])
        assert truth_table_equal(got, ce("A & B", "A | B", ctx2))

    def test_shared_antecedent(self):
        ctx = Context(("A", "B", "H"))
        got = quasi_conjunction([ce("A", "H", ctx), ce("B", "H", ctx)])
        assert truth_table_equal(got, ce("A & B", "H", ctx))

    def test_singleton_returned_unchanged(self, ctx2):
        c = ce("A", "B", ctx2)
        assert quasi_conjunction([c]) is c


class TestQuasiDisjunction:
    def test_complement_conditioning_collapses(self):
        ctx = Context(("A", "B", "H"))
        got = quasi_disjunction([ce("A", "H", ctx), ce("B", "~A & H", ctx)])
        assert truth_table_equal(got, ce("A | B", "H", ctx))

    def test_same_consequent_merges_antecedents(self):
        ctx = Context(("A", "H", "K"))
        qd = quasi_disjunction([ce("A", "H", ctx), ce("A", "K", ctx)])
        qc = quasi_conjunction([ce("A", "H", ctx), ce("A", "K", ctx)])
        merged = ce("A", "H | K", ctx)
        assert truth_table_equal(qd, merged)
        assert truth_table_equal(qc, merged)

    def test_singleton_returned_unchanged(self, ctx2):
        c = ce("A", "B", ctx2)
        assert quasi_disjunction([c]) is c


class TestGoodmanNguyen:
    def test_disjunction_includes_conditioned_part(self, ctx2):
        assert gn_includes(ce("B", "~A", ctx2), ce("A | B", "T", ctx2))

    def test_reflexive(self, ctx2):
        c = ce("A & B", "A", ctx2)
        assert gn_includes(c, c)

    def test_independent_pair_not_included(self, ctx4):
        assert not gn_includes(ce("A", "H", ctx4), ce("B", "K", ctx4))

    @given(st.integers(0, 300))
    @settings(max_examples=60)
    def test_matches_pointwise_truth_order(self, seed):
        rng = random.Random(seed)
        ctx = Context(("A", "B", "C"))
        a = random_conditional(rng, ctx)
        b = random_conditional(rng, ctx)
        pointwise = all(
            truth_value(a, w) <= truth_value(b, w) for _, w in reference_worlds(ctx)
        )
        assert gn_includes(a, b) == pointwise

    def test_chain_squeezes_quasi_conjunction(self, ctx4):
        # whenever a is included in b, the quasi conjunction sits between them
        rng = random.Random(7)
        found = 0
        while found < 10:
            a = random_conditional(rng, ctx4)
            b = random_conditional(rng, ctx4)
            if not gn_includes(a, b):
                continue
            found += 1
            c = quasi_conjunction([a, b])
            assert gn_includes(a, c) and gn_includes(c, b)


class TestNConditional:
    def test_two_events_is_biconditional(self, ctx2):
        got = n_conditional([Atom("A"), Atom("B")], ctx2)
        assert truth_table_equal(got, ce("A & B", "A | B", ctx2))

    def test_repeated_event(self, ctx2):
        got = n_conditional([Atom("A"), Atom("A")], ctx2)
        assert truth_table_equal(got, ce("T", "A", ctx2))

    def test_loop_quasi_conjunction(self):
        ctx = Context(("A1", "A2", "A3"))
        loop = quasi_conjunction(
            [ce("A2", "A1", ctx), ce("A3", "A2", ctx), ce("A1", "A3", ctx)]
        )
        target = n_conditional([Atom("A1"), Atom("A2"), Atom("A3")], ctx)
        assert truth_table_equal(loop, target)

    def test_impossible_event_rejected(self, ctx2):
        with pytest.raises(ImpossibleAntecedentError):
            n_conditional([parse_event("A & ~A")], ctx2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cyclic_derangements_give_the_same_object(self, n):
        # Single n-cycles relabel the loop family, so their quasi conjunction
        # is the n-conditional.
        ctx = Context(tuple(f"A{i}" for i in range(1, n + 1)))
        target = n_conditional([Atom(f"A{i}") for i in range(1, n + 1)], ctx)
        for perm in itertools.permutations(range(1, n + 1)):
            if any(i == j for j, i in enumerate(perm, start=1)):
                continue
            if _cycle_count(perm) != 1:
                continue
            family = [ce(f"A{perm[j - 1]}", f"A{j}", ctx) for j in range(1, n + 1)]
            assert equivalent(quasi_conjunction(family), target)

    def test_double_transposition_differs_from_n_conditional(self):
        # A derangement made of two 2-cycles decouples the pairs: a world
        # satisfying one pair and falsifying the other makes its quasi
        # conjunction true while the 4-conditional is false.
        ctx = Context(("A1", "A2", "A3", "A4"))
        family = [
            ce("A2", "A1", ctx),
            ce("A1", "A2", ctx),
            ce("A4", "A3", ctx),
            ce("A3", "A4", ctx),
        ]
        target = n_conditional([Atom(f"A{i}") for i in range(1, 5)], ctx)
        assert not equivalent(quasi_conjunction(family), target)


class TestEquivalent:
    def test_identity_of_shared_antecedent_conjunction(self):
        ctx = Context(("A", "B", "H"))
        assert equivalent(
            quasi_conjunction([ce("A", "H", ctx), ce("B", "H", ctx)]),
            ce("A & B", "H", ctx),
        )

    def test_different_consequents_differ(self):
        ctx = Context(("A", "B", "H"))
        assert not equivalent(ce("A", "H", ctx), ce("B", "H", ctx))

    def test_double_negation(self, ctx2):
        c = ce("A", "A | B", ctx2)
        assert equivalent(c, negate(negate(c)))


class TestAlgebraicLaws:
    @given(st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_associativity_under_partition(self, seed):
        rng = random.Random(seed)
        ctx = Context(("A", "B", "C", "D"))
        family = [random_conditional(rng, ctx) for _ in range(rng.randint(2, 4))]
        indices = set(range(len(family)))
        subset = {i for i in indices if rng.random() < 0.5}
        if not subset or subset == indices:
            subset = {0}
        left = [family[i] for i in sorted(subset)]
        right = [family[i] for i in sorted(indices - subset)]
        assert equivalent(
            quasi_conjunction(family),
            quasi_conjunction([quasi_conjunction(left), quasi_conjunction(right)]),
        )
        assert equivalent(
            quasi_disjunction(family),
            quasi_disjunction([quasi_disjunction(left), quasi_disjunction(right)]),
        )

    @given(st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_de_morgan_duality(self, seed):
        rng = random.Random(seed)
        ctx = Context(("A", "B", "C"))
        family = [random_conditional(rng, ctx) for _ in range(rng.randint(2, 3))]
        assert equivalent(
            negate(quasi_conjunction([negate(c) for c in family])),
            quasi_disjunction(family),
        )

    @given(st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_conjunction_below_disjunction(self, seed):
        rng = random.Random(seed)
        ctx = Context(("A", "B", "C"))
        family = [random_conditional(rng, ctx) for _ in range(rng.randint(2, 3))]
        qc = quasi_conjunction(family)
        qd = quasi_disjunction(family)
        for _, w in reference_worlds(ctx):
            assert truth_value(qc, w) <= truth_value(qd, w)
        assert gn_includes(qc, qd)

    @given(st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_quasi_masks_match_the_built_connectives(self, seed):
        # The masks read off the members equal those of the formulas that
        # quasi_conjunction and quasi_disjunction build, and gn_includes
        # takes them in place of the conditionals.
        rng = random.Random(seed)
        ctx = Context(("A", "B", "C", "D"))
        family = [random_conditional(rng, ctx) for _ in range(rng.randint(1, 5))]
        qc, qd = quasi_masks(family)
        assert (qc, qd) == (quasi_conjunction(family).masks, quasi_disjunction(family).masks)
        other = random_conditional(rng, ctx)
        for built, masks in ((quasi_conjunction(family), qc), (quasi_disjunction(family), qd)):
            assert gn_includes(masks, other) == gn_includes(built, other)
            assert gn_includes(other, masks) == gn_includes(other, built)

    def test_quasi_masks_of_a_deep_family(self):
        # The masks of 1200 members need no formula.
        ctx = Context(("A", "B"))
        c = ce("A", "B", ctx)
        assert quasi_masks([c] * 1200) == (c.masks, c.masks)

    def test_connectives_of_a_large_family(self):
        # and_all and or_all fold pairwise, so 1200 members build formulas
        # about 11 levels deep, which the mask fold walks without overflow.
        rng = random.Random(1200)
        ctx = Context(("A", "B", "C", "D"))
        family = [random_conditional(rng, ctx) for _ in range(1200)]
        built = (quasi_conjunction(family).masks, quasi_disjunction(family).masks)
        assert built == quasi_masks(family)


# Reference table for two independent conditionals: constituent, A|H, B|K,
# and the values of their quasi conjunction and quasi disjunction.
TWO_CONDITIONAL_TABLE = [
    ("~H & ~K", "Void", "Void", "Void", "Void"),
    ("A & H & B & K", "True", "True", "True", "True"),
    ("A & H & ~K", "True", "Void", "True", "True"),
    ("A & H & ~B & K", "True", "False", "False", "True"),
    ("~H & B & K", "Void", "True", "True", "True"),
    ("~H & ~B & K", "Void", "False", "False", "False"),
    ("~A & H & B & K", "False", "True", "False", "True"),
    ("~A & H & ~K", "False", "Void", "False", "False"),
    ("~A & H & ~B & K", "False", "False", "False", "False"),
]


class TestConstituents:
    def test_two_independent_conditionals(self, ctx4):
        family = [ce("A", "H", ctx4), ce("B", "K", ctx4)]
        cs = constituents(family)
        assert len(cs.inside) == 8
        assert cs.c0 != 0
        # c0 is exactly the both-antecedents-false region
        for w in worlds_in(ctx4, cs.c0):
            assert not evaluate(Atom("H"), w) and not evaluate(Atom("K"), w)

    def test_truth_table_reproduced_row_for_row(self, ctx4):
        family = [ce("A", "H", ctx4), ce("B", "K", ctx4)]
        qc = quasi_conjunction(family)
        qd = quasi_disjunction(family)
        cs = constituents(family)
        classes = list(zip(cs.inside, cs.profiles)) + [(cs.c0, (TruthValue3.VOID,) * 2)]
        for formula, v1, v2, vc, vd in TWO_CONDITIONAL_TABLE:
            region = parse_event(formula, ctx4.atoms)
            matches = [
                (mask, profile)
                for mask, profile in classes
                if all(evaluate(region, w) for w in worlds_in(ctx4, mask))
            ]
            assert len(matches) == 1, formula
            mask, profile = matches[0]
            representative = worlds_in(ctx4, mask & -mask)[0]
            assert tuple(str(v) for v in profile) == (v1, v2)
            assert str(truth_value(qc, representative)) == vc
            assert str(truth_value(qd, representative)) == vd

    def test_sure_antecedent_has_no_outside_class(self, ctx2):
        cs = constituents([ce("A", "T", ctx2)])
        assert len(cs.inside) == 2
        assert cs.c0 == 0

    def test_mutual_conditionals(self, ctx2):
        cs = constituents([ce("A", "B", ctx2), ce("B", "A", ctx2)])
        assert len(cs.inside) == 3
        reference = reference_worlds(ctx2)
        covered = [frozenset(k for k, _ in reference if mask >> k & 1) for mask in cs.inside]
        for formula in ("A & B", "A & ~B", "~A & B"):
            region = parse_event(formula, ctx2.atoms)
            worlds = frozenset(k for k, w in reference if evaluate(region, w))
            assert worlds in covered
        assert cs.c0 != 0
        assert all(
            not evaluate(Atom("A"), w) and not evaluate(Atom("B"), w)
            for w in worlds_in(ctx2, cs.c0)
        )

    def test_counts_within_power_bound(self):
        ctx = Context(("A", "H", "B", "K", "C", "M"))
        family = [ce("A", "H", ctx), ce("B", "K", ctx), ce("C", "M", ctx)]
        cs = constituents(family)
        assert len(cs.inside) + 1 <= 3**3
        assert len(cs.inside) == 26


def _cycle_count(perm: tuple[int, ...]) -> int:
    seen = set()
    cycles = 0
    for start in range(1, len(perm) + 1):
        if start in seen:
            continue
        cycles += 1
        node = start
        while node not in seen:
            seen.add(node)
            node = perm[node - 1]
    return cycles


class TestParseConditional:
    def test_first_top_level_bar_splits(self, ctx2):
        got = parse_conditional("A | B | A & B", ctx2)
        assert str(got.consequent) == "A"
        assert str(got.antecedent) == "B | A & B"

    def test_parenthesized_disjunction_is_event(self, ctx2):
        got = parse_conditional("(A | B) | A", ctx2)
        assert str(got.consequent) == "A | B"
        assert str(got.antecedent) == "A"

    def test_missing_bar_rejected(self, ctx2):
        with pytest.raises(Exception):
            parse_conditional("A & B", ctx2)
