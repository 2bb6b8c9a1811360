"""P-consistency, p-entailment, closed-form bounds, premise regions, loops."""

import random
import sys
from fractions import Fraction as Fr
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cohere import (
    Assessment,
    Atom,
    CohereError,
    Context,
    ConditionalEvent,
    KnowledgeBase,
    NotPConsistentError,
    biconditional_value,
    build_sigma,
    check_coherence,
    compound_bounds,
    dual_compound_value,
    extension_interval,
    gn_chain_bounds,
    implies,
    in_l_gamma_qc,
    in_l_gamma_qd,
    in_u_gamma_qc,
    in_u_gamma_qd,
    is_impossible,
    loop_entails,
    loop_family,
    n_conditional,
    negate,
    or_rule_bounds,
    p_consistent,
    p_entails,
    p_entails_qc,
    parse_event,
    qc_bounds,
    qd_bounds,
    quasi_conjunction,
    quasi_disjunction,
)
from cohere import cli, coherence, simplex
from cohere.inference import _untolerated, deranged_family, derangements
from cohere.kbfile import load_kb

from helpers import (
    all_ones,
    gn_chain_context,
    independent_pairs,
    random_conditional,
    random_context,
    random_unit,
    reference_in_u_gamma_qc,
    reference_p_entails_qc,
    reference_worlds,
)


def ce(consequent, antecedent, ctx):
    return ConditionalEvent(
        parse_event(consequent, ctx.atoms), parse_event(antecedent, ctx.atoms), ctx
    )


def kb_of(ctx, *members):
    names = tuple(f"c{i}" for i in range(1, len(members) + 1))
    return KnowledgeBase(ctx, names, tuple(members))


@pytest.fixture(scope="module")
def linda():
    ctx = Context(("L", "S", "G", "N"))
    kb = kb_of(
        ctx,
        ce("G", "L", ctx),
        ce("S", "L", ctx),
        ce("~N", "L & S", ctx),
        ce("L", "S", ctx),
        ce("~G", "~N", ctx),
    )
    return ctx, kb


class TestPConsistency:
    def test_linda(self, linda):
        _, kb = linda
        assert p_consistent(kb)

    def test_contradictory_pair(self):
        ctx = Context(("A",))
        kb = kb_of(ctx, ce("A", "T", ctx), ce("~A", "T", ctx))
        assert not p_consistent(kb)

    def test_loop(self):
        assert p_consistent(loop_family(3))

    def test_empty_base_raises(self):
        ctx = Context(("A",))
        with pytest.raises(ValueError):
            p_consistent(kb_of(ctx))


class TestPEntailment:
    def test_linda_conclusions(self, linda):
        ctx, kb = linda
        entailed = [
            ce("~N", "L", ctx),
            ce("~L", "T", ctx),
            ce("G & ~N", "L & S", ctx),
            ce("~N", "S", ctx),
            ce("~N", "L | S", ctx),
        ]
        for target in entailed:
            assert p_entails(kb, target), str(target)
            assert p_entails_qc(kb, target), str(target)

    def test_linda_non_conclusion(self, linda):
        ctx, kb = linda
        target = ce("G", "N", ctx)
        assert not p_entails(kb, target)
        assert not p_entails_qc(kb, target)

    def test_members_are_entailed(self, linda):
        ctx, kb = linda
        for member in kb.conditionals:
            assert p_entails(kb, member)
            assert p_entails_qc(kb, member)

    def test_qc_procedure_uses_subsets(self, linda):
        # the fourth conclusion needs the subfamily {~N|LS, L|S}
        ctx, kb = linda
        from cohere import gn_includes

        sub = (kb.get("c3"), kb.get("c4"))
        assert gn_includes(quasi_conjunction(sub), ce("~N", "S", ctx))

    def test_not_p_consistent_raises(self):
        ctx = Context(("A",))
        kb = kb_of(ctx, ce("A", "T", ctx), ce("~A", "T", ctx))
        with pytest.raises(NotPConsistentError):
            p_entails(kb, ce("A", "T", ctx))

    def test_empty_base_raises(self):
        # The tolerance test of the negated target alone would empty and
        # answer False; an empty base has no all-ones assessment to extend.
        ctx = Context(("A",))
        with pytest.raises(ValueError):
            p_entails(kb_of(ctx), ce("A", "T", ctx))

    def test_qc_not_p_consistent_raises(self):
        ctx = Context(("A",))
        kb = kb_of(ctx, ce("A", "T", ctx), ce("~A", "T", ctx))
        with pytest.raises(NotPConsistentError):
            p_entails_qc(kb, ce("A", "T", ctx))

    def test_qc_rejects_target_from_another_context(self):
        # The target's antecedent implies its consequent, so only the context
        # check keeps p_entails_qc from answering True.
        kb = kb_of(Context(("A", "B")), ce("A", "B", Context(("A", "B"))))
        other = Context(("A", "B"), (parse_event("A & ~B", ("A", "B")),))
        with pytest.raises(ValueError):
            p_entails_qc(kb, ce("A", "A & B", other))
        with pytest.raises(ValueError):
            p_entails(kb, ce("A", "A & B", other))

    def test_qc_requires_possible_conjunction(self, linda):
        ctx, kb = linda
        with pytest.raises(CohereError):
            p_entails_qc(kb, ce("G & ~G", "L", ctx))

    def test_trivial_consequence_of_antecedent(self, linda):
        ctx, kb = linda
        assert p_entails_qc(kb, ce("L | ~L", "L", ctx))


class TestLoopRule:
    def test_pairwise_entailments_n3(self):
        kb = loop_family(3)
        ctx = kb.context
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    assert p_entails(kb, ce(f"A{i}", f"A{j}", ctx))

    @pytest.mark.parametrize("derangement", [(3, 1, 2), (2, 3, 1)])
    def test_mutual_entailment_n3(self, derangement):
        assert loop_entails(3, derangement)

    def test_cyclic_derangement_n4(self):
        assert loop_entails(4, (2, 3, 4, 1))
        assert loop_entails(4, (4, 3, 1, 2))  # the 4-cycle 1->4->2->3->1

    def test_double_transposition_n4_fails_backward(self):
        # pairing 1<->2 and 3<->4 lets mass sit on one pair only, so the
        # deranged family cannot force cross-pair conclusions
        assert not loop_entails(4, (2, 1, 4, 3))
        ctx = loop_family(4).context
        deranged = deranged_family(4, (2, 1, 4, 3), ctx)
        assert p_consistent(deranged)
        assert not p_entails(deranged, ce("A3", "A2", ctx))
        for member in loop_family(4, ctx).conditionals:
            assert p_entails(loop_family(4, ctx), member)

    def test_invalid_derangements_rejected(self):
        with pytest.raises(ValueError):
            loop_entails(3, (1, 3, 2))
        with pytest.raises(ValueError):
            loop_entails(3, (2, 2, 1))

    def test_derangement_listing(self):
        assert list(derangements(3)) == [(2, 3, 1), (3, 1, 2)]
        assert len(list(derangements(4))) == 9


def _is_cycle(perm):
    seen = set()
    node = 1
    for _ in range(len(perm)):
        if node in seen:
            return False
        seen.add(node)
        node = perm[node - 1]
    return len(seen) == len(perm)


class TestFiveFriends:
    def test_subset_n_conditionals_are_entailed(self):
        kb = loop_family(5)
        ctx = kb.context
        import itertools

        for size in (2, 3, 4):
            for names in itertools.combinations(range(1, 6), size):
                events = [Atom(f"A{i}") for i in names]
                target = n_conditional(events, ctx)
                assert p_entails(kb, target), names


class TestClosedFormBounds:
    def test_qc_reference_values(self):
        assert _pair(qc_bounds([Fr(1, 2), Fr(1, 2)])) == (Fr(0), Fr(2, 3))
        assert _pair(qc_bounds([Fr(1)] * 3)) == (Fr(1), Fr(1))
        assert _pair(qc_bounds([Fr(1, 2)] * 3)) == (Fr(0), Fr(3, 4))

    def test_qd_reference_values(self):
        assert _pair(qd_bounds([Fr(1, 2), Fr(1, 2)])) == (Fr(1, 3), Fr(1))
        assert _pair(qd_bounds([Fr(0), Fr(0)])) == (Fr(0), Fr(0))
        assert _pair(qd_bounds([Fr(1, 2)] * 3)) == (Fr(1, 4), Fr(1))

    def test_or_rule_reference_values(self):
        assert _pair(or_rule_bounds([Fr(9, 10), Fr(9, 10)])) == (Fr(9, 11), Fr(18, 19))
        assert _pair(or_rule_bounds([Fr(1), Fr(1)])) == (Fr(1), Fr(1))
        assert _pair(or_rule_bounds([Fr(1, 2), Fr(1, 2)])) == (Fr(1, 3), Fr(2, 3))

    def test_gn_chain_values_and_validation(self):
        assert _pair(gn_chain_bounds([Fr(1, 4), Fr(3, 4)])) == (Fr(1, 4), Fr(3, 4))
        assert _pair(gn_chain_bounds([Fr(1, 2), Fr(1, 2)])) == (Fr(1, 2), Fr(1, 2))
        assert _pair(gn_chain_bounds([Fr(1, 5), Fr(2, 5), Fr(4, 5)])) == (
            Fr(1, 5),
            Fr(4, 5),
        )
        with pytest.raises(ValueError):
            gn_chain_bounds([Fr(3, 4), Fr(1, 4)])

    def test_compound_values(self):
        assert _pair(compound_bounds([Fr(1, 2), Fr(1, 3)])) == (Fr(1, 6), Fr(1, 6))
        assert _pair(compound_bounds([Fr(1)] * 4)) == (Fr(1), Fr(1))
        assert _pair(compound_bounds([Fr(1, 2)] * 3)) == (Fr(1, 8), Fr(1, 8))

    def test_point_values(self):
        assert dual_compound_value(Fr(1, 2), Fr(1, 2)) == Fr(3, 4)
        assert dual_compound_value(Fr(0), Fr(2, 7)) == Fr(2, 7)
        assert dual_compound_value(Fr(1), Fr(2, 7)) == Fr(1)
        assert biconditional_value(Fr(1, 2), Fr(1, 2)) == Fr(1, 3)
        assert biconditional_value(Fr(0), Fr(0)) == Fr(0)
        assert biconditional_value(Fr(1), Fr(1)) == Fr(1)

    def test_floats_are_refused(self):
        # qc_bounds([0.1, 0.2]) once returned an upper bound over a 33-digit
        # denominator, from the floats' binary expansions.
        with pytest.raises(TypeError, match=r"p1 is the float 0\.1;"):
            qc_bounds([0.1, 0.2])
        with pytest.raises(TypeError, match=r"gamma is the float 0\.5;"):
            in_l_gamma_qc([Fr(1, 2)], 0.5)
        with pytest.raises(TypeError, match=r"y is the float 0\.5;"):
            biconditional_value(Fr(1, 2), 0.5)
        assert _pair(qc_bounds(["1/10", "0.2"])) == (Fr(0), Fr(13, 49))

    @given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=6),
                    min_size=1, max_size=4))
    def test_duality_between_qc_and_qd(self, probs):
        qd = qd_bounds(probs)
        qc = qc_bounds([1 - p for p in probs])
        assert qd.lo == 1 - qc.hi
        assert qd.hi == 1 - qc.lo

    @given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=6),
                    min_size=1, max_size=4))
    def test_all_ones_collapse(self, probs):
        ones = [Fr(1)] * len(probs)
        assert _pair(qc_bounds(ones)) == (Fr(1), Fr(1))
        assert _pair(qd_bounds(ones)) == (Fr(1), Fr(1))


def _pair(interval):
    return interval.lo, interval.hi


class TestClosedFormsAgainstEngine:
    @pytest.mark.parametrize("n", [2, 3])
    def test_qc_and_qd_match_extension(self, n):
        rng = random.Random(100 + n)
        ctx, family = independent_pairs(n)
        for _ in range(4):
            probs = tuple(random_unit(rng) for _ in range(n))
            a = Assessment(family, probs)
            lp_qc = extension_interval(a, quasi_conjunction(family))
            assert _pair(lp_qc) == _pair(qc_bounds(probs))
            lp_qd = extension_interval(a, quasi_disjunction(family))
            assert _pair(lp_qd) == _pair(qd_bounds(probs))

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_qc_and_qd_match_extension_at_larger_n(self, n):
        # random_unit gives 0 or 1 about a third of the time, which at n >= 4
        # mostly leaves a trivial bound.  Premises near 1 give a positive
        # Lukasiewicz lower bound for QC, and premises near 0 an upper bound
        # below 1 for QD; the other two vectors are spread over [0, 1].
        rng = random.Random(400 + n)
        ctx, family = independent_pairs(n)
        qc, qd = quasi_conjunction(family), quasi_disjunction(family)
        dens = [rng.randint(2 * n, 3 * n) for _ in range(n)]
        vectors = (
            tuple(Fr(d - 1, d) for d in dens),
            tuple(Fr(1, d) for d in reversed(dens)),
            tuple(Fr(rng.randint(1, d - 1), d) for d in (rng.randint(2, 9) for _ in range(n))),
            tuple(random_unit(rng) for _ in range(n)),
        )
        assert qc_bounds(vectors[0]).lo > 0 and qd_bounds(vectors[1]).hi < 1
        for probs in vectors:
            a = Assessment(family, probs)
            assert _pair(extension_interval(a, qc)) == _pair(qc_bounds(probs)), probs
            assert _pair(extension_interval(a, qd)) == _pair(qd_bounds(probs)), probs

    def test_or_rule_matches_extension(self):
        rng = random.Random(55)
        ctx = Context(("E", "H1", "H2", "H3"))
        family = tuple(ce("E", f"H{i}", ctx) for i in (1, 2, 3))
        target = ce("E", "H1 | H2 | H3", ctx)
        for _ in range(4):
            probs = tuple(random_unit(rng) for _ in range(3))
            a = Assessment(family, probs)
            assert _pair(extension_interval(a, target)) == _pair(or_rule_bounds(probs))

    def test_gn_chain_matches_extension(self):
        ctx, family = gn_chain_context(3)
        probs = (Fr(1, 5), Fr(2, 5), Fr(4, 5))
        a = Assessment(family, probs)
        target = quasi_conjunction(family)
        assert _pair(extension_interval(a, target)) == _pair(gn_chain_bounds(probs))

    def test_compound_matches_extension(self):
        ctx = Context(("A1", "A2", "A3", "H"))
        family = (
            ce("A1", "H", ctx),
            ce("A2", "A1 & H", ctx),
            ce("A3", "A1 & A2 & H", ctx),
        )
        probs = (Fr(1, 2), Fr(1, 2), Fr(1, 2))
        a = Assessment(family, probs)
        target = ce("A1 & A2 & A3", "H", ctx)
        assert _pair(extension_interval(a, target)) == (Fr(1, 8), Fr(1, 8))

    def test_dual_compound_matches_extension(self):
        ctx = Context(("A", "B", "H"))
        family = (ce("A", "H", ctx), ce("B", "~A & H", ctx))
        x, y = Fr(1, 2), Fr(1, 2)
        a = Assessment(family, (x, y))
        iv = extension_interval(a, ce("A | B", "H", ctx))
        assert _pair(iv) == (Fr(3, 4), Fr(3, 4))
        assert iv.lo == dual_compound_value(x, y)

    def test_biconditional_matches_extension(self):
        ctx = Context(("A", "B"))
        family = (ce("A", "B", ctx), ce("B", "A", ctx))
        for x, y in [(Fr(1, 2), Fr(1, 2)), (Fr(0), Fr(0)), (Fr(2, 3), Fr(1, 5))]:
            a = Assessment(family, (x, y))
            iv = extension_interval(a, ce("A & B", "A | B", ctx))
            v = biconditional_value(x, y)
            assert _pair(iv) == (v, v)



def _mass_family(rng, ctx, n):
    """n random conditionals and the probabilities that integer weights on a
    few admissible worlds induce, every antecedent charged: coherent."""
    worlds = [k for k in range(ctx.full_mask.bit_length()) if ctx.full_mask >> k & 1]
    while True:
        family = [random_conditional(rng, ctx) for _ in range(n)]
        weights = {k: rng.randint(1, 3) for k in rng.sample(worlds, 4)}
        probs = []
        for member in family:
            verifying, falsifying = (
                sum(w for k, w in weights.items() if mask >> k & 1) for mask in member.masks
            )
            if not verifying + falsifying:
                break
            probs.append(Fr(verifying, verifying + falsifying))
        else:
            return tuple(family), tuple(probs)


class TestDualityAtScale:
    """QD(F) is the negation of QC(~F) given the same antecedent, so under
    any logical constraints the QD extension interval of (F, p) is 1 minus
    the reversed QC extension interval of the negated members at 1 - p."""

    def test_qd_interval_is_dual_to_qc_of_negations(self):
        rng = random.Random(2013)
        atoms = tuple(f"A{i}" for i in range(8))
        narrow = 0
        for k in range(300):
            # One or two constraints, each forbidding a pair of literals.
            constraints = tuple(
                Atom(x) & (~Atom(y) if rng.random() < 0.5 else Atom(y))
                for x, y in (rng.sample(atoms, 2) for _ in range(1 + k % 2))
            )
            ctx = Context(atoms, constraints)
            family, probs = _mass_family(rng, ctx, 3 + k % 5)
            qd = extension_interval(Assessment(family, probs), quasi_disjunction(family))
            negated = tuple(negate(member) for member in family)
            qc = extension_interval(
                Assessment(negated, tuple(1 - p for p in probs)), quasi_conjunction(negated)
            )
            assert (qd.lo, qd.hi, qd.vacuous) == (1 - qc.hi, 1 - qc.lo, qc.vacuous), k
            narrow += _pair(qd) != (0, 1)
        assert narrow >= 150, narrow


GRID_STEPS = [Fr(i, 6) for i in range(7)]


class TestGammaRegions:
    @pytest.mark.parametrize("gamma", [Fr(0), Fr(1, 4), Fr(3, 5), Fr(1)])
    def test_membership_matches_bounds_on_grid(self, gamma):
        for x in GRID_STEPS:
            for y in GRID_STEPS:
                p = [x, y]
                assert in_l_gamma_qc(p, gamma) == (qc_bounds(p).lo >= gamma)
                assert in_u_gamma_qc(p, gamma) == reference_in_u_gamma_qc(p, gamma)
                assert in_l_gamma_qd(p, gamma) == (qd_bounds(p).lo >= gamma)
                assert in_u_gamma_qd(p, gamma) == (qd_bounds(p).hi <= gamma)

    def test_diagonal_exclusions(self):
        for gamma in (Fr(1, 4), Fr(1, 2), Fr(9, 10)):
            assert not in_u_gamma_qc([gamma, gamma], gamma)
            assert not in_l_gamma_qd([gamma, gamma], gamma)

    def test_degenerate_corners(self):
        assert in_l_gamma_qc([Fr(1), Fr(1)], Fr(1))
        assert in_u_gamma_qd([Fr(0), Fr(0)], Fr(0))
        assert in_l_gamma_qc([Fr(8, 10), Fr(9, 10)], Fr(6, 10))

    @given(
        st.lists(st.fractions(min_value=0, max_value=1, max_denominator=5),
                 min_size=2, max_size=4),
        st.fractions(min_value=0, max_value=1, max_denominator=5),
    )
    @settings(max_examples=60)
    def test_membership_is_permutation_invariant(self, probs, gamma):
        rng = random.Random(0)
        shuffled = probs[:]
        rng.shuffle(shuffled)
        assert in_u_gamma_qc(probs, gamma) == in_u_gamma_qc(shuffled, gamma)
        assert in_l_gamma_qd(probs, gamma) == in_l_gamma_qd(shuffled, gamma)

    def test_three_premise_regions(self):
        gamma = Fr(2, 5)
        for p in ([Fr(1, 5)] * 3, [Fr(2, 5), Fr(1, 3), Fr(1, 6)]):
            assert in_l_gamma_qd(p, gamma) == (qd_bounds(p).lo >= gamma)
            assert in_u_gamma_qc(p, gamma) == reference_in_u_gamma_qc(p, gamma)

    def test_upper_qc_region_matches_sequential_threshold(self):
        # U_gamma(QC) is {p : S_H0(p) <= gamma}, which the engine tests at
        # once; the reference bounds each next premise by a threshold.
        rng = random.Random(31)
        inside = 0
        for n in range(2, 6):
            for _ in range(500):
                probs = [random_unit(rng, 8) for _ in range(n)]
                gamma = random_unit(rng, 8)
                expected = reference_in_u_gamma_qc(probs, gamma)
                assert in_u_gamma_qc(probs, gamma) == expected, (probs, gamma)
                inside += expected
        assert 100 < inside < 1900, inside


class TestQuasiRulesAllOnes:
    @pytest.mark.parametrize("n", [2, 3])
    def test_family_entails_its_quasi_connectives(self, n):
        ctx, family = independent_pairs(n)
        kb = KnowledgeBase(ctx, tuple(f"c{i}" for i in range(n)), family)
        assert p_entails(kb, quasi_conjunction(family))
        assert p_entails(kb, quasi_disjunction(family))


class TestProcedureAgreement:
    def test_loop_pairs_agree(self):
        kb = loop_family(3)
        ctx = kb.context
        for i in range(1, 4):
            for j in range(1, 4):
                if i == j:
                    continue
                target = ce(f"A{i}", f"A{j}", ctx)
                assert p_entails(kb, target) == p_entails_qc(kb, target)

    def test_chain_quasi_conjunction_agrees(self):
        ctx, family = gn_chain_context(2)
        kb = KnowledgeBase(ctx, ("c1", "c2"), family)
        target = quasi_conjunction(family)
        assert p_entails(kb, target) == p_entails_qc(kb, target) is True
        wide = family[1]
        assert p_entails(kb, wide) == p_entails_qc(kb, wide) is True
        narrow = family[0]
        assert p_entails(kb, narrow) == p_entails_qc(kb, narrow) is True

    def test_zero_extension_route_matches_interval_and_qc(self):
        # p_entails decides by Adams' tolerance test on the base plus the
        # negated target; it must agree with the full extension interval,
        # whose endpoints for an all-ones base lie in {0, 1}, and with the
        # quasi-conjunction route.
        rng = random.Random(20130)
        drawn = entailed = compared = 0
        while drawn < 60:
            ctx = random_context(rng, True)
            n = rng.randint(1, 4)
            members = tuple(random_conditional(rng, ctx) for _ in range(n))
            kb = kb_of(ctx, *members)
            if not p_consistent(kb):
                continue
            drawn += 1
            target = random_conditional(rng, ctx)
            verdict = p_entails(kb, target)
            iv = extension_interval(all_ones(kb), target)
            assert {iv.lo, iv.hi} <= {0, 1}, (str(target), str(iv))
            assert verdict == (iv.lo == iv.hi == 1), (str(target), str(iv))
            entailed += verdict
            if not is_impossible(target.consequent & target.antecedent, ctx):
                compared += 1
                assert verdict == p_entails_qc(kb, target), str(target)
        assert 0 < entailed < drawn and compared > drawn // 2


class TestQuasiConjunctionFixpoint:
    @pytest.mark.parametrize("constrained", [False, True])
    def test_matches_exhaustive_subset_search(self, constrained):
        # p_entails_qc tests only the subfamily that the tolerance fixpoint
        # keeps; the reference tries every nonempty subfamily.
        rng = random.Random(1975 + constrained)
        sizes = set()
        compared = entailed = 0
        while compared < 1000:
            ctx = random_context(rng, constrained)
            members = tuple(random_conditional(rng, ctx) for _ in range(rng.randint(1, 7)))
            kb = kb_of(ctx, *members)
            target = random_conditional(rng, ctx)
            if is_impossible(target.consequent & target.antecedent, ctx) or not p_consistent(kb):
                continue
            verdict = p_entails_qc(kb, target)
            assert verdict == reference_p_entails_qc(members, target), (
                [str(m) for m in members], str(target)
            )
            sizes.add(len(members))
            compared += 1
            entailed += verdict
        assert sizes == set(range(1, 8)) and 0 < entailed < compared

    @pytest.mark.parametrize("n", [13, 16])
    def test_large_loops_match_tolerance_route(self, n):
        kb = loop_family(n)
        ctx = kb.context
        atoms = [Atom(f"A{i}") for i in range(1, n + 1)]
        targets = [
            ce(f"A{i}", f"A{j}", ctx) for i, j in ((1, n), (n, 1), (2, n - 1))
        ] + [ce("A1", "T", ctx), ce("A1 & ~A2", "A3", ctx), n_conditional(atoms[::3], ctx)]
        verdicts = [p_entails_qc(kb, t) for t in targets]
        assert verdicts == [p_entails(kb, t) for t in targets]
        assert verdicts == [True, True, True, False, False, True]


class TestFourPremiseAgreement:
    def test_qc_closed_form_matches_extension_at_n4(self):
        ctx, family = independent_pairs(4)
        probs = (Fr(3, 4), Fr(2, 3), Fr(4, 5), Fr(5, 6))
        a = Assessment(family, probs)
        iv = extension_interval(a, quasi_conjunction(family))
        assert (iv.lo, iv.hi) == (qc_bounds(probs).lo, qc_bounds(probs).hi)


# ---------------------------------------------------------------------------
# Adams' tolerance test against the LP route
# ---------------------------------------------------------------------------

KB_DIR = Path(__file__).resolve().parent.parent / "kb"
TOLERANCE_ATOMS = ("A", "B", "C", "D", "E")


def _literal(rng):
    atom = Atom(rng.choice(TOLERANCE_ATOMS))
    return ~atom if rng.random() < 0.5 else atom


def _tolerance_case(rng):
    while True:
        constraints = tuple(
            _literal(rng) & _literal(rng) for _ in range(rng.randint(0, 2))
        )
        ctx = Context(TOLERANCE_ATOMS, constraints)
        if reference_worlds(ctx):
            break
    members = tuple(random_conditional(rng, ctx) for _ in range(rng.randint(1, 5)))
    target = random_conditional(rng, ctx)
    if rng.random() < 0.2:
        # The antecedent implies the consequent: entailed by any p-consistent base.
        target = ConditionalEvent(
            target.consequent | target.antecedent, target.antecedent, ctx
        )
    return kb_of(ctx, *members), target


@pytest.fixture(scope="module")
def tolerance_cases():
    rng = random.Random(1975)
    return [_tolerance_case(rng) for _ in range(500)]


class TestToleranceRoute:
    def test_matches_lp_route(self, tolerance_cases):
        seen = {"inconsistent": 0, "trivial": 0, "entailed": 0, "not entailed": 0}
        for kb, target in tolerance_cases:
            consistent = check_coherence(all_ones(kb)).coherent
            assert p_consistent(kb) == consistent, [str(c) for c in kb.conditionals]
            if not consistent:
                seen["inconsistent"] += 1
                with pytest.raises(NotPConsistentError):
                    p_entails(kb, target)
                continue
            lp = not check_coherence(all_ones(kb).extend(target, Fr(0))).coherent
            assert p_entails(kb, target) == lp, str(target)
            seen["entailed" if lp else "not entailed"] += 1
            seen["trivial"] += implies(target.antecedent, target.consequent, kb.context)
        assert all(seen.values()), seen

    def test_untolerated_members_certify_incoherence(self, tolerance_cases):
        # Staking -1 on each untolerated member wins on every constituent:
        # every world meeting one of their antecedents falsifies one of them.
        certified = 0
        for kb, _ in tolerance_cases:
            if p_consistent(kb):
                continue
            untolerated = _untolerated(kb.conditionals)
            system = build_sigma(Assessment(untolerated, (Fr(1),) * len(untolerated)))
            gains = system.gains((Fr(-1),) * len(untolerated))
            assert gains and all(g > 0 for g in gains), [str(c) for c in untolerated]
            certified += 1
        assert certified > 0

    def test_entailment_runs_no_lp(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise RuntimeError("p-consistency and p-entailment must not run an LP")

        originals = (simplex.solve_eq_lp, coherence.check_coherence)
        for name, module in list(sys.modules.items()):
            if name != "cohere" and not name.startswith("cohere."):
                continue
            for attr, value in list(vars(module).items()):
                if any(value is original for original in originals):
                    monkeypatch.setattr(module, attr, refuse)
        assert loop_entails(4, (2, 3, 4, 1))
        assert p_consistent(load_kb(str(KB_DIR / "linda.kb"))[0])
        assert cli.main(["consistent", str(KB_DIR / "linda.kb")]) == 0
        assert capsys.readouterr().out.strip() == "P-CONSISTENT"
