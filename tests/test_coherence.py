"""Coherence verdicts, certificates, and coherent-extension intervals."""

import itertools
import random
from fractions import Fraction as Fr

import pytest

import cohere.coherence
from cohere import (
    Assessment,
    Context,
    ConditionalEvent,
    IncoherentAssessmentError,
    ProbabilityRangeError,
    build_sigma,
    check_coherence,
    constituents,
    extension_interval,
    parse_event,
    quasi_conjunction,
    sigma_feasible,
    zero_upper,
)
from cohere.coherence import _mass_lp, interval_to_json, verdict_to_json
from cohere.simplex import INFEASIBLE, solve_eq_lp

from helpers import (
    gn_chain_context,
    independent_pairs,
    random_assessment,
    random_unit,
)


def ce(consequent, antecedent, ctx):
    return ConditionalEvent(
        parse_event(consequent, ctx.atoms), parse_event(antecedent, ctx.atoms), ctx
    )


def linda_family():
    ctx = Context(("L", "S", "G", "N"))
    family = (
        ce("G", "L", ctx),
        ce("S", "L", ctx),
        ce("~N", "L & S", ctx),
        ce("L", "S", ctx),
        ce("~G", "~N", ctx),
    )
    return ctx, family


# Expected constituent rows for two independent conditionals assessed (x, y):
# region formula -> (q1, q2) with probabilities substituted on void entries.
TWO_COND_POINTS = [
    ("A & H & B & K", lambda x, y: (1, 1)),
    ("A & H & ~K", lambda x, y: (1, y)),
    ("A & H & ~B & K", lambda x, y: (1, 0)),
    ("~H & B & K", lambda x, y: (x, 1)),
    ("~H & ~B & K", lambda x, y: (x, 0)),
    ("~A & H & B & K", lambda x, y: (0, 1)),
    ("~A & H & ~K", lambda x, y: (0, y)),
    ("~A & H & ~B & K", lambda x, y: (0, 0)),
]


class TestBuildSigma:
    def test_two_independent_conditionals_match_reference_points(self):
        ctx = Context(("A", "H", "B", "K"))
        x, y = Fr(2, 5), Fr(3, 7)
        a = Assessment((ce("A", "H", ctx), ce("B", "K", ctx)), (x, y))
        system = build_sigma(a)
        assert len(system.rows) == 8
        by_region = {}
        for formula, point in TWO_COND_POINTS:
            region = parse_event(formula, ctx.atoms)
            for h, c in enumerate(constituents(a.family).inside):
                if all(region.evaluate(w) for w in c.worlds):
                    by_region[formula] = system.rows[h]
                    assert system.rows[h] == tuple(Fr(v) for v in point(x, y))
        assert len(by_region) == 8

    def test_sure_antecedent(self):
        ctx = Context(("A",))
        a = Assessment((ce("A", "T", ctx),), (Fr(1, 2),))
        system = build_sigma(a)
        assert sorted(system.rows) == [(0,), (1,)]

    def test_mutual_pair_projected_points(self):
        ctx = Context(("A", "B"))
        x, y = Fr(1, 3), Fr(4, 7)
        a = Assessment((ce("A", "B", ctx), ce("B", "A", ctx)), (x, y))
        system = build_sigma(a)
        assert sorted(system.rows) == sorted([(Fr(1), Fr(1)), (x, Fr(0)), (Fr(0), y)])


class TestSigmaFeasible:
    def test_independent_pair_feasible(self):
        ctx, family = independent_pairs(2)
        a = Assessment(family, (Fr(1, 2), Fr(1, 2)))
        result = sigma_feasible(build_sigma(a))
        assert result.witness is not None and result.certificate is None

    def test_probability_out_of_range_rejected_at_assessment(self):
        ctx = Context(("A",))
        with pytest.raises(ProbabilityRangeError):
            Assessment((ce("A", "T", ctx),), (Fr(3, 2),))

    def test_included_pair_with_reversed_probabilities_certified(self):
        ctx, family = gn_chain_context(2)
        a = Assessment(family, (Fr(1), Fr(0)))
        result = sigma_feasible(build_sigma(a))
        assert result.certificate is not None
        gains = build_sigma(a).gains(result.certificate)
        assert all(g > 0 for g in gains)


class TestCheckCoherence:
    def test_linda_all_ones_coherent(self):
        ctx, family = linda_family()
        verdict = check_coherence(Assessment(family, (Fr(1),) * 5))
        assert verdict.coherent
        assert verdict.witness is not None

    def test_disjunction_pair_orderings(self):
        ctx = Context(("A", "B"))
        avb = ce("A | B", "T", ctx)
        bna = ce("B", "~A", ctx)
        ok = check_coherence(Assessment((avb, bna), (Fr(8, 10), Fr(2, 10))))
        assert ok.coherent
        bad = check_coherence(Assessment((avb, bna), (Fr(2, 10), Fr(8, 10))))
        assert not bad.coherent
        assert bad.certificate is not None

    def test_contradictory_unconditionals(self):
        ctx = Context(("A",))
        verdict = check_coherence(
            Assessment((ce("A", "T", ctx), ce("~A", "T", ctx)), (Fr(1), Fr(1)))
        )
        assert not verdict.coherent

    def test_trace_structure(self):
        ctx, family = linda_family()
        verdict = check_coherence(Assessment(family, (Fr(1),) * 5))
        assert verdict.trace[0].indices == (0, 1, 2, 3, 4)
        for level, nxt in zip(verdict.trace, verdict.trace[1:]):
            assert set(nxt.indices) == set(level.i0)
            assert set(level.i0) < set(level.indices)
        assert verdict.trace[-1].i0 == ()


class TestRandomizedSoundness:
    def test_verdict_artifacts_verify(self):
        rng = random.Random(2024)
        coherent_count = incoherent_count = 0
        for _ in range(60):
            a = random_assessment(rng)
            verdict = check_coherence(a)
            system = build_sigma(a.restrict(verdict.deciding_indices))
            if verdict.coherent:
                coherent_count += 1
                for row, b in zip(system.matrix, system.rhs):
                    assert sum(c * v for c, v in zip(row, verdict.witness)) == b
                assert all(v >= 0 for v in verdict.witness)
            else:
                incoherent_count += 1
                assert all(g > 0 for g in system.gains(verdict.certificate))
        assert coherent_count and incoherent_count

    def test_level_zero_witness_balances_random_stakes(self):
        rng = random.Random(5)
        for _ in range(25):
            a = random_assessment(rng)
            verdict = check_coherence(a)
            if not verdict.coherent:
                continue
            witness = verdict.trace[0].witness
            system = build_sigma(a)
            stakes = [Fr(rng.randint(-4, 4), rng.randint(1, 3)) for _ in a.family]
            gains = system.gains(stakes)
            weighted = sum(l * g for l, g in zip(witness, gains))
            assert weighted == 0
            assert min(gains) <= 0 <= max(gains)

    def test_solvable_implies_subsystems_solvable(self):
        rng = random.Random(77)
        checked = 0
        for _ in range(40):
            a = random_assessment(rng, max_size=3)
            system = build_sigma(a)
            witness = sigma_feasible(system).witness
            if witness is None:
                continue
            i0 = set(zero_upper(system, witness))
            n = len(a.family)
            for size in range(1, n + 1):
                for subset in itertools.combinations(range(n), size):
                    if not set(subset) - i0:
                        continue
                    sub = build_sigma(a.restrict(subset))
                    assert sigma_feasible(sub).witness is not None
                    checked += 1
        assert checked > 20

    def test_functional_bounds_and_strictness(self):
        rng = random.Random(11)
        for _ in range(30):
            a = random_assessment(rng)
            system = build_sigma(a)
            witness = sigma_feasible(system).witness
            if witness is None:
                continue
            assert set(zero_upper(system, witness)) < set(range(len(a.family)))


class TestExtensionInterval:
    def test_quasi_conjunction_of_half_half(self):
        ctx, family = independent_pairs(2)
        a = Assessment(family, (Fr(1, 2), Fr(1, 2)))
        iv = extension_interval(a, quasi_conjunction(family))
        assert (iv.lo, iv.hi) == (Fr(0), Fr(2, 3))
        assert not iv.vacuous

    def test_chained_conditioning_is_product(self):
        ctx = Context(("A", "B", "H"))
        family = (ce("A", "H", ctx), ce("B", "A & H", ctx))
        a = Assessment(family, (Fr(1, 2), Fr(1, 3)))
        iv = extension_interval(a, ce("A & B", "H", ctx))
        assert (iv.lo, iv.hi) == (Fr(1, 6), Fr(1, 6))

    def test_mutual_pair_pins_biconditional(self):
        ctx = Context(("A", "B"))
        family = (ce("A", "B", ctx), ce("B", "A", ctx))
        a = Assessment(family, (Fr(1, 2), Fr(1, 2)))
        iv = extension_interval(a, ce("A & B", "A | B", ctx))
        assert (iv.lo, iv.hi) == (Fr(1, 3), Fr(1, 3))

    def test_incoherent_base_rejected(self):
        ctx = Context(("A",))
        a = Assessment((ce("A", "T", ctx), ce("~A", "T", ctx)), (Fr(1), Fr(1)))
        with pytest.raises(IncoherentAssessmentError):
            extension_interval(a, ce("A", "T", ctx))

    def test_unreachable_conditioning_event_is_vacuous(self):
        ctx = Context(("A", "E", "H"))
        a = Assessment((ce("~H", "T", ctx),), (Fr(1),))
        iv = extension_interval(a, ce("E", "H", ctx))
        assert (iv.lo, iv.hi) == (Fr(0), Fr(1))
        assert iv.vacuous

    def test_inside_values_cohere_outside_values_fail(self):
        rng = random.Random(31)
        ctx, family = independent_pairs(2)
        for _ in range(6):
            a = Assessment(family, (random_unit(rng), random_unit(rng)))
            target = quasi_conjunction(family)
            iv = extension_interval(a, target)
            for z in {iv.lo, iv.hi, (iv.lo + iv.hi) / 2}:
                assert check_coherence(a.extend(target, z)).coherent
            eps = Fr(1, 97)
            if iv.lo - eps >= 0:
                assert not check_coherence(a.extend(target, iv.lo - eps)).coherent
            if iv.hi + eps <= 1:
                assert not check_coherence(a.extend(target, iv.hi + eps)).coherent

    def test_target_in_family_is_pinned(self):
        # appending an existing member keeps only its assessed value, even
        # when its conditioning event is unreachable at the top level
        ctx = Context(("A", "H"))
        family = (ce("~H", "T", ctx), ce("A", "H", ctx))
        a = Assessment(family, (Fr(1), Fr(1)))
        assert check_coherence(a).coherent
        iv = extension_interval(a, ce("A", "H", ctx))
        assert (iv.lo, iv.hi) == (Fr(1), Fr(1))


    def test_base_checked_only_inside_extended_family(self, monkeypatch):
        # A coherent extension contains its base, so on a coherent base the
        # endpoint re-validations are the only coherence checks.
        calls = []
        real = cohere.coherence.check_coherence

        def counting(a):
            calls.append(a)
            return real(a)

        monkeypatch.setattr(cohere.coherence, "check_coherence", counting)
        ctx, family = independent_pairs(2)
        target = quasi_conjunction(family)
        iv = extension_interval(Assessment(family, (Fr(1, 2), Fr(1, 2))), target)
        assert iv.lo < iv.hi
        assert [a.family for a in calls] == [family + (target,)] * 2

        calls.clear()
        ctx = Context(("A", "B", "H"))
        family = (ce("A", "H", ctx), ce("B", "A & H", ctx))
        target = ce("A & B", "H", ctx)
        iv = extension_interval(Assessment(family, (Fr(1, 2), Fr(1, 3))), target)
        assert iv.lo == iv.hi
        assert [a.family for a in calls] == [family + (target,)]

    def test_base_incoherent_below_top_level_rejected(self):
        # B|T = 0 leaves the top level solvable; A|B = ~A|B = 1 fails below it.
        ctx = Context(("A", "B", "C"))
        family = (ce("B", "T", ctx), ce("A", "B", ctx), ce("~A", "B", ctx))
        a = Assessment(family, (Fr(0), Fr(1), Fr(1)))
        verdict = check_coherence(a)
        assert not verdict.coherent and len(verdict.trace) == 2
        for target in ("A | T", "C | B", "A | B", "C | ~B", "B | T"):
            with pytest.raises(IncoherentAssessmentError):
                extension_interval(a, ce(*target.split(" | "), ctx))


class TestSerialization:
    def test_verdict_json_shape(self):
        ctx, family = gn_chain_context(2)
        verdict = check_coherence(Assessment(family, (Fr(1), Fr(0))))
        payload = verdict_to_json(verdict)
        assert payload["coherent"] is False
        assert payload["witness"] is None
        assert all(isinstance(s, str) for s in payload["certificate"])
        assert payload["trace"][0]["indices"] == [0, 1]

    def test_interval_json_shape(self):
        ctx, family = independent_pairs(2)
        a = Assessment(family, (Fr(1, 2), Fr(1, 2)))
        payload = interval_to_json(extension_interval(a, quasi_conjunction(family)))
        assert payload == {"lo": "0", "hi": "2/3", "vacuous": False}


class TestOnePhase1PerSystem:
    """Every mass LP over a constituent system starts from its one phase 1."""

    def test_mass_lp_on_an_unsolvable_system_raises(self):
        ctx = Context(("A",))
        a = Assessment((ce("A", "T", ctx), ce("~A", "T", ctx)), (Fr(1), Fr(1)))
        system = build_sigma(a)
        assert system.phase1.status == INFEASIBLE
        with pytest.raises(IncoherentAssessmentError):
            _mass_lp(system, [0], maximize=True)

    @pytest.mark.parametrize("probs", [(0, "1/2"), (0, 1)])
    def test_check_runs_one_phase1_per_level(self, monkeypatch, probs):
        # B|T = 0 leaves A|B to a zero-probability layer below the top level.
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve_eq_lp(*args, **kwargs)

        monkeypatch.setattr(cohere.coherence, "solve_eq_lp", counting)
        ctx = Context(("A", "B"))
        a = Assessment(
            (ce("B", "T", ctx), ce("A", "B", ctx)), tuple(Fr(p) for p in probs)
        )
        verdict = check_coherence(a)
        assert verdict.coherent
        assert [rec.indices for rec in verdict.trace] == [(0, 1), (1,)]
        assert len(calls) == len(verdict.trace)
