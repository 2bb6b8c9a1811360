"""Coherence verdicts, certificates, and coherent-extension intervals."""

import itertools
import random
from collections import Counter
from fractions import Fraction as Fr

import pytest

import cohere.coherence
from cohere import (
    Assessment,
    Atom,
    Context,
    ConditionalEvent,
    IncoherentAssessmentError,
    ProbabilityRangeError,
    SizeLimitError,
    build_sigma,
    check_coherence,
    constituents,
    extension_interval,
    parse_event,
    quasi_conjunction,
    sigma_feasible,
    zero_upper,
)
from cohere.coherence import (
    _Endpoint,
    _Link,
    _indicator,
    _interval_levels,
    _open_indices,
    interval_to_json,
    verdict_to_json,
)
from cohere.oracle import extension_interval_bruteforce
from cohere.conditionals import negate, parse_conditional
from cohere.simplex import (
    INFEASIBLE,
    OPTIMAL,
    LPResult,
    check_solution,
    solve_eq_lp,
)

from helpers import (
    evaluate,
    gn_chain_context,
    independent_pairs,
    integer_rows,
    optimize_rational,
    random_assessment,
    random_conditional,
    random_event,
    random_unit,
    reference_sigma,
    reference_worlds,
    reference_zero_upper,
    sigma_points,
    solve_rational,
    worlds_in,
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
        points = sigma_points(build_sigma(a))
        assert len(points) == 8
        by_region = {}
        for formula, point in TWO_COND_POINTS:
            region = parse_event(formula, ctx.atoms)
            for h, mask in enumerate(constituents(a.family).inside):
                if all(evaluate(region, w) for w in worlds_in(ctx, mask)):
                    by_region[formula] = points[h]
                    assert points[h] == tuple(Fr(v) for v in point(x, y))
        assert len(by_region) == 8

    def test_sure_antecedent(self):
        ctx = Context(("A",))
        a = Assessment((ce("A", "T", ctx),), (Fr(1, 2),))
        assert sorted(sigma_points(build_sigma(a))) == [(0,), (1,)]

    def test_mutual_pair_projected_points(self):
        ctx = Context(("A", "B"))
        x, y = Fr(1, 3), Fr(4, 7)
        a = Assessment((ce("A", "B", ctx), ce("B", "A", ctx)), (x, y))
        points = sigma_points(build_sigma(a))
        assert sorted(points) == sorted([(Fr(1), Fr(1)), (x, Fr(0)), (Fr(0), y)])


    @pytest.mark.parametrize("seed", range(12))
    def test_integer_rows_match_fraction_reference(self, seed):
        # build_sigma's integer rows and scales are integer_rows of the
        # paper's per-constituent Fraction system, and solving them with
        # their scales gives every LPResult the Fraction system gives,
        # cleared to integers row by row: the phase 1, the phase 1 with the
        # target's antecedent barred, and each optimum over them.
        rng = random.Random(seed)
        seen = {"constrained": 0, "p in {0, 1}": 0, "infeasible": 0}
        for _ in range(25):
            a = random_assessment(rng, max_size=4)
            probs = tuple(rng.choice((Fr(0), Fr(1), p)) for p in a.probs)
            a = Assessment(a.family, probs)
            target = random_conditional(rng, a.context)
            seen["constrained"] += bool(a.context.constraints)
            seen["p in {0, 1}"] += any(p in (0, 1) for p in probs)
            for t in (None, target):
                system = build_sigma(a, t)
                rows, rhs = reference_sigma(a, t)
                assert integer_rows(rows, rhs) == (
                    [list(row) for row in system.matrix], list(system.rhs), list(system.scales)
                )
                for barred in ((), system.supports[-1]):
                    got = solve_eq_lp(system.matrix, system.rhs, barred=barred, scales=system.scales)
                    want = solve_rational(rows, rhs, barred=barred)
                    assert got == want and repr(got) == repr(want)
                    seen["infeasible"] += got.status == INFEASIBLE
                    if got.status != OPTIMAL:
                        continue
                    objectives = [system.target_true, *system.supports]
                    for support, maximize in itertools.product(objectives, (False, True)):
                        objective = _indicator(support, len(system.matrix[0]))
                        got_best = got.optimize(objective, maximize)
                        want_best = optimize_rational(want, objective, maximize)
                        assert got_best == want_best and repr(got_best) == repr(want_best)
        assert all(seen.values()), seen


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

    def test_float_probability_rejected_at_assessment(self):
        # A float once passed here and then failed deep in check_coherence,
        # on a missing numerator.
        ctx = Context(("A",))
        with pytest.raises(TypeError, match=r"a probability is the float 0\.5;"):
            Assessment((ce("A", "T", ctx),), (0.5,))
        a = Assessment((ce("A", "T", ctx),), (Fr(1, 2),))
        with pytest.raises(TypeError, match=r"a probability is the float 0\.25;"):
            a.extend(ce("A", "T", ctx), 0.25)
        assert a.extend(ce("A", "T", ctx), 1).probs == (Fr(1, 2), Fr(1))

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
            i0 = set(zero_upper(system, system.phase1)[0])
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
            assert set(zero_upper(system, system.phase1)[0]) < set(range(len(a.family)))


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
        # The endpoints' proofs leave at most one coherence check, on a
        # subfamily of the base: the extended family is neither re-validated
        # nor has its constituents built twice.
        checks, builds = [], []
        real_check = cohere.coherence.check_coherence
        real_constituents = cohere.coherence.constituents

        def checking(a):
            checks.append(a.family)
            return real_check(a)

        def building(members):
            builds.append(tuple(members))
            return real_constituents(members)

        monkeypatch.setattr(cohere.coherence, "check_coherence", checking)
        monkeypatch.setattr(cohere.coherence, "constituents", building)
        ctx, pairs = independent_pairs(2)
        chain_ctx = Context(("A", "B", "H"))
        layered_ctx = Context(("A", "B", "C"))
        cases = [
            (pairs, (Fr(1, 2), Fr(1, 2)), quasi_conjunction(pairs)),
            (
                (ce("A", "H", chain_ctx), ce("B", "A & H", chain_ctx)),
                (Fr(1, 2), Fr(1, 3)),
                ce("A & B", "H", chain_ctx),
            ),
            # B|T = 0 sends the target C|B down to the layer below.
            (
                (ce("B", "T", layered_ctx), ce("A", "B", layered_ctx)),
                (Fr(0), Fr(1, 2)),
                ce("C", "B", layered_ctx),
            ),
            # C|T is met at the top, by a solution that leaves B uncharged.
            (
                (ce("B", "T", layered_ctx), ce("A", "B", layered_ctx)),
                (Fr(0), Fr(1, 2)),
                ce("C", "T", layered_ctx),
            ),
        ]
        for family, probs, target in cases:
            checks.clear()
            builds.clear()
            iv = extension_interval(Assessment(family, probs), target)
            assert 0 <= iv.lo <= iv.hi <= 1
            assert len(checks) <= 1
            assert all(set(checked) <= set(family) for checked in checks)
            extended = [members for members in builds if target in members]
            assert extended and len(set(extended)) == len(extended)
        assert checks == [(family[1],)]

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


class TestEndpointProofs:
    """Each endpoint is proved by the interval LPs' own solutions, checked
    exactly, plus at most one check of a subfamily of the base."""

    def test_intervals_match_brute_force_and_revalidation(self, monkeypatch):
        # The removed re-validation, check_coherence(a.extend(target, z)), is
        # the reference for every endpoint; probabilities drawn from {0, 1}
        # reach the descents and bases refuted below the top level.  The
        # engine's own barred phase 1s and the fractional levels it settles
        # at [0, 1] are counted too, so both routes meet the brute force.
        checks, barred, settled = [], [], []
        real_check = cohere.coherence.check_coherence
        real_bounds = cohere.coherence._fractional_bounds

        def checking(a):
            checks.append(a.family)
            return real_check(a)

        def solving(*args, **kwargs):
            result = solve_eq_lp(*args, **kwargs)
            if kwargs.get("barred"):
                barred.append(result.status == OPTIMAL)
            return result

        def bounding(*args):
            bounds = real_bounds(*args)
            if bounds is not None:
                settled.append([value for value, _ in bounds] == [0, 1])
            return bounds

        monkeypatch.setattr(cohere.coherence, "check_coherence", checking)
        monkeypatch.setattr(cohere.simplex, "solve_eq_lp", solving)
        monkeypatch.setattr(cohere.coherence, "_fractional_bounds", bounding)
        rng = random.Random(1409)
        coherent = refuted_below = compared = descended = engine_descents = stops = 0
        unchecked = 0
        while coherent < 300 or refuted_below < 40:
            a = random_assessment(rng, max_size=3)
            if rng.random() < 0.5:
                a = Assessment(a.family, tuple(Fr(rng.randint(0, 1)) for _ in a.family))
            target = random_conditional(rng, a.context)
            verdict = check_coherence(a)
            checks.clear()
            barred.clear()
            settled.clear()
            if not verdict.coherent:
                if len(verdict.trace) == 1 or refuted_below >= 40:
                    continue
                with pytest.raises(IncoherentAssessmentError):
                    extension_interval(a, target)
                refuted_below += 1
                continue
            if coherent >= 300:
                continue
            iv = extension_interval(a, target)
            assert len(checks) <= 1
            assert all(set(checked) <= set(a.family) for checked in checks)
            # The base is checked only on the members that none of the top
            # level's solutions charges, among them its zero-probability
            # layer, and not at all when they charge every member.
            layer = {a.family[j] for j in verdict.trace[0].i0}
            assert layer <= set(checks[0] if checks else ()), (a, target)
            unchecked += not checks
            for z in (iv.lo, iv.hi):
                assert check_coherence(a.extend(target, z)).coherent, (a, target, z)
            try:
                bf = extension_interval_bruteforce(a, target)
            except SizeLimitError:
                pass
            else:
                assert (iv.lo, iv.hi, iv.vacuous) == (bf.lo, bf.hi, bf.vacuous)
                compared += 1
            system = build_sigma(a, target)
            zero_den = solve_eq_lp(
                system.matrix, system.rhs, barred=system.supports[-1], scales=system.scales
            )
            descended += zero_den.status == OPTIMAL
            engine_descents += sum(barred)
            stops += sum(settled)
            coherent += 1
        assert compared > 250 and descended > 100
        assert engine_descents > 60 and stops > 80
        assert unchecked > coherent // 2

    @pytest.mark.parametrize("fault", ["shifted", "swapped", "shifted average", "skipped level"])
    def test_corrupted_proof_raises(self, monkeypatch, fault):
        ctx = Context(("A", "B", "C"))
        family = (ce("B", "T", ctx), ce("A", "B", ctx))
        a = Assessment(family, (Fr(0), Fr(1, 2)))
        if fault in ("shifted", "swapped"):
            # C|T is met at the top, where the optimum's solution proves both
            # endpoints: off the system, or proving the other endpoint.
            target = ce("C", "T", ctx)
            real = cohere.coherence._fractional_bounds

            def corrupt(*args):
                (lo, w_lo), (hi, w_hi) = real(*args)
                assert lo < hi
                if fault == "swapped":
                    return (lo, w_hi), (hi, w_lo)
                return (lo, _shifted(w_lo)), (hi, w_hi)

            monkeypatch.setattr(cohere.coherence, "_fractional_bounds", corrupt)
        else:
            # B|T = 0 leaves no mass on B, so C|B is taken from the level
            # below, through the descent's mediant solution.
            target = ce("C", "B", ctx)
            real = cohere.coherence.zero_upper

            def corrupt(*args):
                indices, mediant = real(*args)
                assert indices == (1,)
                if fault == "skipped level":
                    return (), mediant
                return indices, _shifted(mediant)

            monkeypatch.setattr(cohere.coherence, "zero_upper", corrupt)
        with pytest.raises(AssertionError, match="solution|extension proof"):
            extension_interval(a, target)


    def test_chain_check_follows_the_levels(self):
        ctx = Context(("A", "B", "C"))
        # B|T = 0 leaves no mass on B: C|B is taken from the level below.
        a = Assessment((ce("B", "T", ctx), ce("A", "B", ctx)), (Fr(0), Fr(1, 2)))
        target = ce("C", "B", ctx)
        lo, _, _ = _interval_levels(a, target, (0, 1))
        assert [link.indices for link in lo.chain] == [(0, 1), (1,)]
        # The chain checks down to C|B's own values; the top level's
        # solution leaves A|B, the level below, uncharged.
        assert _open_indices(lo, target) == (1,)
        top, below = lo.chain
        skipped = _Link((0,), below.system, below.solution)
        with pytest.raises(AssertionError, match="skips a zero-probability level"):
            _open_indices(_Endpoint(lo.value, (top, skipped)), target)
        # C|T is met at the top, whose solution charges T: nothing follows.
        top_target = ce("C", "T", ctx)
        met, _, _ = _interval_levels(a, top_target, (0, 1))
        assert len(met.chain) == 1 and _open_indices(met, top_target) == (1,)
        with pytest.raises(AssertionError, match="continues past a charged target"):
            _open_indices(_Endpoint(met.value, met.chain + (below,)), top_target)
        # B|B is 1 on its own, the bottom of a descent from B|T = 0.
        sure = ce("B", "B", ctx)
        end, _, _ = _interval_levels(a.restrict((0,)), sure, (0,))
        assert (end.value, len(end.chain)) == (1, 1)
        assert _open_indices(end, sure) == ()
        with pytest.raises(AssertionError, match="not a value of the target alone"):
            _open_indices(_Endpoint(Fr(1, 2), end.chain), sure)


def _shifted(solution):
    """``solution``, numerators over a denominator, with one more numerator
    unit on its first constituent."""
    x, den = solution
    return (x[0] + 1,) + tuple(x[1:]), den


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
            zero_upper(system, system.phase1)

    @pytest.mark.parametrize("probs", [(0, "1/2"), (0, 1)])
    def test_check_runs_one_phase1_per_level(self, monkeypatch, probs):
        # B|T = 0 leaves A|B to a zero-probability layer below the top level.
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve_eq_lp(*args, **kwargs)

        monkeypatch.setattr(cohere.simplex, "solve_eq_lp", counting)
        ctx = Context(("A", "B"))
        a = Assessment(
            (ce("B", "T", ctx), ce("A", "B", ctx)), tuple(Fr(p) for p in probs)
        )
        verdict = check_coherence(a)
        assert verdict.coherent
        assert [rec.indices for rec in verdict.trace] == [(0, 1), (1,)]
        assert len(calls) == len(verdict.trace)

    def test_fractional_level_runs_two_phase1s_and_two_optimizations(self, monkeypatch):
        # The homogenized phase 1 finds that some solution charges H | K, and
        # the one with H | K barred that none leaves it uncharged; only the
        # ratio's two extremes are optimized.
        calls, optima = [], []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("barred", ()))
            return solve_eq_lp(*args, **kwargs)

        optimize = LPResult.optimize

        def optimizing(self, *args, **kwargs):
            optima.append(args)
            return optimize(self, *args, **kwargs)

        monkeypatch.setattr(cohere.simplex, "solve_eq_lp", counting)
        monkeypatch.setattr(LPResult, "optimize", optimizing)
        ctx = Context(("A", "H", "B", "K"))
        family = (ce("A", "H", ctx), ce("B", "K", ctx))
        a = Assessment(family, (Fr(1, 2), Fr(1, 2)))
        iv = extension_interval(a, quasi_conjunction(family))
        assert (iv.lo, iv.hi, iv.vacuous) == (Fr(0), Fr(2, 3), False)
        assert len(calls) == 2 and not calls[0] and calls[1]
        assert len(optima) == 2

    def test_level_at_zero_one_runs_one_phase1_and_two_optimizations(self, monkeypatch):
        # The ratio already spans [0, 1], so no deeper interval can widen it:
        # neither the phase 1 with T barred nor a descent runs.
        calls, optima, descents = [], [], []

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return solve_eq_lp(*args, **kwargs)

        optimize = LPResult.optimize

        def optimizing(self, *args, **kwargs):
            optima.append(args)
            return optimize(self, *args, **kwargs)

        def descending(*args):
            descents.append(args)
            return zero_upper(*args)

        monkeypatch.setattr(cohere.simplex, "solve_eq_lp", counting)
        monkeypatch.setattr(LPResult, "optimize", optimizing)
        monkeypatch.setattr(cohere.coherence, "zero_upper", descending)
        ctx = Context(("A", "B", "C"))
        a = Assessment((ce("A", "B", ctx),), (Fr(1, 2),))
        target = ce("C", "T", ctx)
        lo, hi, vacuous = _interval_levels(a, target, (0,))
        assert (lo.value, hi.value, vacuous) == (0, 1, False)
        assert len(calls) == 1 and "barred" not in calls[0]
        assert len(optima) == 2 and not descents
        assert len(lo.chain) == len(hi.chain) == 1
        iv = extension_interval(a, target)
        assert (iv.lo, iv.hi, iv.vacuous) == (Fr(0), Fr(1), False)

    def test_base_refuted_below_a_zero_one_level_rejected(self):
        # C|T spans [0, 1] at the top level, where B|T = 0 leaves B
        # uncharged: no descent meets A|B = ~A|B = 1, and the check of the
        # members the endpoints leave open refutes them.
        ctx = Context(("A", "B", "C"))
        family = (ce("B", "T", ctx), ce("A", "B", ctx), ce("~A", "B", ctx))
        a = Assessment(family, (Fr(0), Fr(1), Fr(1)))
        target = ce("C", "T", ctx)
        lo, hi, _ = _interval_levels(a, target, (0, 1, 2))
        assert (lo.value, hi.value) == (0, 1)
        assert {1, 2} <= set(_open_indices(lo, target))
        with pytest.raises(IncoherentAssessmentError, match="cannot extend an incoherent base"):
            extension_interval(a, target)


class TestZeroUpperFromSpread:
    """The descent starts from the phase-1 spread point, so a mass LP runs
    only for the antecedents that no neighbour of the phase-1 basis charges,
    and for the round that proves their maximum is zero."""

    def test_matches_mass_lp_rounds(self):
        rng = random.Random(1919)
        seen = Counter()
        for _ in range(2500):
            a = random_assessment(rng, max_size=4, allow_constraints=rng.random() < 0.5)
            refined = build_sigma(a, random_conditional(rng, a.context))
            plain = build_sigma(a)
            for system, barred in ((plain, ()), (refined, refined.supports[-1])):
                start = solve_eq_lp(system.matrix, system.rhs, barred=barred, scales=system.scales)
                if start.status != OPTIMAL:
                    continue
                indices, (mediant, den) = zero_upper(system, start)
                assert indices == reference_zero_upper(system, start), a
                check_solution(system.matrix, system.rhs, mediant, den)
                charged = {h for h, v in enumerate(mediant) if v}
                assert indices == tuple(
                    j for j, support in enumerate(system.supports[: len(a.family)])
                    if charged.isdisjoint(support)
                )
                seen["barred" if barred else "plain"] += 1
                seen["layered"] += bool(indices)
        assert seen["plain"] + seen["barred"] >= 2000 and min(seen.values()) > 500, seen

    @pytest.mark.parametrize(
        "atoms, members, optima",
        [
            # Some neighbour of the phase-1 basis charges each antecedent.
            ("AHBK", [("B | A & H", "1/4"), ("B & K | K", "1/4")], []),
            # No neighbour charges one antecedent: one mass LP does, and
            # leaves none uncharged.
            (
                "ABCD",
                [
                    ("A | ~B", "0"),
                    ("~(C & B) | (C | A) | A", "1/2"),
                    ("C | D", "2/3"),
                    ("B | ~C | (D | D)", "1"),
                ],
                [Fr(3, 4)],
            ),
        ],
    )
    def test_coherent_in_one_level(self, monkeypatch, atoms, members, optima):
        found = []
        optimize = LPResult.optimize

        def optimizing(self, *args, **kwargs):
            best = optimize(self, *args, **kwargs)
            found.append(best.objective)
            return best

        monkeypatch.setattr(LPResult, "optimize", optimizing)
        ctx = Context(tuple(atoms))
        a = Assessment(
            tuple(parse_conditional(text, ctx) for text, _ in members),
            tuple(Fr(p) for _, p in members),
        )
        verdict = check_coherence(a)
        assert verdict.coherent and len(verdict.trace) == 1
        assert found == optima


def _constrained_family(rng):
    """3 to 5 conditionals over 3 or 4 atoms under one or two constraints,
    assessed from a mass on one to three worlds that meet some antecedent,
    so that level 0 is solvable; a member whose antecedent that mass misses
    gets a random value, so deeper levels can go either way.  Also returns
    a target drawn from the same context."""
    atoms = ("A", "B", "C", "D")[: rng.randint(3, 4)]
    while True:
        constraints = tuple(
            random_event(rng, atoms, 1) & random_event(rng, atoms, 1)
            for _ in range(rng.randint(1, 2))
        )
        ctx = Context(atoms, constraints)
        if len(reference_worlds(ctx)) >= 3:
            break
    family = tuple(random_conditional(rng, ctx) for _ in range(rng.randint(3, 5)))
    met = 0
    for member in family:
        met |= member.masks[0] | member.masks[1]
    worlds = [w for w in range(met.bit_length()) if met >> w & 1]
    charged = rng.sample(worlds, min(len(worlds), rng.randint(1, 3)))
    mass = {w: rng.randint(1, 4) for w in charged}
    probs = []
    for member in family:
        verifying, falsifying = member.masks
        on = sum(m for w, m in mass.items() if (verifying | falsifying) >> w & 1)
        true = sum(m for w, m in mass.items() if verifying >> w & 1)
        probs.append(Fr(true, on) if on else random_unit(rng))
    return Assessment(family, tuple(probs)), random_conditional(rng, ctx)


def _named_levels(verdict, names):
    """Each level's examined members and zero layer, as sets of member names."""
    return [
        (frozenset(names[i] for i in rec.indices), frozenset(names[i] for i in rec.i0))
        for rec in verdict.trace
    ]


def _outcome(a, names, target):
    """The verdict, each level's examined members and zero layer as sets of
    member names, and the target's extension interval, or None for an
    incoherent base."""
    verdict = check_coherence(a)
    levels = _named_levels(verdict, names)
    try:
        iv = extension_interval(a, target)
        interval = (iv.lo, iv.hi, iv.vacuous)
    except IncoherentAssessmentError:
        interval = None
    return verdict.coherent, levels, interval


class TestInvariance:
    """Coherence and extension intervals depend on the family as a set of
    conditional events, and on each member only through its constituent
    equation."""

    CASES = 40

    def test_permuting_the_members_changes_nothing(self):
        rng = random.Random(2901)
        seen = Counter()
        for _ in range(self.CASES):
            a, target = _constrained_family(rng)
            names = [f"c{i}" for i in range(len(a.family))]
            order = list(range(len(a.family)))
            rng.shuffle(order)
            permuted = a.restrict(order)
            expected = _outcome(a, names, target)
            assert _outcome(permuted, [names[i] for i in order], target) == expected
            seen[expected[0], len(expected[1])] += 1
        # The families reach incoherent verdicts and coherent ones below level 0.
        assert seen[True, 1] and seen[False, 2], seen
        assert any(coherent and levels > 1 for coherent, levels in seen), seen

    def test_negating_a_member_at_the_complement_changes_nothing(self):
        # E | H at p and ~E | H at 1 - p give the same constituent equation
        # up to sign, over the same antecedent.
        rng = random.Random(2902)
        for _ in range(self.CASES):
            a, target = _constrained_family(rng)
            names = [f"c{i}" for i in range(len(a.family))]
            j = rng.randrange(len(a.family))
            swapped = Assessment(
                a.family[:j] + (negate(a.family[j]),) + a.family[j + 1:],
                a.probs[:j] + (1 - a.probs[j],) + a.probs[j + 1:],
            )
            assert _outcome(swapped, names, target) == _outcome(a, names, target)


def _renamed(event, names):
    """``event`` with every atom renamed through ``names``."""
    if isinstance(event, Atom):
        return Atom(names[event.name])
    return type(event)(*(_renamed(getattr(event, f), names) for f in event._fields))


class TestHeredity:
    """Relations between a family and a larger or renamed one: the paper's
    coherence is hereditary, a member that its antecedent implies is sure,
    and a conditional event has one value.  Each needs the descent below
    level 0, where members whose antecedents the level's solutions leave
    uncharged are checked on their own."""

    CASES = 40

    def _coherent_families(self, seed):
        rng = random.Random(seed)
        found = 0
        while found < self.CASES:
            a, target = _constrained_family(rng)
            if check_coherence(a).coherent:
                found += 1
                yield rng, a, target

    def test_every_subfamily_of_a_coherent_family_is_coherent(self):
        checked = 0
        for _, a, _ in self._coherent_families(3001):
            n = len(a.family)
            for size in range(1, n):
                for subset in itertools.combinations(range(n), size):
                    assert check_coherence(a.restrict(subset)).coherent, (a, subset)
                    checked += 1
        assert checked > 500

    def test_a_member_its_antecedent_implies_is_sure(self):
        # E | H with H implying E: coherent at 1 alongside a coherent family,
        # and incoherent at any value below 1.
        seen = Counter()
        for rng, a, _ in self._coherent_families(3002):
            ctx = a.context
            antecedent = random_conditional(rng, ctx).antecedent
            consequent = antecedent | random_event(rng, ctx.atoms, 1)
            sure = ConditionalEvent(consequent, antecedent, ctx)
            assert check_coherence(a.extend(sure, Fr(1))).coherent
            for p in (Fr(0), random_unit(rng) * Fr(99, 100), Fr(99, 100)):
                verdict = check_coherence(a.extend(sure, p))
                assert not verdict.coherent, (a, sure, p)
                seen[len(verdict.trace)] += 1
        # Some refutations come only below level 0.
        assert seen[1] and sum(v for k, v in seen.items() if k > 1), seen

    def test_a_member_at_two_values_is_incoherent(self):
        seen = Counter()
        for rng, a, _ in self._coherent_families(3003):
            j = rng.randrange(len(a.family))
            other = random_unit(rng)
            if other == a.probs[j]:
                other = 1 - other if other != Fr(1, 2) else Fr(1, 3)
            verdict = check_coherence(a.extend(a.family[j], other))
            assert not verdict.coherent, (a, j, other)
            seen[len(verdict.trace)] += 1
        assert seen[1] and sum(v for k, v in seen.items() if k > 1), seen

    def test_renaming_the_atoms_changes_nothing(self):
        # A bijection onto new names, declared in another order, permutes
        # the worlds' bits and so the constituents' order.
        rng = random.Random(3004)
        seen = Counter()
        for _ in range(self.CASES):
            a, target = _constrained_family(rng)
            ctx = a.context
            names = dict(zip(ctx.atoms, rng.sample(("P", "Q", "R", "S", "U"), len(ctx.atoms))))
            order = list(names.values())
            rng.shuffle(order)
            renamed_ctx = Context(
                tuple(order), tuple(_renamed(c, names) for c in ctx.constraints)
            )

            def renamed(ce):
                return ConditionalEvent(
                    _renamed(ce.consequent, names), _renamed(ce.antecedent, names), renamed_ctx
                )

            members = [f"c{i}" for i in range(len(a.family))]
            renamed_a = Assessment(tuple(renamed(ce) for ce in a.family), a.probs)
            expected = _outcome(a, members, target)
            assert _outcome(renamed_a, members, renamed(target)) == expected
            seen[expected[0], len(expected[1])] += 1
        assert seen[True, 1] and seen[False, 2], seen
        assert any(coherent and levels > 1 for coherent, levels in seen), seen


class TestDisjointUnion:
    """A family joined with a second one renamed onto fresh atoms.  The
    union's solutions are the mixtures of the two families' solutions, with
    either one's antecedents possibly left without mass, so the union is
    coherent exactly when both families are, each level's zero layer is the
    union of the two families' layers at that level, and a target over the
    first family keeps its interval.  The descent below level 0 decides
    both."""

    CASES = 400

    def test_union_answers_as_its_two_families(self):
        rng = random.Random(3301)
        seen = Counter()
        for case in range(self.CASES):
            first, second = (random_assessment(rng, max_size=3) for _ in range(2))
            if case % 2:
                # Values at 0 and 1 leave antecedents without mass.
                first, second = (
                    Assessment(a.family, tuple(Fr(rng.randint(0, 1)) for _ in a.family))
                    for a in (first, second)
                )
            target = random_conditional(rng, first.context)
            same = {name: name for name in first.context.atoms}
            fresh = {name: f"Z{name}" for name in second.context.atoms}
            ctx = Context(
                first.context.atoms + tuple(fresh.values()),
                first.context.constraints
                + tuple(_renamed(c, fresh) for c in second.context.constraints),
            )

            def moved(ce, names):
                return ConditionalEvent(
                    _renamed(ce.consequent, names), _renamed(ce.antecedent, names), ctx
                )

            union = Assessment(
                tuple(moved(ce, same) for ce in first.family)
                + tuple(moved(ce, fresh) for ce in second.family),
                first.probs + second.probs,
            )
            ones = [f"a{i}" for i in range(len(first.family))]
            twos = [f"b{i}" for i in range(len(second.family))]
            coherent, levels, interval = _outcome(first, ones, target)
            verdict = check_coherence(second)
            joined = _outcome(union, ones + twos, moved(target, same))
            assert joined[0] == (coherent and verdict.coherent), (first, second)
            if joined[0]:
                empty = (frozenset(), frozenset())
                assert joined[1] == [
                    (examined | other_examined, i0 | other_i0)
                    for (examined, i0), (other_examined, other_i0) in itertools.zip_longest(
                        levels, _named_levels(verdict, twos), fillvalue=empty
                    )
                ], (first, second)
                assert joined[2] == interval, (first, second, target)
            seen[joined[0], len(joined[1])] += 1
        # Coherent unions with a zero layer, and incoherent ones, occur.
        assert sum(v for (c, n), v in seen.items() if c and n > 1) >= 10, seen
        assert sum(v for (c, _), v in seen.items() if not c) >= 10, seen
