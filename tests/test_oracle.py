"""Vertex enumeration and agreement between the brute-force and LP paths."""

import random
from fractions import Fraction as Fr
from pathlib import Path

import pytest

from cohere import (
    Assessment,
    Context,
    ConditionalEvent,
    SizeLimitError,
    build_sigma,
    check_coherence,
    extension_interval,
    parse_conditional,
    parse_event,
    quasi_conjunction,
    quasi_disjunction,
    sigma_feasible,
    zero_upper,
)
from cohere.coherence import _fractional_bounds, _indicator
from cohere.kbfile import load_kb
from cohere.oracle import (
    VERTEX_ENUMERATION_LIMIT,
    extension_interval_bruteforce,
    vertices,
)
from cohere.simplex import OPTIMAL, solve_eq_lp

from helpers import all_ones, independent_pairs, random_assessment, random_conditional, random_unit

KB_DIR = Path(__file__).resolve().parent.parent / "kb"


def ce(consequent, antecedent, ctx):
    return ConditionalEvent(
        parse_event(consequent, ctx.atoms), parse_event(antecedent, ctx.atoms), ctx
    )


class TestVertices:
    def test_pure_simplex(self):
        assert sorted(vertices(((Fr(1), Fr(1), Fr(1)),), (Fr(1),))) == [
            (0, 0, 1),
            (0, 1, 0),
            (1, 0, 0),
        ]

    def test_forced_point(self):
        ctx = Context(("A",))
        a = Assessment((ce("A", "T", ctx),), (Fr(1, 2),))
        system = build_sigma(a)
        verts = vertices(system.matrix, system.rhs)
        assert verts == ((Fr(1, 2), Fr(1, 2)),)

    def test_infeasible_system_has_no_vertices(self):
        assert vertices(((Fr(1), Fr(1)),), (Fr(-1),)) == ()

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            vertices((tuple(Fr(1) for _ in range(15)),), (Fr(1),))

    def test_vertices_satisfy_system_exactly(self):
        rng = random.Random(3)
        for _ in range(25):
            a = random_assessment(rng)
            p = build_sigma(a)
            if len(p.matrix[0]) > 12:
                continue
            for v in vertices(p.matrix, p.rhs):
                assert all(x >= 0 for x in v)
                for row, b in zip(p.matrix, p.rhs):
                    assert sum(c * x for c, x in zip(row, v)) == b

    def test_feasibility_matches_lp(self):
        rng = random.Random(9)
        for _ in range(30):
            a = random_assessment(rng)
            p = build_sigma(a)
            if len(p.matrix[0]) > 12:
                continue
            has_vertex = len(vertices(p.matrix, p.rhs)) > 0
            verdict_has_solution = check_coherence(a).trace[0].witness is not None
            assert has_vertex == verdict_has_solution


class TestExtensionAgreement:
    def test_reference_instances(self):
        ctx, family = independent_pairs(2)
        a = Assessment(family, (Fr(1, 2), Fr(1, 2)))
        bf = extension_interval_bruteforce(a, quasi_conjunction(family))
        assert (bf.lo, bf.hi) == (Fr(0), Fr(2, 3))

        ctx2 = Context(("A", "B"))
        pair = (ce("A", "B", ctx2), ce("B", "A", ctx2))
        a2 = Assessment(pair, (Fr(1, 2), Fr(1, 2)))
        bf2 = extension_interval_bruteforce(a2, ce("A & B", "A | B", ctx2))
        assert (bf2.lo, bf2.hi) == (Fr(1, 3), Fr(1, 3))

        ctx3 = Context(("A", "B", "H"))
        chain = (ce("A", "H", ctx3), ce("B", "A & H", ctx3))
        a3 = Assessment(chain, (Fr(1, 2), Fr(1, 3)))
        bf3 = extension_interval_bruteforce(a3, ce("A & B", "H", ctx3))
        assert (bf3.lo, bf3.hi) == (Fr(1, 6), Fr(1, 6))

        # The all-ones loop base p-entails A1 | A3 and leaves A1 | T free.
        kb, _ = load_kb(KB_DIR / "loop3.kb")
        for target, expected in (("A1 | A3", (1, 1)), ("A1 | T", (0, 1))):
            t = parse_conditional(target, kb.context)
            lp = extension_interval(all_ones(kb), t)
            bf = extension_interval_bruteforce(all_ones(kb), t)
            assert (lp.lo, lp.hi) == (bf.lo, bf.hi) == expected, target

    def test_agreement_on_random_instances(self):
        # Probabilities drawn from {0, 1} make the LP path descend through
        # zero-probability layers: a target antecedent with zero upper
        # probability, and zero-denominator solutions merged from below.
        rng = random.Random(17)
        for extreme, wanted in ((False, 20), (True, 40)):
            compared = 0
            while compared < wanted:
                a = random_assessment(rng, max_size=2)
                if extreme:
                    a = Assessment(a.family, tuple(Fr(rng.randint(0, 1)) for _ in a.family))
                if not check_coherence(a).coherent:
                    continue
                target = random_conditional(rng, a.context)
                try:
                    bf = extension_interval_bruteforce(a, target)
                except SizeLimitError:
                    continue
                lp = extension_interval(a, target)
                assert (lp.lo, lp.hi) == (bf.lo, bf.hi), (a, target)
                compared += 1

    def test_agreement_on_quasi_connectives(self):
        rng = random.Random(23)
        ctx, family = independent_pairs(2)
        for _ in range(8):
            a = Assessment(family, (random_unit(rng), random_unit(rng)))
            for target in (quasi_conjunction(family), quasi_disjunction(family)):
                lp = extension_interval(a, target)
                bf = extension_interval_bruteforce(a, target)
                assert (lp.lo, lp.hi) == (bf.lo, bf.hi)


def _zero_on_every_vertex(system, matrix, rhs):
    verts = vertices(matrix, rhs)
    assert verts
    return tuple(
        j
        for j in range(len(system.matrix) - 1)
        if all(sum(v[h] for h in system.supports[j]) == 0 for v in verts)
    )


class TestZeroUpperAgreement:
    def test_zero_upper_matches_vertices(self):
        # The zero-probability subfamily holds the antecedents that no vertex
        # of the solution polytope charges: over all solutions, and over the
        # solutions of a target-refined system with no mass on the target's
        # antecedent.  The phase 1 with that antecedent barred, and the
        # homogenized one, are feasible exactly when some vertex leaves the
        # antecedent uncharged, and when some vertex charges it.
        rng = random.Random(4)
        plain = pinned = 0
        for _ in range(100):
            a = random_assessment(rng, max_size=4)
            system = build_sigma(a)
            witness = sigma_feasible(system).witness
            if witness is None or len(system.matrix[0]) > VERTEX_ENUMERATION_LIMIT:
                continue
            expected = _zero_on_every_vertex(system, system.matrix, system.rhs)
            found, mediant = zero_upper(system, system.phase1)
            assert found == expected, a
            _assert_charges_all_but(system, mediant, expected)
            plain += 1

            target = random_conditional(rng, a.context)
            system = build_sigma(a, target)
            if len(system.matrix[0]) > VERTEX_ENUMERATION_LIMIT:
                continue
            den = system.supports[-1]
            masses = [sum(v[h] for h in den) for v in vertices(system.matrix, system.rhs)]
            start = solve_eq_lp(system.matrix, system.rhs, barred=den, scales=system.scales)
            assert (start.status == OPTIMAL) == (0 in masses), (a, target)
            homogenized = _fractional_bounds(system)
            assert (homogenized is not None) == any(masses), (a, target)
            if start.status != OPTIMAL:
                continue
            expected = _zero_on_every_vertex(
                system,
                system.matrix + (tuple(_indicator(den, len(system.matrix[0]))),),
                system.rhs + (Fr(0),),
            )
            found, mediant = zero_upper(system, start)
            assert found == expected, (a, target)
            _assert_charges_all_but(system, mediant, expected)
            assert all(mediant[0][h] == 0 for h in den)
            pinned += 1
        assert plain > 40 and pinned > 20


def _assert_charges_all_but(system, solution, indices):
    """``solution``, numerators over a denominator, solves the system and
    charges exactly the antecedents outside ``indices``."""
    solution, den = solution
    assert den > 0 and all(v >= 0 for v in solution)
    for row, b in zip(system.matrix, system.rhs):
        assert sum(q * v for q, v in zip(row, solution)) == b * den
    uncharged = tuple(
        j
        for j in range(len(system.matrix) - 1)
        if all(solution[h] == 0 for h in system.supports[j])
    )
    assert uncharged == indices
