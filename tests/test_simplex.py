"""Exact simplex: feasibility, optimization, certificates, degeneracies."""

import itertools
import random
from collections import Counter
from fractions import Fraction as Fr
from math import isqrt, lcm

import pytest

import cohere.simplex
import helpers
from cohere import (
    Assessment,
    Context,
    IncoherentAssessmentError,
    build_sigma,
    check_coherence,
    extension_interval,
    parse_conditional,
)
from cohere.simplex import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LPResult,
    _check_farkas,
    check_solution,
    solve_eq_lp,
)
from helpers import (
    answer,
    integer_rows,
    optimize_rational,
    random_assessment,
    random_conditional,
    rational_system,
    reference_solve_eq_lp,
    solution,
    solve_rational,
)


def F(*values):
    return [Fr(v) for v in values]


class TestFeasibility:
    def test_simplex_point(self):
        res = solve_rational([F(1, 1, 1)], F(1))
        assert res.status == OPTIMAL
        x = solution(res)
        assert sum(x) == 1 and all(v >= 0 for v in x)

    def test_two_equations(self):
        res = solve_rational([F(1, 0), F(1, 1)], F("1/2", 1))
        assert res.status == OPTIMAL
        assert solution(res) == (Fr(1, 2), Fr(1, 2))

    def test_infeasible_sign(self):
        # x1 + x2 = -1 has no nonnegative solution
        res = solve_rational([F(1, 1)], F(-1))
        assert res.status == INFEASIBLE
        assert res.farkas is not None

    def test_infeasible_contradiction(self):
        res = solve_rational([F(1, 1), F(1, 1)], F(1, 2))
        assert res.status == INFEASIBLE

    def test_redundant_rows_accepted(self):
        res = solve_rational([F(1, 1), F(2, 2)], F(1, 2))
        assert res.status == OPTIMAL


class TestFarkas:
    def test_certificate_inequalities(self):
        rows = [F(1, 0, "1/2"), F(0, 1, "1/2"), F(1, 1, 1)]
        rhs = F(1, 0, 1)  # forces x1 = 1, x2 = 0, x3 = 0 -> first eq fails
        res = solve_rational(rows, rhs)
        if res.status == INFEASIBLE:
            y = res.farkas
            for j in range(3):
                assert sum(y[i] * rows[i][j] for i in range(3)) <= 0
            assert sum(y[i] * rhs[i] for i in range(3)) > 0

    def test_random_infeasible_systems_certified(self):
        rng = random.Random(42)
        seen_infeasible = 0
        for _ in range(200):
            m, n = rng.randint(1, 3), rng.randint(1, 4)
            rows = [
                [Fr(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(m)
            ]
            rhs = [Fr(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)]
            res = solve_rational(rows, rhs)
            if res.status == OPTIMAL:
                x = solution(res)
                for row, b in zip(rows, rhs):
                    assert sum(c * v for c, v in zip(row, x)) == b
                assert all(v >= 0 for v in x)
            else:
                assert res.status == INFEASIBLE
                seen_infeasible += 1
                # the solver re-checks the certificate internally; recheck here
                y = res.farkas
                for j in range(n):
                    assert sum(y[i] * rows[i][j] for i in range(m)) <= 0
                assert sum(yi * b for yi, b in zip(y, rhs)) > 0
        assert seen_infeasible > 10


    def test_corrupted_certificates_raise_exactly_when_invalid(self):
        # Each engine certificate, cleared to integers z = d * y, with one
        # entry negated, zeroed or moved by 1/d: the integer check on the
        # scaled rows raises exactly when a Fraction evaluation of y.A <= 0
        # and y.b > 0 on the original rows fails.
        rng = random.Random(17)
        raised = dict.fromkeys(("negated", "zeroed", "moved by 1/d"), 0)
        for _ in range(300):
            m, n = rng.randint(1, 4), rng.randint(1, 5)
            rows = [
                [Fr(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(m)
            ]
            rhs = [Fr(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(m)]
            res = solve_rational(rows, rhs)
            if res.status != INFEASIBLE:
                continue
            d = lcm(*(y.denominator for y in res.farkas))
            z = [y.numerator * (d // y.denominator) for y in res.farkas]
            integer = integer_rows(rows, rhs)
            _check_farkas(*integer, z, range(n))
            corruptions = (
                ("negated", lambda v: -v),
                ("zeroed", lambda v: 0),
                ("moved by 1/d", lambda v: v + 1),
                ("moved by 1/d", lambda v: v - 1),
            )
            for i, (kind, corrupt) in itertools.product(range(m), corruptions):
                bad = z[:]
                bad[i] = corrupt(z[i])
                y = [Fr(w, d) for w in bad]
                valid = all(
                    sum(yi * row[j] for yi, row in zip(y, rows)) <= 0 for j in range(n)
                ) and sum(yi * b for yi, b in zip(y, rhs)) > 0
                try:
                    _check_farkas(*integer, bad, range(n))
                except AssertionError:
                    assert not valid
                    raised[kind] += 1
                else:
                    assert valid
        assert min(raised.values()) > 10, raised

    @pytest.mark.parametrize(
        "entry, corrupt",
        [
            (0, lambda c, d: 2 * d - c),  # y_0 negated
            (1, lambda c, d: d),  # y_1 zeroed
            (0, lambda c, d: c - 1),  # y_0 moved by 1/d
        ],
    )
    def test_corrupted_engine_certificate_raises(self, monkeypatch, entry, corrupt):
        # x1 + x2 = 1 and x1 + x2 = 2 have the tight certificate y = (-1, 1).
        # y_i = d - cost[k + i] (no row is flipped), so corrupting the phase-1
        # cost row, packed last in the tableau, after the last pivot
        # corrupts the certificate.
        rows, rhs = [F(1, 1), F(1, 1)], F(1, 2)
        assert solve_rational(rows, rhs).farkas == (-1, 1)
        iterate = cohere.simplex._iterate

        def corrupted(tab, basis, n, d, fields):
            status, d = iterate(tab, basis, n, d, fields)
            cost = fields.unpack(tab[-1])
            cost[n + entry] = corrupt(cost[n + entry], d)
            tab[-1] = fields.pack(cost)
            return status, d

        monkeypatch.setattr(cohere.simplex, "_iterate", corrupted)
        with pytest.raises(AssertionError, match="Farkas"):
            solve_rational(rows, rhs)


class TestOptimization:
    def test_maximize_on_simplex(self):
        res = solve_rational([F(1, 1, 1)], F(1), F(1, 2, 3), maximize=True)
        assert res.status == OPTIMAL
        assert res.objective == 3
        assert solution(res) == (0, 0, 1)

    def test_minimize_on_simplex(self):
        res = solve_rational([F(1, 1, 1)], F(1), F(1, 2, 3), maximize=False)
        assert res.objective == 1

    def test_degenerate_optimum(self):
        # second equation pins x3 = 0; Bland's rule must still terminate
        rows = [F(1, 1, 1), F(0, 0, 1)]
        res = solve_rational(rows, F(1, 0), F(0, 0, 1), maximize=True)
        assert res.objective == 0

    def test_unbounded_detected(self):
        # x1 - x2 = 0 leaves the ray (t, t) free; maximize x1
        res = solve_rational([F(1, -1)], F(0), F(1, 0), maximize=True)
        assert res.status == UNBOUNDED

    def test_fractional_data_stays_exact(self):
        rows = [F("1/3", "2/7", "5/11"), F(1, 1, 1)]
        rhs = F("2/5", 1)
        res = solve_rational(rows, rhs, F("1/13", "3/5", "7/17"), maximize=True)
        assert res.status == OPTIMAL
        for row, b in zip(rows, rhs):
            assert sum(c * v for c, v in zip(row, solution(res))) == b

    def test_random_optima_are_consistent(self):
        # maximization and minimization bracket any feasible value
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(2, 5)
            rows = [[Fr(rng.randint(0, 3)) for _ in range(n)], [Fr(1)] * n]
            rhs = [Fr(rng.randint(0, 3)), Fr(1)]
            obj = [Fr(rng.randint(-2, 2)) for _ in range(n)]
            feas = solve_rational(rows, rhs)
            if feas.status != OPTIMAL:
                continue
            hi = optimize_rational(feas, obj, maximize=True)
            lo = optimize_rational(feas, obj, maximize=False)
            assert hi.status == lo.status == OPTIMAL
            value = sum(c * v for c, v in zip(obj, solution(feas)))
            assert lo.objective <= value <= hi.objective


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_eq_lp([[1, 1]], [1, 2])

    def test_scales_must_be_positive_integers(self):
        # A zero scale once divided by zero, and negative scales gave
        # answers that failed the engine's own solution check.
        for scales in ([0], [-1], [-2], [F(1, 2)], [True, 0]):
            with pytest.raises(ValueError, match="every scale must be a positive integer"):
                solve_eq_lp([[1, 1]] * len(scales), [1] * len(scales), scales=scales)
        assert solve_eq_lp([[2, 1]], [1], scales=[2]).status == OPTIMAL

    def test_objective_length(self):
        with pytest.raises(ValueError):
            solve_rational([F(1, 1)], F(1), F(1))


def _random_system(rng):
    """A system with m 1-7 and n 1-12, denominators up to 97, sparse entries,
    and sometimes a duplicated row, a zero column or no objective."""

    def entry():
        if rng.random() < 0.35:
            return Fr(0)
        return Fr(rng.randint(-9, 9), rng.randint(1, 97))

    m, n = rng.randint(1, 7), rng.randint(1, 12)
    rows = [[entry() for _ in range(n)] for _ in range(m)]
    rhs = [entry() for _ in range(m)]
    kinds = set()
    if m > 1 and rng.random() < 0.3:
        i, j = rng.sample(range(m), 2)
        factor = Fr(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 5))
        rows[i] = [factor * v for v in rows[j]]
        rhs[i] = factor * rhs[j]
        kinds.add("duplicate")
    if rng.random() < 0.3:
        j = rng.randrange(n)
        for row in rows:
            row[j] = Fr(0)
        kinds.add("zero column")
    if any(b < 0 for b in rhs):
        kinds.add("negative rhs")
    objective = None if rng.random() < 0.3 else [entry() for _ in range(n)]
    maximize = rng.random() < 0.5
    if objective is None:
        kinds.add("feasibility")
    else:
        kinds.add("maximize" if maximize else "minimize")
    return rows, rhs, objective, maximize, kinds


def _record_pivots(monkeypatch):
    """Record each ``(row, col, basis)`` that the engine's ``_pivot`` and
    the reference's ``_reference_pivot`` pivot on, before the pivot."""
    pivots = {"engine": [], "reference": []}
    engine, reference = cohere.simplex._pivot, helpers._reference_pivot

    def engine_pivot(tab, basis, row, col, *rest):
        pivots["engine"].append((row, col, tuple(basis)))
        return engine(tab, basis, row, col, *rest)

    def reference_pivot(tab, cost, basis, row, col, *rest):
        pivots["reference"].append((row, col, tuple(basis)))
        return reference(tab, cost, basis, row, col, *rest)

    monkeypatch.setattr(cohere.simplex, "_pivot", engine_pivot)
    monkeypatch.setattr(helpers, "_reference_pivot", reference_pivot)
    return pivots


class TestReferenceAgreement:
    """The integer tableau must pivot exactly as the Fraction tableau did."""

    def test_random_systems_match_reference(self):
        rng = random.Random(2013)
        statuses = {INFEASIBLE: 0, UNBOUNDED: 0, OPTIMAL: 0}
        kinds_seen = {}
        for _ in range(2000):
            rows, rhs, objective, maximize, kinds = _random_system(rng)
            got = solve_rational(rows, rhs, objective, maximize)
            want = reference_solve_eq_lp(rows, rhs, objective, maximize)
            assert answer(got) == answer(want) and repr(answer(got)) == repr(answer(want))
            statuses[got.status] += 1
            for kind in kinds:
                kinds_seen[kind] = kinds_seen.get(kind, 0) + 1
        assert min(statuses.values()) > 200
        assert len(kinds_seen) == 6 and min(kinds_seen.values()) > 200

    def test_coherence_lps_match_reference(self, monkeypatch):
        # Coherence runs phase 1 through solve_eq_lp, on integer rows with
        # their scales, and every optimisation through LPResult.optimize on a
        # phase-1 result; each is replayed on the reference, on the rational
        # system the rows and scales stand for.  A barred phase 1 is compared
        # with the reference on the system plus a row pinning the barred
        # columns' sum to zero.
        starts, optima = {}, []

        def solving(rows, rhs, **kwargs):
            result = solve_eq_lp(rows, rhs, **kwargs)
            rows, rhs = rational_system(rows, rhs, kwargs["scales"])
            starts[id(result)] = (rows, rhs, kwargs.get("barred", ()), result)
            return result

        optimize = LPResult.optimize

        def optimizing(self, objective, maximize=False):
            result = optimize(self, objective, maximize)
            optima.append((starts[id(self)], objective, maximize, result))
            return result

        monkeypatch.setattr(cohere.simplex, "solve_eq_lp", solving)
        monkeypatch.setattr(LPResult, "optimize", optimizing)
        rng = random.Random(909)
        for _ in range(240):
            a = random_assessment(rng, max_size=4)
            check_coherence(a)
            try:
                extension_interval(a, random_conditional(rng, a.context))
            except IncoherentAssessmentError:
                pass
        assert len(optima) > 500

        def pinned(rows, rhs, barred):
            row = [Fr(1) if j in barred else Fr(0) for j in range(len(rows[0]))]
            return tuple(rows) + (row,), tuple(rhs) + (Fr(0),)

        for rows, rhs, barred, result in starts.values():
            if not barred:
                want = reference_solve_eq_lp(rows, rhs)
                assert answer(want) == answer(result) and repr(answer(want)) == repr(answer(result))
                continue
            assert reference_solve_eq_lp(*pinned(rows, rhs, barred)).status == result.status
            if result.x is not None:
                assert all(result.x[j] == 0 for j in barred)
        barred_optima = 0
        for (rows, rhs, barred, _), objective, maximize, result in optima:
            if not barred:
                want = reference_solve_eq_lp(rows, rhs, objective, maximize)
                assert answer(want) == answer(result) and repr(answer(want)) == repr(answer(result))
                continue
            barred_optima += 1
            want = reference_solve_eq_lp(*pinned(rows, rhs, barred), objective, maximize)
            assert (want.status, want.objective) == (result.status, result.objective)
            assert all(result.x[j] == 0 for j in barred)
        assert barred_optima > 10

    def test_beale_cycling_example(self, monkeypatch):
        # Beale (1955): minimize -3/4 x4 + 150 x5 - 1/50 x6 + 6 x7 with slacks
        # x1, x2, x3.  Its degenerate rows give ratio ties, so a tie-break or
        # a cross-multiplied ratio that differs from the Fraction tableau's
        # shows up as a different pivot sequence.
        rows = [
            F("1/4", -60, "-1/25", 9, 1, 0, 0),
            F("1/2", -90, "-1/50", 3, 0, 1, 0),
            F(0, 0, 1, 0, 0, 0, 1),
        ]
        rhs = F(0, 0, 1)
        objective = F("-3/4", 150, "-1/50", 6, 0, 0, 0)
        pivots = _record_pivots(monkeypatch)
        res = solve_rational(rows, rhs, objective)
        assert answer(res) == answer(reference_solve_eq_lp(rows, rhs, objective))
        assert pivots["engine"] == pivots["reference"]
        assert len(pivots["engine"]) == 6
        assert res.status == OPTIMAL
        assert res.objective == Fr(-1, 20)
        assert solution(res) == tuple(F("1/25", 0, 1, 0, "3/100", 0, 0))


def _hadamard_bound(rows, rhs, scales):
    """``prod_i ||[M_i | s_i | b_i]||_2``, rounded up, from its definition."""
    square = 1
    for row, b, s in zip(rows, rhs, scales):
        square *= sum(v * v for v in row) + s * s + b * b
    root = isqrt(square)
    return root if root * root == square else root + 1


def _dominant_system(rng, big):
    """Integer rows with scales whose tableau entries come near the Hadamard
    bound: row i has a diagonal entry of size about ``big`` and small
    entries elsewhere, small scales, and a right-hand side of either sign."""
    m = rng.randint(1, 4)
    n = m + rng.randint(0, 4)
    rows, rhs, scales = [], [], []
    for i in range(m):
        row = [rng.randint(-3, 3) for _ in range(n)]
        row[i] = rng.choice((-1, 1)) * rng.randint(big // 2, big)
        rows.append(row)
        rhs.append(rng.randint(-big, big))
        scales.append(rng.randint(1, 5))
    return rows, rhs, scales


def _scaled_to(rows, rhs, scales, bits):
    """The same rational system with row 0, its right-hand side and its
    scale times some ``t``, chosen so that phase 1's bound ``(m + 1) H`` has
    exactly ``bits`` bits."""
    m = len(rows)
    t = (3 << bits - 2) // ((m + 1) * _hadamard_bound(rows, rhs, scales))
    assert t > 1
    while True:
        system = (
            [[t * v for v in rows[0]], *rows[1:]],
            [t * rhs[0], *rhs[1:]],
            [t * scales[0], *scales[1:]],
        )
        got = ((m + 1) * _hadamard_bound(*system)).bit_length()
        if got == bits:
            return system
        t += 1 if got < bits else -1


class TestPackedFields:
    """Each row is one integer of fixed-width fields, as wide as the
    Hadamard bound needs; these systems put that bound at its edges, and
    the engine must still answer, and pivot, exactly as the reference."""

    def test_edges_of_the_bound_match_reference(self, monkeypatch):
        fields_made, pivots, peaks = [], {"engine": [], "reference": []}, []
        packing, engine, reference = cohere.simplex._Fields, cohere.simplex._pivot, helpers._reference_pivot

        class Recording(packing):
            __slots__ = ()

            def __init__(self, bits, width):
                super().__init__(bits, width)
                fields_made.append(self)

        def engine_pivot(tab, basis, row, col, *rest):
            pivots["engine"].append((row, col, tuple(basis)))
            d = engine(tab, basis, row, col, *rest)
            # How close the widest entry comes to the edge of the fields in
            # use, the last laid out.
            fields = fields_made[-1]
            peaks.append(max(abs(v) for r in tab for v in fields.unpack(r)).bit_length() - fields.bits)
            return d

        def reference_pivot(tab, cost, basis, row, col, rhs_col):
            pivots["reference"].append((row, col, tuple(basis)))
            return reference(tab, cost, basis, row, col, rhs_col)

        monkeypatch.setattr(cohere.simplex, "_Fields", Recording)
        monkeypatch.setattr(cohere.simplex, "_pivot", engine_pivot)
        monkeypatch.setattr(helpers, "_reference_pivot", reference_pivot)

        # Phase 1's bound of each bit length here needs fields of this width:
        # 31 and 63 bits fill a machine word, 32 and 64 just overflow one.
        widths = {31: 32, 32: 64, 63: 64, 64: 72}
        rng = random.Random(64)
        seen = Counter()
        for case in range(750):
            kind = (*widths, "long")[case % 5]
            if kind == "long":
                # Long rationals: entries and scales of about 130 bits.
                rows, rhs, scales = _dominant_system(rng, 10**40)
                scales = [s * rng.randint(1, 10**38) for s in scales]
            else:
                rows, rhs, scales = _scaled_to(*_dominant_system(rng, 1 << kind // 5), kind)
            m, n = len(rows), len(rows[0])
            barred = sorted(rng.sample(range(n), rng.randint(1, n - 1))) if n > 1 and rng.random() < 0.3 else []
            columns = [j for j in range(n) if j not in barred]
            objective = None
            if rng.random() < 0.7:
                # Not an indicator: large weights and denominators.
                objective = [Fr(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in range(n)]
            maximize = rng.random() < 0.5

            del fields_made[:], pivots["engine"][:], pivots["reference"][:], peaks[:]
            got = solve_rational(rows, rhs, objective, maximize, barred=barred, scales=scales)
            engine_fields = [fields.bits for fields in fields_made]
            # Barring a column is deleting it, so the reference runs on the
            # rational system without the barred columns.
            rational, frhs = rational_system(rows, rhs, scales)
            want = reference_solve_eq_lp(
                [[row[j] for j in columns] for row in rational], frhs,
                None if objective is None else [objective[j] for j in columns], maximize,
            )
            status, x, value, farkas = answer(want)
            if x is not None:
                full = [Fr(0)] * n
                for j, v in zip(columns, x):
                    full[j] = v
                x = tuple(full)
            assert answer(got) == (status, x, value, farkas)
            assert repr(answer(got)) == repr((status, x, value, farkas))
            assert pivots["engine"] == pivots["reference"]

            phase1 = engine_fields[0]
            if kind == "long":
                assert phase1 > 72
            else:
                assert phase1 == widths[kind]
                if phase1 == kind + 1:
                    seen["near the edge"] += bool(peaks) and max(peaks) >= -3
            seen[kind] += 1
            seen["widened"] += any(bits > phase1 for bits in engine_fields)
            seen["barred"] += bool(barred)
            seen["negative rhs"] += any(b < 0 for b in rhs)
            seen["phase 2"] += objective is not None and got.status != INFEASIBLE
            seen[got.status] += 1
        assert min(seen.values()) > 30 and len(seen) == 13, seen


class TestPhase1Reuse:
    """One phase 1 per system: optimisations start from a copy of its tableau."""

    def test_optimize_leaves_its_start_unchanged(self):
        rng = random.Random(12)
        optimized = 0
        for _ in range(300):
            rows, rhs, objective, _, _ = _random_system(rng)
            start = solve_rational(rows, rhs)
            if start.status != OPTIMAL:
                continue
            kept = start.tableau
            before = [kept.fields.unpack(row) for row in kept.tab], kept.basis[:], kept.d
            objectives = (objective or [Fr(1)] * len(rows[0]), [Fr(-1)] * len(rows[0]))
            for obj, maximize in zip(objectives, (True, False)):
                got = [optimize_rational(start, obj, maximize) for _ in range(2)]
                want = solve_rational(rows, rhs, obj, maximize)
                assert got == [want, want] and repr(got) == repr([want, want])
                assert answer(want) == answer(reference_solve_eq_lp(rows, rhs, obj, maximize))
            assert start == solve_rational(rows, rhs)
            assert ([kept.fields.unpack(row) for row in kept.tab], kept.basis, kept.d) == before
            optimized += 1
        assert optimized > 50

    def test_optimize_needs_a_feasible_start(self):
        infeasible = solve_rational([F(1, 1)], F(-1))
        with pytest.raises(ValueError):
            optimize_rational(infeasible, F(1, 0))
        optimum = solve_rational([F(1, 1)], F(1), F(1, 0))
        with pytest.raises(ValueError):
            optimize_rational(optimum, F(1, 0))

    def test_barred_columns_stay_zero(self):
        rows, rhs = [F(1, 1, 1), F(0, 1, 2)], F(1, "1/2")
        assert solve_rational(rows, rhs, F(0, 1, 1), maximize=True).objective == Fr(1, 2)
        res = solve_rational(rows, rhs, barred={1})
        assert res.status == OPTIMAL and res.x[1] == 0
        best = optimize_rational(res, F(0, 1, 1), maximize=True)
        assert best.objective == Fr(1, 4) and solution(best) == (Fr(3, 4), 0, Fr(1, 4))

    @pytest.mark.parametrize(
        "rows, rhs, barred",
        [
            # every column barred: the right-hand side cannot be met
            ([F(1, 1, 1)], F(1), {0, 1, 2}),
            # the second row forces column 1 to 1/2; barring it leaves no solution
            ([F(1, 1, 1), F(0, 1, 0)], F(1, "1/2"), {1}),
            # the first row needs mass on columns 0 or 1, both barred
            ([F(1, 1, 0), F(1, 1, 1)], F("1/3", 1), [0, 1]),
        ],
    )
    def test_barring_a_needed_support_is_infeasible(self, rows, rhs, barred):
        res = solve_rational(rows, rhs, barred=barred)
        assert res.status == INFEASIBLE
        allowed = [j for j in range(len(rows[0])) if j not in barred]
        _check_farkas(*integer_rows(rows, rhs), res.farkas, allowed)
        assert solve_rational(rows, rhs, F(*[1] * len(rows[0])), barred=barred) == res


def _basis_coordinates(rows, basis, col):
    """The coordinates z of column ``col`` in the basis columns, solving
    ``rows[:, basis] z = rows[:, col]`` by Fraction elimination; the basis
    columns are independent and span every column of the rows."""
    aug = [[row[j] for j in basis] + [row[col]] for row in rows]
    for k in range(len(basis)):
        p = next(i for i in range(k, len(aug)) if aug[i][k])
        aug[k], aug[p] = aug[p], aug[k]
        aug[k] = [v / aug[k][k] for v in aug[k]]
        for i, row in enumerate(aug):
            if i != k and row[k]:
                aug[i] = [v - row[k] * w for v, w in zip(row, aug[k])]
    return [aug[k][-1] for k in range(len(basis))]


def _assert_spread(rows, rhs, barred, start, seen):
    """``start.spread()`` solves the system in integers and has the support
    of the average of ``start.x`` and the basic solutions that one
    non-degenerate pivot reaches, recomputed in fractions from the rational
    ``rows``; it is positive wherever ``x`` is and on every column such a
    pivot brings in, and is zero on the barred columns.  ``seen`` counts the
    columns brought in, and those whose ratio test is degenerate."""
    numerators, den = start.spread()
    check_solution(*integer_rows(rows, rhs)[:2], numerators, den)
    point = tuple(Fr(v, den) for v in numerators)
    x, columns = solution(start), start.tableau.columns
    basis = [columns[b] for b in start.tableau.basis]
    neighbours = []
    for c in set(columns) - set(basis):
        z = _basis_coordinates(rows, basis, c)
        ratios = [x[b] / zi for b, zi in zip(basis, z) if zi > 0]
        if not ratios or min(ratios) == 0:
            seen["degenerate"] += bool(ratios)
            continue
        t = min(ratios)
        y = list(x)
        y[c] = t
        for b, zi in zip(basis, z):
            y[b] -= t * zi
        neighbours.append(y)
        assert point[c] > 0
    total = [sum(vs) for vs in zip(x, *neighbours)]
    average = [v / (len(neighbours) + 1) for v in total]
    assert [v > 0 for v in point] == [v > 0 for v in average]
    assert all(point[j] > 0 for j, v in enumerate(x) if v)
    assert all(point[j] == 0 for j in barred)
    seen["reached"] += len(neighbours)
    seen["barred" if barred else "plain"] += 1


class TestSpread:
    """One non-degenerate pivot from the phase-1 basis, read off its tableau."""

    def test_random_systems(self):
        rng = random.Random(19)
        seen = Counter()
        for _ in range(600):
            rows, rhs, _, _, _ = _random_system(rng)
            n = len(rows[0])
            barred = {j for j in range(n) if rng.random() < 0.25} if rng.random() < 0.5 else ()
            start = solve_rational(rows, rhs, barred=barred)
            if start.status == OPTIMAL:
                _assert_spread(rows, rhs, barred, start, seen)
        assert min(seen.values()) > 80 and seen["reached"] > 300, seen

    @pytest.mark.parametrize("constrained", [False, True])
    def test_constituent_systems(self, constrained):
        # Phase 1 of a constituent system, and of a target-refined one with
        # the target's antecedent barred, as the zero-probability descent
        # starts from them.
        rng = random.Random(23)
        seen = Counter()
        for _ in range(150):
            a = random_assessment(rng, max_size=4, allow_constraints=constrained)
            refined = build_sigma(a, random_conditional(rng, a.context))
            for system, barred in ((build_sigma(a), ()), (refined, refined.supports[-1])):
                start = solve_eq_lp(system.matrix, system.rhs, barred=barred, scales=system.scales)
                if start.status == OPTIMAL:
                    rows, rhs = rational_system(system.matrix, system.rhs, system.scales)
                    _assert_spread(rows, rhs, barred, start, seen)
        assert min(seen.values()) > 50, seen

    def test_chain_spread_denominator_stays_near_d(self):
        # c_i: X_i | X_{i+1} = 1/(10**(D+1) + i + 3), i = 0..5.  The mediant's
        # denominator d + sum(p) needs a few bits more than d (226 against
        # 220); an average over d lcm(p) k needs 12533, and 231524 against
        # 4007 at D = 200, which made `check` seven times slower there.
        D = 10
        ctx = Context(tuple(f"X{i}" for i in range(7)))
        family = tuple(parse_conditional(f"X{i} | X{i + 1}", ctx) for i in range(6))
        probs = tuple(Fr(1, 10 ** (D + 1) + i + 3) for i in range(6))
        system = build_sigma(Assessment(family, probs))
        start = system.phase1
        numerators, den = start.spread()
        check_solution(system.matrix, system.rhs, numerators, den)
        assert start.den.bit_length() == 220
        assert den.bit_length() <= start.den.bit_length() + 8

    def test_spread_needs_a_feasible_start(self):
        with pytest.raises(ValueError):
            solve_rational([F(1, 1)], F(-1)).spread()


class TestResultChecks:
    @pytest.mark.parametrize(
        "rows, rhs, objective, perturb",
        [
            # one entry off: rows . x = rhs fails
            ([F(1, 1, 1)], F(1), None, lambda x: (x[0] + 1,) + x[1:]),
            ([F(1, 1, 1)], F(1), F(1, 2, 3), lambda x: (x[0] + 1,) + x[1:]),
            # still feasible, but the objective no longer matches
            ([F(1, 1)], F(1), F(1, 2), lambda x: x[::-1]),
            # rows . x = rhs holds, but an entry is negative
            ([F(1, -1)], F(0), None, lambda x: (-1, -1)),
        ],
    )
    def test_corrupted_solution_raises(self, monkeypatch, rows, rhs, objective, perturb):
        extract = cohere.simplex._extract
        monkeypatch.setattr(
            cohere.simplex, "_extract", lambda *args: perturb(extract(*args))
        )
        with pytest.raises(AssertionError):
            solve_rational(rows, rhs, objective)

    def test_integers_only_with_unit_scales_by_default(self):
        # The LP takes integer rows, right-hand sides and objectives; a
        # Fraction is refused even when its denominator is 1.  Without
        # scales every row has scale 1.
        rng = random.Random(31)
        refused = Counter()
        for _ in range(300):
            m, n = rng.randint(1, 4), rng.randint(1, 6)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
            rhs = [rng.randint(-4, 4) for _ in range(m)]
            objective = [rng.randint(-4, 4) for _ in range(n)]
            start = solve_eq_lp(rows, rhs)
            unit = solve_eq_lp(rows, rhs, scales=[1] * m)
            assert start == unit and repr(start) == repr(unit)
            i, j = rng.randrange(m), rng.randrange(n)
            fraction_row = [r[:] for r in rows]
            fraction_row[i][j] = Fr(fraction_row[i][j])
            fraction_rhs = rhs[:]
            fraction_rhs[i] = Fr(rhs[i])
            for bad_rows, bad_rhs in ((fraction_row, rhs), (rows, fraction_rhs)):
                with pytest.raises(TypeError):
                    solve_eq_lp(bad_rows, bad_rhs)
                refused["system"] += 1
            if start.status != OPTIMAL:
                continue
            fraction_objective = objective[:]
            fraction_objective[j] = Fr(objective[j])
            for maximize in (False, True):
                got = start.optimize(objective, maximize)
                want = unit.optimize(objective, maximize)
                assert got == want and repr(got) == repr(want)
                with pytest.raises(TypeError):
                    start.optimize(fraction_objective, maximize)
                refused["objective"] += 1
        assert min(refused.values()) > 200, refused
