"""Acceptance suite: every criterion exact, zero tolerance.

Each criterion prints one pass/fail line (run with ``pytest -s`` to see them
interleaved; without ``-s`` they appear in captured output on failure only).
"""

import itertools
import random
from fractions import Fraction as Fr

from cohere import (
    Assessment,
    Atom,
    Context,
    ConditionalEvent,
    DRASTIC,
    HAMACHER0,
    KnowledgeBase,
    LUKASIEWICZ,
    MINIMUM,
    PRODUCT,
    biconditional_value,
    build_sigma,
    check_coherence,
    compound_bounds,
    extension_interval,
    gn_chain_bounds,
    hamacher,
    hamacher0_conary,
    hamacher0_nary,
    in_l_gamma_qc,
    in_l_gamma_qd,
    in_u_gamma_qc,
    in_u_gamma_qd,
    loop_entails,
    loop_family,
    n_conditional,
    or_rule_bounds,
    p_consistent,
    p_entails,
    p_entails_qc,
    parse_event,
    qc_bounds,
    qd_bounds,
    quasi_conjunction,
    quasi_disjunction,
    tconorm,
    tnorm,
    TruthValue3,
    constituents,
    zero_upper,
)
from cohere.inference import derangements
from cohere.oracle import extension_interval_bruteforce
from cohere.tnorms import INF

from helpers import (
    evaluate,
    gn_chain_context,
    independent_pairs,
    phase1_witness,
    reference_gains,
    reference_tconorm,
    truth_value,
    worlds_in,
)


def _run(number, description, body):
    try:
        body()
    except BaseException:
        print(f"criterion {number:2d} FAIL  {description}", flush=True)
        raise
    print(f"criterion {number:2d} PASS  {description}", flush=True)


def ce(consequent, antecedent, ctx):
    return ConditionalEvent(
        parse_event(consequent, ctx.atoms), parse_event(antecedent, ctx.atoms), ctx
    )


def _rand_unit(rng, max_den=10):
    den = rng.randint(1, max_den)
    return Fr(rng.randint(0, den), den)


def _interval_pair(iv):
    return iv.lo, iv.hi


def test_criterion_01_two_premise_quasi_conjunction_bounds():
    def body():
        rng = random.Random(101)
        ctx, family = independent_pairs(2)
        target = quasi_conjunction(family)
        for _ in range(50):
            x, y = _rand_unit(rng), _rand_unit(rng)
            a = Assessment(family, (x, y))
            iv = extension_interval(a, target)
            expected = (max(x + y - 1, Fr(0)), hamacher0_conary([x, y]))
            assert _interval_pair(iv) == expected
            bf = extension_interval_bruteforce(a, target)
            assert _interval_pair(bf) == expected

    _run(1, "two-premise quasi conjunction: LP = closed forms = oracle (50 cases)", body)


def test_criterion_02_three_premise_quasi_conjunction_bounds():
    def body():
        rng = random.Random(202)
        ctx, family = independent_pairs(3)
        target = quasi_conjunction(family)
        half = (Fr(1, 2),) * 3
        assert _interval_pair(
            extension_interval(Assessment(family, half), target)
        ) == (Fr(0), Fr(3, 4))
        for _ in range(20):
            probs = tuple(_rand_unit(rng, 8) for _ in range(3))
            iv = extension_interval(Assessment(family, probs), target)
            assert _interval_pair(iv) == _interval_pair(qc_bounds(probs))

    _run(2, "three-premise quasi conjunction: LP = Lukasiewicz/Hamacher forms (20 cases)", body)


def test_criterion_03_quasi_disjunction_bounds():
    def body():
        rng = random.Random(303)
        for n in (2, 3):
            ctx, family = independent_pairs(n)
            target = quasi_disjunction(family)
            for _ in range(12 if n == 2 else 8):
                probs = tuple(_rand_unit(rng, 8) for _ in range(n))
                iv = extension_interval(Assessment(family, probs), target)
                assert _interval_pair(iv) == _interval_pair(qd_bounds(probs))
        ctx, family = independent_pairs(2)
        iv = extension_interval(
            Assessment(family, (Fr(1, 2), Fr(1, 2))), quasi_disjunction(family)
        )
        assert _interval_pair(iv) == (Fr(1, 3), Fr(1))

    _run(3, "quasi disjunction at n=2,3: LP = Hamacher/Lukasiewicz forms; (1/2,1/2) -> [1/3,1]", body)


def test_criterion_04_or_rule():
    def body():
        ctx = Context(("E", "H1", "H2"))
        family = (ce("E", "H1", ctx), ce("E", "H2", ctx))
        target = ce("E", "H1 | H2", ctx)
        nine = (Fr(9, 10), Fr(9, 10))
        iv = extension_interval(Assessment(family, nine), target)
        assert _interval_pair(iv) == (Fr(9, 11), Fr(18, 19))
        assert _interval_pair(or_rule_bounds(nine)) == (Fr(9, 11), Fr(18, 19))
        rng = random.Random(404)
        for _ in range(10):
            probs = (_rand_unit(rng), _rand_unit(rng))
            iv = extension_interval(Assessment(family, probs), target)
            assert _interval_pair(iv) == _interval_pair(or_rule_bounds(probs))

    _run(4, "or rule: (9/10,9/10) -> [9/11,18/19]; LP = closed forms", body)


def test_criterion_05_goodman_nguyen_chain():
    def body():
        ctx, family = gn_chain_context(2)
        probs = (Fr(1, 4), Fr(3, 4))
        target = quasi_conjunction(family)
        iv = extension_interval(Assessment(family, probs), target)
        assert _interval_pair(iv) == (Fr(1, 4), Fr(3, 4))
        assert _interval_pair(gn_chain_bounds(probs)) == (Fr(1, 4), Fr(3, 4))
        verdict = check_coherence(Assessment(family, (Fr(1), Fr(0))))
        assert not verdict.coherent
        assert verdict.certificate is not None
        system = build_sigma(
            Assessment(family, (Fr(1), Fr(0))).restrict(verdict.deciding_indices)
        )
        assert all(g > 0 for g in reference_gains(system, verdict.certificate))

    _run(5, "inclusion chain: (1/4,3/4) -> [1/4,3/4]; (1,0) refuted with positive gains", body)


def test_criterion_06_compound_probability():
    def body():
        ctx2 = Context(("A", "B", "H"))
        family2 = (ce("A", "H", ctx2), ce("B", "A & H", ctx2))
        rng = random.Random(606)
        for _ in range(8):
            x, y = _rand_unit(rng), _rand_unit(rng)
            iv = extension_interval(Assessment(family2, (x, y)), ce("A & B", "H", ctx2))
            assert _interval_pair(iv) == (x * y, x * y)
        ctx3 = Context(("A1", "A2", "A3", "H"))
        family3 = (
            ce("A1", "H", ctx3),
            ce("A2", "A1 & H", ctx3),
            ce("A3", "A1 & A2 & H", ctx3),
        )
        target3 = ce("A1 & A2 & A3", "H", ctx3)
        for probs in [(Fr(1, 2),) * 3, (Fr(2, 3), Fr(1, 5), Fr(3, 4))]:
            iv = extension_interval(Assessment(family3, probs), target3)
            assert _interval_pair(iv) == _interval_pair(compound_bounds(probs))

    _run(6, "compound probability: degenerate product intervals at n=2,3", body)


def test_criterion_07_biconditional():
    def body():
        ctx = Context(("A", "B"))
        family = (ce("A", "B", ctx), ce("B", "A", ctx))
        target = ce("A & B", "A | B", ctx)
        cases = [(Fr(1, 2), Fr(1, 2)), (Fr(0), Fr(0)), (Fr(1), Fr(1)), (Fr(3, 7), Fr(1, 5))]
        for x, y in cases:
            iv = extension_interval(Assessment(family, (x, y)), target)
            v = biconditional_value(x, y)
            assert _interval_pair(iv) == (v, v)
        assert biconditional_value(Fr(0), Fr(0)) == 0

    _run(7, "biconditional: degenerate Hamacher-norm interval, zero at (0,0)", body)


def test_criterion_08_linda():
    def body():
        ctx = Context(("L", "S", "G", "N"))
        kb = KnowledgeBase(
            ctx,
            ("c1", "c2", "c3", "c4", "c5"),
            (
                ce("G", "L", ctx),
                ce("S", "L", ctx),
                ce("~N", "L & S", ctx),
                ce("L", "S", ctx),
                ce("~G", "~N", ctx),
            ),
        )
        assert p_consistent(kb)
        conclusions = (
            ce("~N", "L", ctx),
            ce("~L", "T", ctx),
            ce("G & ~N", "L & S", ctx),
            ce("~N", "S", ctx),
            ce("~N", "L | S", ctx),
        )
        for target in conclusions:
            assert p_entails(kb, target), str(target)
            assert p_entails_qc(kb, target), str(target)
        assert not p_entails(kb, ce("G", "N", ctx))
        assert not p_entails_qc(kb, ce("G", "N", ctx))

    _run(8, "party example: p-consistent; five conclusions entailed both ways; G|N is not", body)


def test_criterion_09_loop_rules():
    def body():
        for n in (3, 4):
            kb = loop_family(n)
            ctx = kb.context
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i != j:
                        assert p_entails(kb, ce(f"A{i}", f"A{j}", ctx))
            for derangement in derangements(n):
                if _cycles(derangement) != 1:
                    continue  # cyclic scope; see decisions ledger
                assert loop_entails(n, derangement), derangement
        five = loop_family(5)
        for size in (2, 3, 4):
            for chosen in itertools.combinations(range(1, 6), size):
                target = n_conditional([Atom(f"A{i}") for i in chosen], five.context)
                assert p_entails(five, target), chosen

    _run(9, "loop rules: pairwise entailments (n=3,4); cyclic derangements mutual; five-friends subsets", body)


def _cycles(perm):
    seen, count = set(), 0
    for start in range(1, len(perm) + 1):
        if start in seen:
            continue
        count += 1
        node = start
        while node not in seen:
            seen.add(node)
            node = perm[node - 1]
    return count


def test_criterion_10_gamma_regions():
    def body():
        grid = [Fr(i, 20) for i in range(21)]
        gammas = (Fr(1, 4), Fr(2, 5), Fr(3, 5))
        for gamma in gammas:
            for x in grid:
                for y in grid:
                    p = [x, y]
                    assert in_l_gamma_qc(p, gamma) == (qc_bounds(p).lo >= gamma)
                    assert in_u_gamma_qc(p, gamma) == (qc_bounds(p).hi <= gamma)
                    assert in_l_gamma_qd(p, gamma) == (qd_bounds(p).lo >= gamma)
                    assert in_u_gamma_qd(p, gamma) == (qd_bounds(p).hi <= gamma)
            assert not in_u_gamma_qc([gamma, gamma], gamma)
            assert not in_l_gamma_qd([gamma, gamma], gamma)

    _run(10, "premise regions on a 21x21 grid match bound comparisons for three gammas", body)


def test_criterion_11_operator_suite():
    def body():
        families = [MINIMUM, PRODUCT, LUKASIEWICZ, DRASTIC, HAMACHER0,
                    hamacher(Fr(1, 2)), hamacher(2), hamacher(INF)]
        grid = [Fr(0), Fr(1, 5), Fr(1, 2), Fr(4, 5), Fr(1)]
        for f in families:
            for x in grid:
                assert tnorm(f, [x, Fr(1)]) == x
                assert tconorm(f, [x, Fr(0)]) == x
                for y in grid:
                    assert tnorm(f, [x, y]) == tnorm(f, [y, x])
                    assert tconorm(f, [x, y]) == tconorm(f, [y, x])
                    assert reference_tconorm(f, [x, y]) == tconorm(f, [x, y])
                    for z in grid:
                        assert tnorm(f, [x, tnorm(f, [y, z])]) == tnorm(
                            f, [tnorm(f, [x, y]), z]
                        )
                        if y <= z:
                            assert tnorm(f, [x, y]) <= tnorm(f, [x, z])
                            assert tconorm(f, [x, y]) <= tconorm(f, [x, z])
        rng = random.Random(1111)
        for k in range(2, 7):
            for _ in range(10):
                args = [_rand_unit(rng, 6) for _ in range(k)]
                assert hamacher0_nary(args) == tnorm(HAMACHER0, args)
                assert hamacher0_conary(args) == tconorm(HAMACHER0, args)
        _check_reference_truth_table()

    _run(11, "operator axioms, closed forms to k=6, duality, and the two-premise table", body)


REFERENCE_TABLE = [
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


def _check_reference_truth_table():
    ctx = Context(("A", "H", "B", "K"))
    family = [ce("A", "H", ctx), ce("B", "K", ctx)]
    qc = quasi_conjunction(family)
    qd = quasi_disjunction(family)
    cs = constituents(family)
    classes = list(zip(cs.inside, cs.profiles)) + [(cs.c0, (TruthValue3.VOID,) * 2)]
    assert len(classes) == 9
    for formula, v1, v2, vc, vd in REFERENCE_TABLE:
        region = parse_event(formula, ctx.atoms)
        matches = [
            (mask, profile)
            for mask, profile in classes
            if all(evaluate(region, w) for w in worlds_in(ctx, mask))
        ]
        assert len(matches) == 1, formula
        mask, profile = matches[0]
        representative = worlds_in(ctx, mask & -mask)[0]
        assert (str(profile[0]), str(profile[1])) == (v1, v2)
        assert str(truth_value(qc, representative)) == vc
        assert str(truth_value(qd, representative)) == vd


def test_criterion_12_engine_soundness_on_random_assessments():
    def body():
        from helpers import random_assessment

        rng = random.Random(1212)
        coherent = incoherent = 0
        for index in range(100):
            a = random_assessment(rng, allow_constraints=(index % 2 == 0))
            verdict = check_coherence(a)
            system = build_sigma(a.restrict(verdict.deciding_indices))
            if verdict.coherent:
                coherent += 1
                for row, b in zip(system.matrix, system.rhs):
                    assert sum(c * v for c, v in zip(row, verdict.witness)) == b
                assert all(v >= 0 for v in verdict.witness)
            else:
                incoherent += 1
                gains = reference_gains(system, verdict.certificate)
                assert all(g > 0 for g in gains)
            top = build_sigma(a)
            top_witness = phase1_witness(top)
            if top_witness is not None:
                i0 = set(zero_upper(top, top.phase1)[0])
                n = len(a.family)
                for size in range(1, n + 1):
                    for subset in itertools.combinations(range(n), size):
                        if set(subset) - i0:
                            sub = build_sigma(a.restrict(subset))
                            assert phase1_witness(sub) is not None
        assert coherent > 10 and incoherent > 10

    _run(12, "100 random assessments: witnesses/certificates verified; subsystems solvable", body)
