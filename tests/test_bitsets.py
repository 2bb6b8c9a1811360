"""World bitsets: differential tests against the per-world reference loops,
edge cases of the compiled enumeration, and the paths that enumerate no
world at all."""

import functools
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

from cohere import (
    Assessment,
    Atom,
    ConditionalEvent,
    Context,
    FALSE,
    KnowledgeBase,
    NotPConsistentError,
    TruthValue3,
    UnknownAtomError,
    constituents,
    enumerate_worlds,
    equivalent,
    gn_includes,
    implies,
    is_impossible,
    negate,
    p_consistent,
    p_entails,
    p_entails_qc,
    parse_event,
    quasi_conjunction,
    quasi_disjunction,
    world_equivalent,
)
from cohere import cli, coherence, events
from cohere.coherence import build_sigma
from cohere.conditionals import quasi_masks
from cohere.kbfile import load_kb

from helpers import (
    evaluate,
    literals,
    qc_value,
    qd_value,
    random_conditional,
    random_event,
    random_unit,
    reference_constituents,
    reference_masks,
    reference_p_entails_qc,
    reference_untolerated,
    reference_worlds,
    sigma_points,
    truth_value,
)

KB_DIR = Path(__file__).resolve().parent.parent / "kb"


def _random_context(rng: random.Random) -> Context:
    atoms = tuple(f"X{i}" for i in range(rng.randint(1, 12)))
    constraints = tuple(random_event(rng, atoms) for _ in range(rng.randint(0, 3)))
    return Context(atoms, constraints)


def _impossible(e, worlds) -> bool:
    return all(not evaluate(e, w) for w in worlds)


def _world_equivalent(a, b, worlds) -> bool:
    return all(evaluate(a, w) == evaluate(b, w) for w in worlds)


def _sigma_tables(assessment, target=None):
    s = build_sigma(assessment, target)
    return sigma_points(s), s.matrix, s.rhs, s.scales, s.supports, s.target_true


@pytest.mark.parametrize("seed", range(40))
def test_bitsets_match_per_world_reference(seed, monkeypatch):
    rng = random.Random(seed)
    ctx = _random_context(rng)
    reference = reference_worlds(ctx)
    worlds = [w for _, w in reference]
    assert ctx.full_mask == sum(1 << k for k, _ in reference)
    assert list(enumerate_worlds(ctx.atoms, admissible=ctx.full_mask)) == list(
        map(literals, worlds)
    )
    evs = [random_event(rng, ctx.atoms, depth=3) for _ in range(6)]
    for a, b in itertools.product(evs, repeat=2):
        assert is_impossible(a, ctx) == _impossible(a, worlds)
        assert implies(a, b, ctx) == _impossible(a & ~b, worlds)
        assert world_equivalent(a, b, ctx) == _world_equivalent(a, b, worlds)
    if not worlds:
        return

    family = tuple(random_conditional(rng, ctx) for _ in range(rng.randint(1, 4)))
    for ce in family:
        assert ce.masks == reference_masks(ce)
    assert constituents(family) == reference_constituents(family)
    for a, b in itertools.product(family, repeat=2):
        values = [(truth_value(a, w), truth_value(b, w)) for w in worlds]
        assert equivalent(a, b) == all(x == y for x, y in values)
        assert gn_includes(a, b) == all(x <= y for x, y in values)

    assessment = Assessment(family, tuple(random_unit(rng) for _ in family))
    target = random_conditional(rng, ctx)
    engine = [_sigma_tables(assessment), _sigma_tables(assessment, target)]
    monkeypatch.setattr(coherence, "constituents", reference_constituents)
    assert engine == [_sigma_tables(assessment), _sigma_tables(assessment, target)]


def _value_masks(values, numbers) -> tuple[int, int]:
    """The ``(verifying, falsifying)`` bitsets of per-world ``values``, the
    world with assignment number ``numbers[w]`` taking ``values[w]``."""
    verifying = sum(1 << k for k, v in zip(numbers, values) if v == TruthValue3.TRUE)
    falsifying = sum(1 << k for k, v in zip(numbers, values) if v == TruthValue3.FALSE)
    return verifying, falsifying


def _literal_conjunction(rng, atoms, size):
    literals = [Atom(a) if rng.random() < 0.5 else ~Atom(a) for a in rng.sample(atoms, size)]
    return functools.reduce(lambda x, y: x & y, literals)


WIDE_SEEDS = range(10)


@pytest.mark.parametrize("seed", WIDE_SEEDS)
def test_wide_masks_match_per_world_reference(seed):
    # On 10 to 14 atoms every mask spans 2**10 to 2**14 bits, so the bit
    # operations cross many 30-bit digits of a Python integer.  Every
    # second base holds a member and its negation, so it is not
    # p-consistent.
    rng = random.Random(seed)
    atoms = tuple(f"X{i}" for i in range(10 + seed % 5))
    constraints = tuple(
        _literal_conjunction(rng, atoms, rng.randint(2, 3)) for _ in range(rng.randint(1, 3))
    )
    ctx = Context(atoms, constraints)
    reference = reference_worlds(ctx)
    assert ctx.full_mask == sum(1 << k for k, _ in reference)
    numbers = [k for k, _ in reference]
    worlds = [w for _, w in reference]

    members = [random_conditional(rng, ctx) for _ in range(rng.randint(3, 5))]
    if seed % 2:
        members.append(negate(members[0]))
    kb = KnowledgeBase(ctx, [f"c{i}" for i in range(len(members))], members)
    first = members[0]
    targets = [
        random_conditional(rng, ctx),
        quasi_conjunction(members[:2]),
        ConditionalEvent(first.consequent | members[1].consequent, first.antecedent, ctx),
    ]
    columns = {ce: [truth_value(ce, w) for w in worlds] for ce in members + targets}
    for ce in members + targets:
        assert ce.masks == _value_masks(columns[ce], numbers)

    member_columns = [columns[ce] for ce in members]
    qc = [qc_value(values) for values in zip(*member_columns)]
    qd = [qd_value(values) for values in zip(*member_columns)]
    assert quasi_masks(members) == (_value_masks(qc, numbers), _value_masks(qd, numbers))
    for a, b in itertools.product(members + targets, repeat=2):
        assert gn_includes(a, b) == all(x <= y for x, y in zip(columns[a], columns[b]))
    for target in targets:
        included = all(x <= y for x, y in zip(qc, columns[target]))
        assert gn_includes(quasi_masks(members)[0], target) == included

    consistent = not reference_untolerated(member_columns)
    assert p_consistent(kb) == consistent == (seed % 2 == 0)
    verdicts = []
    for target in targets:
        if not consistent:
            with pytest.raises(NotPConsistentError):
                p_entails(kb, target)
            continue
        # The base p-entails the target exactly when it is not p-consistent
        # with the target's negation, which swaps true and false.
        negated = [TruthValue3(2 - v) for v in columns[target]]
        verdicts.append(bool(reference_untolerated(member_columns + [negated])))
        assert p_entails(kb, target) == verdicts[-1]
        if TruthValue3.TRUE in columns[target]:
            assert p_entails_qc(kb, target) == reference_p_entails_qc(members, target)
    # A base p-entails the quasi conjunction of its members, and a weaker
    # consequent of a member.
    assert verdicts[1:] == ([True, True] if consistent else [])


class TestCompiledEnumeration:
    @pytest.mark.parametrize("seed", range(30))
    def test_equals_filtered_product(self, seed):
        rng = random.Random(seed)
        atoms = tuple(f"X{i}" for i in range(rng.randint(1, 6)))
        constraints = tuple(random_event(rng, atoms) for _ in range(rng.randint(0, 3)))
        everything = itertools.product((False, True), repeat=len(atoms))
        worlds = (dict(zip(atoms, values)) for values in everything)
        expected = [literals(w) for w in worlds if not any(evaluate(c, w) for c in constraints)]
        ctx = Context(atoms, constraints)
        assert list(enumerate_worlds(atoms, admissible=ctx.full_mask)) == expected

    @pytest.mark.parametrize("seed", range(20))
    def test_decodes_each_set_bit(self, seed):
        rng = random.Random(seed)
        ctx = _random_context(rng)
        reference = reference_worlds(ctx)
        subsets = [[], reference[:1], reference[-1:], rng.sample(reference, len(reference) // 3)]
        if len(reference) > 1:
            subsets.append(rng.sample(reference, 2))
        for subset in subsets:
            mask = sum(1 << k for k, _ in subset)
            expected = [literals(w) for _, w in sorted(subset, key=lambda kw: kw[0])]
            assert list(enumerate_worlds(ctx.atoms, admissible=mask)) == expected
        # Every assignment, and the top one alone, admissible or not.
        top = (1 << 2 ** len(ctx.atoms)) - 1
        worlds = list(enumerate_worlds(ctx.atoms, admissible=top))
        assert worlds == [
            literals(dict(zip(ctx.atoms, v)))
            for v in itertools.product((False, True), repeat=len(ctx.atoms))
        ]
        assert list(enumerate_worlds(ctx.atoms, admissible=top ^ (top >> 1))) == worlds[-1:]

    def test_a_mask_beyond_the_assignments_raises(self):
        # Bits past the 2**n assignments, or a negative mask, once decoded
        # to repeated or missing worlds: 0b1111 over one atom gave
        # ['~A', 'A', '~A', 'A'], and -1 gave ['~A'].
        for admissible in (0b100, 0b1111, -1):
            with pytest.raises(ValueError, match=r"admissible must lie in \[0, 2\*\*2\)"):
                list(enumerate_worlds(("A",), admissible=admissible))
        assert list(enumerate_worlds(("A",), admissible=0b11)) == ["~A", "A"]

    def test_undeclared_constraint_atom_raises(self):
        with pytest.raises(UnknownAtomError, match=r"constraint C uses undeclared atoms \['C'\]"):
            Context(("A", "B"), (Atom("C"),))
        with pytest.raises(UnknownAtomError, match="uses undeclared atoms"):
            Context(("A",), (Atom("A") & ~Atom("Z"),))

    def test_undeclared_event_atom_names_the_event(self):
        ctx = Context(("A", "B"))
        message = r"event A & Z uses undeclared atoms \['Z'\]"
        with pytest.raises(UnknownAtomError, match=message):
            is_impossible(parse_event("A & Z"), ctx)
        with pytest.raises(UnknownAtomError, match=message):
            world_equivalent(Atom("B"), parse_event("A & Z"), ctx)
        with pytest.raises(UnknownAtomError, match=message):
            ConditionalEvent(Atom("A"), parse_event("A & Z"), ctx)

    def test_undeclared_atoms_are_sorted_from_the_fold(self):
        # The fold's failed lookup names every undeclared atom, sorted.
        message = r"event Z & Y uses undeclared atoms \['Y', 'Z'\]"
        with pytest.raises(UnknownAtomError, match=message):
            Context(("A",)).mask(Atom("Z") & Atom("Y"))
        message = r"constraint Z & Y uses undeclared atoms \['Y', 'Z'\]"
        with pytest.raises(UnknownAtomError, match=message):
            Context(("A",), (Atom("Z") & Atom("Y"),))
        # Declared atoms and the constants T and F are not named.
        message = r"event A & ~Z \| F uses undeclared atoms \['Z'\]"
        with pytest.raises(UnknownAtomError, match=message):
            Context(("A",)).mask(Atom("A") & ~Atom("Z") | FALSE)
        # A conditional checks its consequent first.
        with pytest.raises(UnknownAtomError, match=r"event Z uses undeclared atoms \['Z'\]"):
            ConditionalEvent(Atom("Z"), Atom("Y"), Context(("A",)))

    def test_admissible_bitset_replaces_constraints(self):
        atoms, constraints = ("A", "B"), (Atom("A") & Atom("B"),)
        expected = ["~A ~B", "~A B", "A ~B"]
        assert list(enumerate_worlds(atoms, admissible=0b0111)) == expected
        ctx = Context(atoms, constraints)
        assert list(enumerate_worlds(atoms, admissible=ctx.full_mask)) == expected

    def test_no_admissible_world(self):
        ctx = Context(("A", "B"), (Atom("A"), ~Atom("A")))
        assert list(enumerate_worlds(ctx.atoms, admissible=ctx.full_mask)) == []
        assert ctx.full_mask == 0
        for text in ("A", "~A", "A | B", "T"):
            assert is_impossible(parse_event(text), ctx)
        assert world_equivalent(Atom("A"), Atom("B"), ctx)

    def test_one_admissible_world(self):
        ctx = Context(("A", "B", "C"), (Atom("A"), Atom("B"), ~Atom("C")))
        assert list(enumerate_worlds(ctx.atoms, admissible=ctx.full_mask)) == ["~A ~B C"]
        # The one admissible world is assignment 0b001.
        assert ctx.full_mask == 2
        assert is_impossible(Atom("A"), ctx)
        assert not is_impossible(Atom("C"), ctx)
        assert world_equivalent(Atom("C"), parse_event("T"), ctx)
        ce = ConditionalEvent(~Atom("B"), Atom("C"), ctx)
        assert ce.masks == reference_masks(ce) == (2, 0)
        assert constituents([ce]) == reference_constituents([ce])
        assert len(constituents([ce])) == 1


def test_size_guard_counts_admissible_worlds():
    # Only 1024 of the 4096 assignments are admissible, and they are the
    # highest ones: the guard must count set bits, not the highest bit.
    atoms = tuple(f"X{i}" for i in range(12))
    ctx = Context(atoms, (parse_event("~X0 | ~X1"),))
    family = [
        ConditionalEvent(Atom(f"X{i + 2}"), Atom(f"X{(i + 3) % 10 + 2}"), ctx)
        for i in range(8)
    ]
    cs = constituents(family)
    assert len(cs) == 576
    assert cs == reference_constituents(family)


def test_truth_table_rows_match_per_world_reference(capsys):
    # One row per profile, shown at the first world that has it, with the
    # quasi conjunction's and disjunction's values at that world.
    for path in sorted(KB_DIR.glob("*.kb")):
        kb, _ = load_kb(str(path))
        members = [kb.get(name) for name in kb.names]
        family = members + [quasi_conjunction(members), quasi_disjunction(members)]
        first = {}
        for _, w in reference_worlds(kb.context):
            first.setdefault(tuple(str(truth_value(ce, w)) for ce in family), literals(w))
        assert cli.main(["truth-table", str(path), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        shown = {(*row["values"], row["C"], row["D"]): row["world"] for row in rows}
        assert len(shown) == len(rows) and shown == first, path.name


def _rebind(monkeypatch, original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name != "cohere" and not name.startswith("cohere."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


def test_tolerance_commands_enumerate_no_world(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise RuntimeError("p-consistency and p-entailment must not enumerate worlds")

    _rebind(monkeypatch, events.enumerate_worlds, refuse)
    linda = str(KB_DIR / "linda.kb")
    assert cli.main(["consistent", linda]) == 0
    assert capsys.readouterr().out.strip() == "P-CONSISTENT"
    assert cli.main(["entails", linda, "~N | L", "--method", "both"]) == 0
    assert capsys.readouterr().out.strip() == "P-ENTAILED (lp and qc agree)"


@pytest.mark.parametrize("command", ["check", "truth-table"])
def test_constituent_commands_enumerate_once_per_file(command, monkeypatch, capsys):
    # `check` decodes no world; `truth-table` decodes its row representatives
    # in one call and nothing more.
    original = events.enumerate_worlds
    yielded = []

    def counted(*args, **kwargs):
        worlds = list(original(*args, **kwargs))
        yielded.append(len(worlds))
        return iter(worlds)

    _rebind(monkeypatch, original, counted)
    for path in sorted(KB_DIR.glob("*.kb")):
        yielded.clear()
        assert cli.main([command, str(path)]) == 0, path.name
        rows = len(capsys.readouterr().out.splitlines()) - 1
        if command == "check":
            assert yielded == [], path.name
        else:
            assert len(yielded) == 1 and yielded[0] <= rows, path.name
