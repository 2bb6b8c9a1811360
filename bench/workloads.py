"""The benchmark's three seeded workloads.

Each workload function turns a seed into a list of :class:`Query` objects
during set-up.  A query holds only plain data (syntax trees, strings, paths);
``run`` builds the engine objects it needs and makes one call into the
public API or into ``cli.main``, so every execution pays world enumeration
afresh and two passes over the same list do identical work.  ``verify``
checks an answer with the exact arithmetic of ``semantics.py``; where it
needs the engine to produce a certificate (an extension endpoint's
witness), it checks the certificate, not the engine's verdict.  It runs
outside every timed region.

Engine functions are looked up as module attributes at call time, so the
tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from cohere import cli, coherence, conditionals, events, inference, oracle

import semantics as sem
from semantics import atom, conj, disj, neg


@dataclass(frozen=True)
class Query:
    kind: str  # check | extend | entail | consistent | truth-table
    label: str
    run: Callable[[], object]
    verify: Callable[[object], bool]


# ---------------------------------------------------------------------------
# Building engine objects from syntax trees
# ---------------------------------------------------------------------------


def to_event(e):
    op = e[0]
    if op == "v":
        return events.Atom(e[1])
    if op == "~":
        return events.Not(to_event(e[1]))
    cls = events.And if op == "&" else events.Or
    return cls(to_event(e[1]), to_event(e[2]))


def to_conditional(pair, ctx):
    return conditionals.ConditionalEvent(to_event(pair[0]), to_event(pair[1]), ctx)


def to_assessment(atoms, family, probs):
    ctx = events.Context(tuple(atoms))
    return coherence.Assessment(
        tuple(to_conditional(pair, ctx) for pair in family), tuple(probs)
    )


# ---------------------------------------------------------------------------
# entail-loops: acceptance criteria 8 and 9, one p_entails call per decision
# ---------------------------------------------------------------------------

LINDA_ATOMS = ("L", "S", "G", "N")
LINDA_KB = (("G", "L"), ("S", "L"), ("~N", "L & S"), ("L", "S"), ("~G", "~N"))
LINDA_TARGETS = (
    (("~N", "L"), True),
    (("~L", "T"), True),
    (("G & ~N", "L & S"), True),
    (("~N", "S"), True),
    (("~N", "L | S"), True),
    (("G", "N"), False),
)


def _cycles(perm) -> int:
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


def entail_decisions():
    """(kb spec, target spec, known answer) for the 109 decisions."""
    out = [(("linda",), ("text",) + t, answer) for t, answer in LINDA_TARGETS]
    for n in (3, 4):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    out.append((("loop", n), ("pair", i, j), True))
        for d in inference.derangements(n):
            if _cycles(d) != 1:
                continue
            for j, i in enumerate(d, start=1):
                out.append((("loop", n), ("pair", i, j), True))
            for j in range(1, n + 1):
                out.append((("deranged", n, d), ("pair", j % n + 1, j), True))
    for size in (2, 3, 4):
        for chosen in itertools.combinations(range(1, 6), size):
            out.append((("loop", 5), ("friends",) + chosen, True))
    return out


def _entail(kb_spec, target_spec) -> bool:
    if kb_spec[0] == "linda":
        ctx = events.Context(LINDA_ATOMS)

        def ce(e, h):
            return conditionals.ConditionalEvent(
                events.parse_event(e, ctx.atoms), events.parse_event(h, ctx.atoms), ctx
            )

        kb = inference.KnowledgeBase(
            ctx, tuple(f"c{k}" for k in range(1, 6)), tuple(ce(e, h) for e, h in LINDA_KB)
        )
        return inference.p_entails(kb, ce(target_spec[1], target_spec[2]))
    n = kb_spec[1]
    ctx = events.Context(tuple(f"A{i}" for i in range(1, n + 1)))
    if kb_spec[0] == "loop":
        kb = inference.loop_family(n, ctx)
    else:
        kb = inference.deranged_family(n, kb_spec[2], ctx)
    if target_spec[0] == "pair":
        _, i, j = target_spec
        target = conditionals.ConditionalEvent(events.Atom(f"A{i}"), events.Atom(f"A{j}"), ctx)
    else:
        target = conditionals.n_conditional(
            [events.Atom(f"A{i}") for i in target_spec[1:]], ctx
        )
    return inference.p_entails(kb, target)


def entail_loops(seed: int, workdir: str, scale: float = 1.0) -> list[Query]:
    decisions = entail_decisions()
    random.Random(seed).shuffle(decisions)
    if scale < 1.0:
        decisions = decisions[: max(1, int(len(decisions) * scale))]
    return [
        Query(
            "entail",
            f"{kb}:{target}",
            lambda kb=kb, target=target: _entail(kb, target),
            lambda answer, expected=expected: answer is expected,
        )
        for kb, target, expected in decisions
    ]


# ---------------------------------------------------------------------------
# Random event and assessment generators
# ---------------------------------------------------------------------------


def _literal(rng, atoms):
    a = atom(rng.choice(atoms))
    return neg(a) if rng.random() < 0.5 else a


def random_event(rng, atoms):
    """A literal, or a conjunction or disjunction of two literals over
    distinct atoms."""
    roll = rng.random()
    if roll < 0.4:
        return _literal(rng, atoms)
    x, y = rng.sample(atoms, 2)
    left = _literal(rng, [x])
    right = _literal(rng, [y])
    return conj(left, right) if roll < 0.75 else disj(left, right)


def random_conditional(rng, space, adm, atoms):
    """A conditional whose antecedent and verifying event are possible."""
    while True:
        e, h = random_event(rng, atoms), random_event(rng, atoms)
        if space.eval(conj(e, h)) & adm:
            return e, h


def mass_assessment(rng, space, adm, family, worlds, max_weight):
    """Integer weights on ``worlds`` admissible worlds that give every
    antecedent positive mass, and the probabilities they induce."""
    pool = sem.bits(adm)
    while True:
        chosen = rng.sample(pool, worlds)
        weights = {w: rng.randint(1, max_weight) for w in chosen}
        probs = [sem.mass_probability(space, weights, e, h) for e, h in family]
        if all(p is not None for p in probs):
            return weights, probs


# ---------------------------------------------------------------------------
# random-assess: coherence checks and extension intervals on dense systems
# ---------------------------------------------------------------------------

RANDOM_ATOMS = tuple("ABCDEGHI")  # eight atoms; F is reserved by the grammar
PERTURB_VALUES = tuple(Fraction(k, 12) for k in range(13))


def _check(atoms, family, probs):
    return coherence.check_coherence(to_assessment(atoms, family, probs))


def _extend(atoms, family, probs, target):
    a = to_assessment(atoms, family, probs)
    return coherence.extension_interval(a, to_conditional(target, a.context))


def verify_verdict(space, adm, family, probs, verdict, known) -> bool:
    """The verdict is ``known``; every level's witness solves its
    constituent system; a refutation's stakes have positive gain on every
    constituent of the refuted family."""
    if verdict.coherent != known:
        return False
    for rec in verdict.trace:
        sub = [family[j] for j in rec.indices]
        cs = sem.Constituents(space, adm, sub)
        sub_probs = [probs[j] for j in rec.indices]
        if rec.witness is not None:
            if not cs.solves(sub_probs, rec.witness):
                return False
        elif verdict.coherent or rec is not verdict.trace[-1]:
            return False
        elif not cs.positive_gain(sub_probs, verdict.certificate):
            return False
    return True


def _verify_interval(atoms, family, probs, target, value, iv) -> bool:
    """Brute-force vertex enumeration where the system is small enough;
    otherwise both endpoints must be coherent extensions with verified
    witnesses.  The generating mass's own value must lie inside."""
    if value is not None and not iv.lo <= value <= iv.hi:
        return False
    space = sem.Space(atoms)
    adm = space.full
    extended = list(family) + [target]
    if len(sem.Constituents(space, adm, extended)) <= oracle.VERTEX_ENUMERATION_LIMIT:
        a = to_assessment(atoms, family, probs)
        bf = oracle.extension_interval_bruteforce(a, to_conditional(target, a.context))
        return (bf.lo, bf.hi) == (iv.lo, iv.hi)
    for z in {iv.lo, iv.hi}:
        ext_probs = list(probs) + [z]
        verdict = coherence.check_coherence(to_assessment(atoms, extended, ext_probs))
        if not verify_verdict(space, adm, extended, ext_probs, verdict, True):
            return False
    return True


def refuting_perturbation(rng, space, adm, family, probs):
    """(index, value) such that some pair of conditionals refutes the
    probabilities once ``probs[index]`` is replaced by ``value``, or None."""
    n = len(family)
    for j in rng.sample(range(n), n):
        values = [v for v in rng.sample(PERTURB_VALUES, len(PERTURB_VALUES)) if v != probs[j]]
        for i in range(n):
            if i == j:
                continue
            profiles = sem.pair_profiles(space, adm, family[i], family[j])
            if not sem.pair_constrains(profiles):
                continue
            for v in values:
                if sem.pair_refutes(profiles, probs[i], v):
                    return j, v
    return None


def random_design(count: int):
    """The fixed family design: (family, probs, perturbed, target, target
    value under the generating weights).

    Families cycle through n = 4, 5, 6 and alternate between coherent by
    construction and perturbed at one index past a bound that a pair of
    their conditionals sets, so incoherent by construction.  Every family
    is checked; every second coherent family is also extended."""
    rng = random.Random(DESIGN_SEED)
    atoms = RANDOM_ATOMS
    space = sem.Space(atoms)
    adm = space.full
    design = []
    for k in range(count):
        n = 4 + (k // 2) % 3
        perturbed = k % 2 == 1
        while True:
            family = [random_conditional(rng, space, adm, atoms) for _ in range(n)]
            weights, probs = mass_assessment(rng, space, adm, family, worlds=4, max_weight=3)
            change = perturbed and refuting_perturbation(rng, space, adm, family, probs)
            if not perturbed or change:
                break
        if perturbed:
            j, v = change
            probs[j] = v
        target = random_conditional(rng, space, adm, atoms)
        value = sem.mass_probability(space, weights, *target)
        design.append((tuple(family), tuple(probs), perturbed, target, value))
    return design


def random_assess(seed: int, workdir: str, scale: float = 1.0) -> list[Query]:
    """The fixed design, in an order drawn from the seed.

    The design is drawn once: LP costs here follow the column order that
    world and constituent order give Bland's rule, so both redrawing the
    families and relabelling their atoms per seed move individual queries
    by up to half, and spread ``query_p90_ms`` between seeds by a fifth."""
    atoms = RANDOM_ATOMS
    space = sem.Space(atoms)
    adm = space.full
    queries = []
    for k, (family, probs, perturbed, target, value) in enumerate(
        random_design(max(2, int(RANDOM_FAMILIES * scale)))
    ):
        label = f"family {k} n={len(family)}"
        queries.append(
            Query(
                "check",
                label + (" perturbed" if perturbed else ""),
                lambda f=family, p=probs: _check(atoms, f, p),
                lambda v, f=family, p=probs, known=not perturbed: verify_verdict(
                    space, adm, f, p, v, known
                ),
            )
        )
        if perturbed or k % 4:
            continue
        queries.append(
            Query(
                "extend",
                label + " target",
                lambda f=family, p=probs, t=target: _extend(atoms, f, p, t),
                lambda iv, f=family, p=probs, t=target, v=value: _verify_interval(
                    atoms, f, p, t, v, iv
                ),
            )
        )
    random.Random(seed).shuffle(queries)
    return queries


RANDOM_FAMILIES = 80
DESIGN_SEED = 20130321


# ---------------------------------------------------------------------------
# wide-kb: KB files over 14 atoms through cli.main
# ---------------------------------------------------------------------------

WIDE_ATOMS = tuple(f"X{i}" for i in range(14))
WIDE_FILES = 26


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _json_answer(answer):
    code, text = answer
    if code != 0:
        return None
    try:
        return json.loads(text)
    except ValueError:
        return None


def _wide_kb_text(constraints, family, probs) -> str:
    lines = [f"atoms: {' '.join(WIDE_ATOMS)}", "constraints:"]
    lines += [f"  {sem.render(c)}" for c in constraints]
    lines.append("conditionals:")
    lines += [
        f"  c{j}: {sem.render(e)} | {sem.render(h)} = {p}"
        for j, ((e, h), p) in enumerate(zip(family, probs), start=1)
    ]
    return "\n".join(lines) + "\n"


def wide_kb(seed: int, workdir: str, scale: float = 1.0) -> list[Query]:
    """Each file: three disjoint three-literal constraints (10976 admissible
    worlds), three conditionals over twelve atoms with probabilities from a
    mass on four worlds, and one entailment target whose answer is known by
    construction: right weakening of a member (entailed) or a member's
    antecedent under a free atom (not entailed)."""
    rng = random.Random(seed)
    space = sem.Space(WIDE_ATOMS)
    queries = []
    for k in range(max(1, int(WIDE_FILES * scale))):
        shuffled = list(WIDE_ATOMS)
        rng.shuffle(shuffled)
        free, bound = shuffled[:2], shuffled[2:]
        constraints = [
            conj(conj(_literal(rng, [a]), _literal(rng, [b])), _literal(rng, [c]))
            for a, b, c in (bound[0:3], bound[3:6], bound[6:9])
        ]
        adm = space.admissible(constraints)
        while True:
            family = [random_conditional(rng, space, adm, bound) for _ in range(3)]
            if sem.p_consistent(space, adm, family):
                break
        _, probs = mass_assessment(rng, space, adm, family, worlds=4, max_weight=3)
        path = os.path.join(workdir, f"wide{k:03d}.kb")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_wide_kb_text(constraints, family, probs))

        j = rng.randrange(3)
        e, h = family[j]
        entailed = k % 2 == 0
        if entailed:
            target = f"{sem.render(disj(e, _literal(rng, bound)))} | {sem.render(h)}"
        else:
            target = f"{rng.choice(free)} | {sem.render(h)}"
        cs = sem.Constituents(space, adm, family)
        c0 = 1 if space.eval(conj(conj(neg(family[0][1]), neg(family[1][1])), neg(family[2][1]))) & adm else 0

        def check(answer, cs=cs, probs=tuple(probs)):
            data = _json_answer(answer)
            return (
                data is not None
                and data["coherent"] is True
                and cs.solves(probs, [Fraction(x) for x in data["witness"]])
            )

        def entails(answer, target=target, entailed=entailed):
            data = _json_answer(answer)
            return data == {"target": target, "p_entailed": entailed, "method": "both"}

        def table(answer, rows=len(cs) + c0):
            data = _json_answer(answer)
            return (
                data is not None
                and data["conditionals"] == ["c1", "c2", "c3"]
                and len(data["rows"]) == rows
            )

        queries += [
            Query("check", f"file {k} check",
                  lambda p=path: _cli(["check", p, "--json"]), check),
            Query("consistent", f"file {k} consistent",
                  lambda p=path: _cli(["consistent", p, "--json"]),
                  lambda a: _json_answer(a) == {"p_consistent": True}),
            Query("entail", f"file {k} entails",
                  lambda p=path, t=target: _cli(["entails", p, t, "--method", "both", "--json"]),
                  entails),
            Query("truth-table", f"file {k} truth-table",
                  lambda p=path: _cli(["truth-table", p, "--json"]), table),
        ]
    return queries


WORKLOADS = {
    "entail-loops": entail_loops,
    "random-assess": random_assess,
    "wide-kb": wide_kb,
}
