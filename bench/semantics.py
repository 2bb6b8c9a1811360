"""Reference semantics that share no code with the engine.

Events are small syntax trees of nested tuples::

    ("v", name) | ("~", e) | ("&", a, b) | ("|", a, b)

The generators build their inputs as such trees, render them as text for the
engine, and evaluate them here as bitmasks over the world index space.  World
``i`` gives atom ``k`` (of ``n``) the value of bit ``n - 1 - k`` of ``i``,
which is the engine's lexicographic false-before-true order, so constituent
classes come out in the engine's order too.  Every answer check in the
benchmark runs on this module and exact rationals; none of it uses the LP
path.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

FALSE, VOID, TRUE = 0, 1, 2


def atom(name):
    return ("v", name)


def neg(e):
    return ("~", e)


def conj(a, b):
    return ("&", a, b)


def disj(a, b):
    return ("|", a, b)


def render(e) -> str:
    """Text in the engine's event grammar, binary nodes fully parenthesized so
    that a rendered consequent never exposes a top-level bar."""
    op = e[0]
    if op == "v":
        return e[1]
    if op == "~":
        return "~" + render(e[1])
    return f"({render(e[1])} {op} {render(e[2])})"


class Space:
    """All truth assignments over an ordered atom tuple, as bit positions."""

    def __init__(self, atoms):
        self.atoms = tuple(atoms)
        n = len(self.atoms)
        self.size = 1 << n
        self.full = (1 << self.size) - 1
        self.masks = {}
        for k, name in enumerate(self.atoms):
            s = 1 << (n - 1 - k)
            block = ((1 << s) - 1) << s
            repeat = self.size // (2 * s)
            self.masks[name] = block * (((1 << (2 * s * repeat)) - 1) // ((1 << (2 * s)) - 1))

    def eval(self, e) -> int:
        op = e[0]
        if op == "v":
            return self.masks[e[1]]
        if op == "~":
            return self.full ^ self.eval(e[1])
        left, right = self.eval(e[1]), self.eval(e[2])
        return left & right if op == "&" else left | right

    def admissible(self, constraints) -> int:
        out = self.full
        for c in constraints:
            out &= ~self.eval(c)
        return out


def bits(mask: int) -> list[int]:
    """Set bit positions in increasing order."""
    text = bin(mask)[:1:-1]
    return [i for i, ch in enumerate(text) if ch == "1"]


def p_consistent(space: Space, adm: int, family) -> bool:
    """Adams' tolerance test on the all-ones assessment: repeatedly remove the
    conditionals verifiable in some world that falsifies none of the rest."""
    rest = [(space.eval(e), space.eval(h)) for e, h in family]
    while rest:
        safe = adm
        for e, h in rest:
            safe &= ~h | e
        kept = [(e, h) for e, h in rest if not (e & h & safe)]
        if len(kept) == len(rest):
            return False
        rest = kept
    return True


class Constituents:
    """Truth-value classes of a family of conditionals over the admissible
    worlds, ordered by first world, with the all-void class left out."""

    def __init__(self, space: Space, adm: int, family):
        tables = []
        for e, h in family:
            em, hm = space.eval(e), space.eval(h)
            tables.append((bin(em & hm)[:1:-1], bin(hm)[:1:-1]))
        order: dict[tuple[int, ...], int] = {}
        for w in bits(adm):
            profile = tuple(
                (TRUE if w < len(t) and t[w] == "1" else FALSE)
                if w < len(hs) and hs[w] == "1"
                else VOID
                for t, hs in tables
            )
            if profile not in order:
                order[profile] = w
        void = (VOID,) * len(family)
        self.profiles = [p for p in order if p != void]

    def __len__(self) -> int:
        return len(self.profiles)

    def solves(self, probs, witness) -> bool:
        """``witness`` is a nonnegative unit mass reproducing every
        probability through the 1 / 0 / p entries of the constituent rows."""
        if len(witness) != len(self.profiles) or any(x < 0 for x in witness):
            return False
        if sum(witness) != 1:
            return False
        for j, p in enumerate(probs):
            total = ZERO
            for x, profile in zip(witness, self.profiles):
                v = profile[j]
                total += x if v == TRUE else (x * p if v == VOID else ZERO)
            if total != p:
                return False
        return True

    def positive_gain(self, probs, stakes) -> bool:
        """Betting gain sum s_j H_j (E_j - p_j) is positive on every class
        where some conditioning event occurs."""
        if len(stakes) != len(probs):
            return False
        for profile in self.profiles:
            gain = ZERO
            for s, p, v in zip(stakes, probs, profile):
                if v != VOID:
                    gain += s * ((ONE if v == TRUE else ZERO) - p)
            if gain <= 0:
                return False
        return True


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def in_hull_2d(x, points) -> bool:
    """Exact membership of ``x`` in the convex hull of a few plane points,
    by Caratheodory: some point, segment or triangle contains it."""
    pts = list(dict.fromkeys(points))
    if x in pts:
        return True
    for a, b in itertools.combinations(pts, 2):
        d = (b[0] - a[0], b[1] - a[1])
        t = (x[0] - a[0]) * d[0] + (x[1] - a[1]) * d[1]
        if _cross(a, b, x) == 0 and 0 <= t <= d[0] ** 2 + d[1] ** 2:
            return True
    for a, b, c in itertools.combinations(pts, 3):
        det = _cross(a, b, c)
        if det == 0:
            continue
        l1 = _cross(a, x, c) / det
        l2 = _cross(a, b, x) / det
        if l1 >= 0 and l2 >= 0 and l1 + l2 <= 1:
            return True
    return False


def pair_profiles(space: Space, adm: int, ci, cj) -> set[tuple[int, int]]:
    """Truth-value pairs that two conditionals take together in some
    admissible world, the all-void pair left out."""
    def classes(c):
        e, h = space.eval(c[0]), space.eval(c[1])
        return {TRUE: e & h & adm, FALSE: ~e & h & adm, VOID: ~h & adm}

    a, b = classes(ci), classes(cj)
    return {(x, y) for x in a for y in b if (x, y) != (VOID, VOID) and a[x] & b[y]}


CORNERS = {(TRUE, TRUE), (TRUE, FALSE), (FALSE, TRUE), (FALSE, FALSE)}


def pair_constrains(profiles) -> bool:
    """False when every probability pair is a solution: the point lies in
    the unit square, or on the segment joining the two points that one
    conditional's void class puts at its own probability."""
    return not (
        CORNERS <= profiles
        or {(TRUE, VOID), (FALSE, VOID)} <= profiles
        or {(VOID, TRUE), (VOID, FALSE)} <= profiles
    )


def pair_refutes(profiles, pi, pj) -> bool:
    """True when two conditionals with these joint profiles and
    probabilities (pi, pj) have no solution: the point lies outside the hull
    of the constituent points.  Coherence passes to subfamilies, so every
    assessment containing the pair is then incoherent."""
    def q(v, p):
        return ONE if v == TRUE else (ZERO if v == FALSE else p)

    return pair_constrains(profiles) and not in_hull_2d(
        (pi, pj), [(q(a, pi), q(b, pj)) for a, b in profiles]
    )


def mass_probability(space: Space, weights: dict[int, int], e, h) -> Fraction | None:
    """P(e | h) under integer weights on world indices, or None when h has no
    mass."""
    hm = space.eval(h)
    eh = space.eval(e) & hm
    den = sum(wt for w, wt in weights.items() if hm >> w & 1)
    if den == 0:
        return None
    return Fraction(sum(wt for w, wt in weights.items() if eh >> w & 1), den)
