"""Boolean event algebra over named atomic propositions.

Events are plain formula trees; nothing is simplified or compiled.  All
semantic questions (impossibility, implication, equivalence) are answered
by exhaustive enumeration of the admissible worlds of a :class:`Context`,
which is exact at desk scale.

Grammar accepted by :func:`parse_event`::

    identifiers  [A-Za-z_][A-Za-z0-9_]*      (``T`` and ``F`` are reserved)
    negation     ~        binds tightest
    conjunction  &
    disjunction  |        binds loosest
    parentheses  ( )
    constants    T  F
"""

from __future__ import annotations

import itertools
import os
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import EventSyntaxError, SizeLimitError, UnknownAtomError

DEFAULT_MAX_CONSTITUENTS = 2187
MAX_ATOMS = 20

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_RESERVED = {"T", "F"}


def max_constituents() -> int:
    """Desk-scale bound on constituent counts.

    Overridable through the ``COHERE_MAX_CONSTITUENTS`` environment variable.
    """
    raw = os.environ.get("COHERE_MAX_CONSTITUENTS")
    if raw is None:
        return DEFAULT_MAX_CONSTITUENTS
    try:
        value = int(raw)
    except ValueError as exc:
        raise SizeLimitError(f"COHERE_MAX_CONSTITUENTS is not an integer: {raw!r}") from exc
    if value <= 0:
        raise SizeLimitError(f"COHERE_MAX_CONSTITUENTS must be positive, got {value}")
    return value


# ---------------------------------------------------------------------------
# Formula trees
# ---------------------------------------------------------------------------


class Event:
    """Base class of event formula trees.

    Structural operators never evaluate anything; evaluation happens only
    against a :class:`World` via :meth:`evaluate`.
    """

    __slots__ = ()

    def evaluate(self, world: "World") -> bool:
        raise NotImplementedError

    def atoms(self) -> frozenset[str]:
        raise NotImplementedError

    def __and__(self, other: "Event") -> "Event":
        return And(self, other)

    def __or__(self, other: "Event") -> "Event":
        return Or(self, other)

    def __invert__(self) -> "Event":
        return Not(self)


@dataclass(frozen=True, slots=True)
class Verum(Event):
    """The sure event."""

    def evaluate(self, world: "World") -> bool:
        return True

    def atoms(self) -> frozenset[str]:
        return frozenset()

    def __str__(self) -> str:
        return "T"


@dataclass(frozen=True, slots=True)
class Falsum(Event):
    """The impossible event."""

    def evaluate(self, world: "World") -> bool:
        return False

    def atoms(self) -> frozenset[str]:
        return frozenset()

    def __str__(self) -> str:
        return "F"


TRUE = Verum()
FALSE = Falsum()


@dataclass(frozen=True, slots=True)
class Atom(Event):
    name: str

    def __post_init__(self) -> None:
        if not _NAME_RE.fullmatch(self.name) or self.name in _RESERVED:
            raise ValueError(f"invalid atom name: {self.name!r}")

    def evaluate(self, world: "World") -> bool:
        return world.value(self.name)

    def atoms(self) -> frozenset[str]:
        return frozenset((self.name,))

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Not(Event):
    operand: Event

    def evaluate(self, world: "World") -> bool:
        return not self.operand.evaluate(world)

    def atoms(self) -> frozenset[str]:
        return self.operand.atoms()

    def __str__(self) -> str:
        if isinstance(self.operand, (And, Or)):
            return f"~({self.operand})"
        return f"~{self.operand}"


@dataclass(frozen=True, slots=True)
class And(Event):
    left: Event
    right: Event

    def evaluate(self, world: "World") -> bool:
        return self.left.evaluate(world) and self.right.evaluate(world)

    def atoms(self) -> frozenset[str]:
        return self.left.atoms() | self.right.atoms()

    def __str__(self) -> str:
        return f"{_paren(self.left, for_and=True, right_slot=False)} & " \
               f"{_paren(self.right, for_and=True, right_slot=True)}"


@dataclass(frozen=True, slots=True)
class Or(Event):
    left: Event
    right: Event

    def evaluate(self, world: "World") -> bool:
        return self.left.evaluate(world) or self.right.evaluate(world)

    def atoms(self) -> frozenset[str]:
        return self.left.atoms() | self.right.atoms()

    def __str__(self) -> str:
        return f"{_paren(self.left, for_and=False, right_slot=False)} | " \
               f"{_paren(self.right, for_and=False, right_slot=True)}"


def _paren(e: Event, *, for_and: bool, right_slot: bool) -> str:
    """Parenthesize a child so that printing round-trips structurally.

    The parser is left-associative, so a same-operator child in the right slot
    needs parentheses; an Or under an And always does.
    """
    if for_and and isinstance(e, Or):
        return f"({e})"
    if right_slot and ((for_and and isinstance(e, And)) or (not for_and and isinstance(e, Or))):
        return f"({e})"
    return str(e)


def and_all(events: Sequence[Event]) -> Event:
    """Left-folded conjunction of one or more events."""
    if not events:
        raise ValueError("and_all requires at least one event")
    out = events[0]
    for e in events[1:]:
        out = And(out, e)
    return out


def or_all(events: Sequence[Event]) -> Event:
    """Left-folded disjunction of one or more events."""
    if not events:
        raise ValueError("or_all requires at least one event")
    out = events[0]
    for e in events[1:]:
        out = Or(out, e)
    return out


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, atoms: Iterable[str] | None):
        self.text = text
        self.pos = 0
        self.allowed = frozenset(atoms) if atoms is not None else None

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Event:
        expr = self.parse_or()
        self.skip_ws()
        if self.pos != len(self.text):
            raise EventSyntaxError(
                f"unexpected trailing input {self.text[self.pos:]!r}", self.pos
            )
        return expr

    def parse_or(self) -> Event:
        node = self.parse_and()
        while self.peek() == "|":
            self.pos += 1
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> Event:
        node = self.parse_unary()
        while self.peek() == "&":
            self.pos += 1
            node = And(node, self.parse_unary())
        return node

    def parse_unary(self) -> Event:
        if self.peek() == "~":
            self.pos += 1
            return Not(self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Event:
        ch = self.peek()
        if ch == "(":
            open_pos = self.pos
            self.pos += 1
            node = self.parse_or()
            if self.peek() != ")":
                raise EventSyntaxError("unbalanced parenthesis", open_pos)
            self.pos += 1
            return node
        match = _NAME_RE.match(self.text, self.pos)
        if not match:
            raise EventSyntaxError(
                f"expected an event, found {ch!r}" if ch else "unexpected end of input",
                self.pos,
            )
        name = match.group(0)
        self.pos = match.end()
        if name == "T":
            return TRUE
        if name == "F":
            return FALSE
        if self.allowed is not None and name not in self.allowed:
            raise UnknownAtomError(f"unknown atom {name!r}")
        return Atom(name)


def parse_event(text: str, atoms: Iterable[str] | None = None) -> Event:
    """Parse an event expression.

    When ``atoms`` is given, every identifier must belong to it; otherwise any
    well-formed identifier is accepted.  Raises :class:`EventSyntaxError` with
    the character position on malformed input.
    """
    return _Parser(text, atoms).parse()


# ---------------------------------------------------------------------------
# Worlds and contexts
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class World:
    """A total truth assignment over a fixed atom tuple."""

    atoms: tuple[str, ...]
    values: tuple[bool, ...]

    def value(self, name: str) -> bool:
        try:
            return self.values[self.atoms.index(name)]
        except ValueError:
            raise UnknownAtomError(f"unknown atom {name!r}") from None

    def __str__(self) -> str:
        return " ".join(a if v else f"~{a}" for a, v in zip(self.atoms, self.values))


@dataclass(frozen=True)
class Context:
    """Declared atoms plus logical constraints.

    Each constraint is an event asserted to be impossible; the admissible
    worlds are the assignments falsifying every constraint.  Logical
    independence of the atoms is simply the absence of constraints.
    """

    atoms: tuple[str, ...]
    constraints: tuple[Event, ...] = ()

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("a context needs at least one atom")
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("atom names must be unique")
        for name in self.atoms:
            Atom(name)
        if len(self.atoms) > MAX_ATOMS:
            raise SizeLimitError(
                f"{len(self.atoms)} atoms exceed the desk-scale cap of {MAX_ATOMS}"
            )
        declared = frozenset(self.atoms)
        for c in self.constraints:
            undeclared = c.atoms() - declared
            if undeclared:
                raise UnknownAtomError(
                    f"constraint {c} uses undeclared atoms {sorted(undeclared)}"
                )

    @cached_property
    def worlds(self) -> tuple[World, ...]:
        return tuple(enumerate_worlds(self.atoms, self.constraints))

    def check_event(self, e: Event) -> None:
        undeclared = e.atoms() - frozenset(self.atoms)
        if undeclared:
            raise UnknownAtomError(f"event {e} uses undeclared atoms {sorted(undeclared)}")


def enumerate_worlds(
    atoms: Sequence[str], constraints: Sequence[Event] = ()
) -> Iterator[World]:
    """Yield every assignment falsifying all constraints.

    Order is lexicographic over the atom order with false before true, so the
    result is deterministic.
    """
    atom_tuple = tuple(atoms)
    if not atom_tuple:
        raise ValueError("enumerate_worlds requires at least one atom")
    for values in itertools.product((False, True), repeat=len(atom_tuple)):
        world = World(atom_tuple, values)
        if all(not c.evaluate(world) for c in constraints):
            yield world


def is_impossible(e: Event, context: Context) -> bool:
    """True iff ``e`` evaluates false in every admissible world."""
    context.check_event(e)
    return all(not e.evaluate(w) for w in context.worlds)


def implies(a: Event, b: Event, context: Context) -> bool:
    """True iff ``a`` logically implies ``b``, i.e. a & ~b is impossible."""
    return is_impossible(And(a, Not(b)), context)


def world_equivalent(a: Event, b: Event, context: Context) -> bool:
    """True iff ``a`` and ``b`` take the same value in every admissible world."""
    context.check_event(a)
    context.check_event(b)
    return all(a.evaluate(w) == b.evaluate(w) for w in context.worlds)
