"""Boolean event algebra over named atomic propositions.

Events are plain formula trees; nothing is simplified.  A :class:`Context`
compiles an event, in one fold over its tree, into a bitset over the 2**n
assignments of its atoms: bit k is set when assignment k, in
:func:`enumerate_worlds` order, is admissible and makes the event true.
The fold starts from one mask per atom, a repeating block of ones ANDed
with the admissible bitset, so inadmissible bits are never set.  A
complement within the admissible set is an XOR with its bitset, and
``x`` less ``y`` is ``(x | y) ^ y`` here and in the modules above, or
``x ^ y`` where ``y`` lies within ``x``, never ``x & ~y``: ``~y`` builds
a negative integer as wide as the mask, which on 2**14 bits costs three
to four times the OR and XOR together.  All
semantic questions (impossibility, implication, equivalence) are answered
by bit operations on these masks, which is exact at desk scale, so a world
is only its bit.  The fold is the only evaluator of an event, and it is
also the check for undeclared atoms: an atom missing from the context
fails its lookup, and :meth:`Context.mask` reports it as an
:class:`UnknownAtomError`.  A context folds its constraints once, when it
is built, so the same lookup checks them.  :func:`enumerate_worlds` only
decodes a bitset, writing each set bit's assignment as its literals.

:func:`parse_event` splits the text into one token list with a single
regular expression, a name or any other character that is not white
space, and reads it left to right with an explicit stack of open
parentheses, so no call is made per character or per level.  Errors carry
the character position of the offending token.

Grammar accepted by :func:`parse_event`::

    identifiers  [A-Za-z_][A-Za-z0-9_]*      (``T`` and ``F`` are reserved)
    negation     ~        binds tightest
    conjunction  &
    disjunction  |        binds loosest
    parentheses  ( )
    constants    T  F
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping, Sequence

from ._record import Record, set_field
from .errors import EventSyntaxError, SizeLimitError, UnknownAtomError

MAX_ATOMS = 20
# The parser, the mask fold and printing recurse once or more per level.
MAX_DEPTH = 150

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_RESERVED = {"T", "F"}


def _check_name(name: str) -> None:
    # An ASCII identifier is exactly a full match of _NAME_RE.
    if not (name.isascii() and name.isidentifier()) or name in _RESERVED:
        raise ValueError(f"invalid atom name: {name!r}")


# ---------------------------------------------------------------------------
# Formula trees
# ---------------------------------------------------------------------------


class Event(Record):
    """Base class of event formula trees.

    Structural operators never evaluate anything.  The one evaluator is
    :meth:`mask`, a fold that answers for every world at once and, through
    :meth:`Context.mask`, rejects atoms the context does not declare.
    """

    __slots__ = ()

    def mask(self, atoms: Mapping[str, int], full: int) -> int:
        """Bitset of the assignments where the event holds, given each
        atom's bitset and the bitset of all admissible assignments."""
        raise NotImplementedError

    def __and__(self, other: "Event") -> "Event":
        return And(self, other)

    def __or__(self, other: "Event") -> "Event":
        return Or(self, other)

    def __invert__(self) -> "Event":
        return Not(self)


class Verum(Event):
    """The sure event."""

    __slots__ = ()

    def mask(self, atoms: Mapping[str, int], full: int) -> int:
        return full

    def __str__(self) -> str:
        return "T"


class Falsum(Event):
    """The impossible event."""

    __slots__ = ()

    def mask(self, atoms: Mapping[str, int], full: int) -> int:
        return 0

    def __str__(self) -> str:
        return "F"


TRUE = Verum()
FALSE = Falsum()


class Atom(Event):
    __slots__ = _fields = ("name",)
    name: str

    def __init__(self, name: str) -> None:
        _check_name(name)
        set_field(self, "name", name)

    def mask(self, atoms: Mapping[str, int], full: int) -> int:
        return atoms[self.name]

    def __str__(self) -> str:
        return self.name


class Not(Event):
    __slots__ = _fields = ("operand",)
    operand: Event

    def __init__(self, operand: Event) -> None:
        set_field(self, "operand", operand)

    def mask(self, atoms: Mapping[str, int], full: int) -> int:
        return full ^ self.operand.mask(atoms, full)

    def __str__(self) -> str:
        if isinstance(self.operand, (And, Or)):
            return f"~({self.operand})"
        return f"~{self.operand}"


class And(Event):
    __slots__ = _fields = ("left", "right")
    left: Event
    right: Event

    def __init__(self, left: Event, right: Event) -> None:
        set_field(self, "left", left)
        set_field(self, "right", right)

    def mask(self, atoms: Mapping[str, int], full: int) -> int:
        return self.left.mask(atoms, full) & self.right.mask(atoms, full)

    def __str__(self) -> str:
        return f"{_paren(self.left, for_and=True, right_slot=False)} & " \
               f"{_paren(self.right, for_and=True, right_slot=True)}"


class Or(Event):
    __slots__ = _fields = ("left", "right")
    left: Event
    right: Event

    def __init__(self, left: Event, right: Event) -> None:
        set_field(self, "left", left)
        set_field(self, "right", right)

    def mask(self, atoms: Mapping[str, int], full: int) -> int:
        return self.left.mask(atoms, full) | self.right.mask(atoms, full)

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


def _fold_pairs(op, events: Sequence[Event], name: str) -> Event:
    """Join neighbours pairwise, layer by layer, so that n events make a
    tree of about log2(n) levels; up to three fold as from the left."""
    if not events:
        raise ValueError(f"{name} requires at least one event")
    layer = list(events)
    while len(layer) > 1:
        joined = [op(a, b) for a, b in zip(layer[::2], layer[1::2])]
        layer = joined + layer[len(joined) * 2:]
    return layer[0]


def and_all(events: Sequence[Event]) -> Event:
    """Conjunction of one or more events, as a balanced tree."""
    return _fold_pairs(And, events, "and_all")


def or_all(events: Sequence[Event]) -> Event:
    """Disjunction of one or more events, as a balanced tree."""
    return _fold_pairs(Or, events, "or_all")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


# A name is one token, and so is every other character but white space,
# which only separates tokens; ``\s`` matches exactly where
# ``str.isspace()`` is true.  The empty pair stands for the end of the text.
_TOKEN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)|(\S)")
_END = ("", "")
_CONSTANTS = {"T": TRUE, "F": FALSE}


def _parse(text: str, allowed: frozenset[str] | None) -> Event:
    """Parse ``text`` from its token list with an explicit stack.

    Each level of parentheses keeps its left operands still waiting for an
    ``|`` and an ``&`` operand, and the count of ``~`` waiting for the
    operand being read; an opening parenthesis pushes the level around it.
    ``depth`` counts the open parentheses and waiting negations, plus one.
    """
    tokens = _TOKEN_RE.findall(text)
    tokens.append(_END)
    stack: list[tuple[int, Event | None, Event | None, int]] = []
    either = both = None
    nots = 0
    depth = 1
    operand = True
    for i, (name, op) in enumerate(tokens):
        if operand:
            if name:
                node = _CONSTANTS.get(name)
                if node is None:
                    if allowed is not None and name not in allowed:
                        raise UnknownAtomError(f"unknown atom {name!r}")
                    # The token pattern matches exactly the names that
                    # _check_name accepts, T and F aside, so the check is
                    # not run again.
                    node = object.__new__(Atom)
                    set_field(node, "name", name)
            elif op == "~" or op == "(":
                depth += 1
                if depth > MAX_DEPTH:
                    raise SizeLimitError(f"event nests more than {MAX_DEPTH} levels")
                if op == "~":
                    nots += 1
                else:
                    stack.append((i, either, both, nots))
                    either = both = None
                    nots = 0
                continue
            else:
                raise EventSyntaxError(
                    f"expected an event, found {op!r}" if op else "unexpected end of input",
                    _position(text, i),
                )
        elif op == "&":
            if both is not None:
                node = And(both, node)
            both, operand = node, True
            continue
        elif op == "|":
            if both is not None:
                node, both = And(both, node), None
            if either is not None:
                node = Or(either, node)
            either, operand = node, True
            continue
        else:
            if both is not None:
                node = And(both, node)
            if either is not None:
                node = Or(either, node)
            if stack and op != ")":
                raise EventSyntaxError("unbalanced parenthesis", _position(text, stack[-1][0]))
            if not stack:
                if not (name or op):
                    break
                pos = _position(text, i)
                raise EventSyntaxError(f"unexpected trailing input {text[pos:]!r}", pos)
            _, either, both, nots = stack.pop()
            depth -= 1
        # The operand is complete: its waiting negations apply first.
        depth -= nots
        while nots:
            node, nots = Not(node), nots - 1
        operand = False
    # A tree of L levels is written with at least L characters.
    if len(text) > MAX_DEPTH and _levels(node) > MAX_DEPTH:
        raise SizeLimitError(f"event tree has more than {MAX_DEPTH} levels")
    return node


def _position(text: str, i: int) -> int:
    """Character position of token ``i`` of ``text``; the token after the
    last stands at the end of the text."""
    return ([match.start() for match in _TOKEN_RE.finditer(text)] + [len(text)])[i]


def _levels(e: Event) -> int:
    """The levels of ``e``'s tree, counted a layer at a time, not recursively."""
    levels, layer = 0, [e]
    while layer:
        levels += 1
        layer = [n.operand for n in layer if isinstance(n, Not)] + [
            c for n in layer if isinstance(n, (And, Or)) for c in (n.left, n.right)
        ]
    return levels


def parse_event(text: str, atoms: Iterable[str] | None = None) -> Event:
    """Parse an event expression.

    When ``atoms`` is given, every identifier must belong to it; otherwise any
    well-formed identifier is accepted.  A frozenset is used as given, so a
    caller parsing many events over one set of atoms builds it once.  Raises
    :class:`EventSyntaxError` with the character position on malformed
    input, and :class:`SizeLimitError` beyond :data:`MAX_DEPTH` levels of
    parentheses and negations around an atom, or of operators in the tree
    above it, the atom being one level.
    """
    if atoms is not None and not isinstance(atoms, frozenset):
        atoms = frozenset(atoms)
    return _parse(text, atoms)


# ---------------------------------------------------------------------------
# Contexts
# ---------------------------------------------------------------------------


def _check_atom_count(n: int) -> None:
    if n > MAX_ATOMS:
        raise SizeLimitError(f"{n} atoms exceed the desk-scale cap of {MAX_ATOMS}")


def _space(
    atoms: tuple[str, ...], constraints: Sequence[Event]
) -> tuple[dict[str, int], int]:
    """Each atom's bitset over the 2**n assignments, and the bitset of the
    admissible assignments, those falsifying every constraint.

    Assignment i, in lexicographic order with false before true, gives atom k
    the value of bit n-1-k of i, so atom k's bitset repeats a block of
    2**(n-1-k) zeros followed by as many ones.  Atom 0's is the upper half
    of all assignments, and each next one is the last XOR itself shifted
    down by the new block width, which flips the upper half of every block.
    The atom bitsets returned are ANDed with the admissible bitset, so that
    complementing within it (``Not``) never sets an inadmissible bit.
    """
    size = 1 << len(atoms)
    full = (1 << size) - 1
    width = size >> 1
    mask = full ^ ((1 << width) - 1)
    masks = {atoms[0]: mask}
    for name in atoms[1:]:
        width >>= 1
        mask ^= mask >> width
        masks[name] = mask
    excluded = 0
    for c in constraints:
        excluded |= c.mask(masks, full)
    admissible = full ^ excluded
    return {name: m & admissible for name, m in masks.items()}, admissible


class Context(Record):
    """Declared atoms plus logical constraints.

    Each constraint is an event asserted to be impossible; the admissible
    worlds are the assignments falsifying every constraint.  Logical
    independence of the atoms is simply the absence of constraints.

    Construction checks the atoms, then computes every mask once: each
    atom's bitset and :attr:`full_mask`, the bitset of the admissible
    assignments (bit k is set when assignment k, in
    :func:`enumerate_worlds` order over all 2**n, is admissible), and
    :attr:`atom_set`, the atoms as one frozenset that every parse of an
    event in the context checks names against.  None of them takes part in
    equality.  The constraints' fold is also their check: an undeclared
    atom fails its lookup, and only then is the first offending constraint
    named in an :class:`UnknownAtomError`.
    """

    _fields = ("atoms", "constraints")
    atoms: tuple[str, ...]
    constraints: tuple[Event, ...]
    full_mask: int
    atom_set: frozenset[str]
    _atom_masks: dict[str, int]

    def __init__(self, atoms: Sequence[str], constraints: Sequence[Event] = ()) -> None:
        set_field(self, "atoms", tuple(atoms))
        set_field(self, "constraints", tuple(constraints))
        if not atoms:
            raise ValueError("a context needs at least one atom")
        atom_set = frozenset(atoms)
        if len(atom_set) != len(atoms):
            raise ValueError("atom names must be unique")
        set_field(self, "atom_set", atom_set)
        for name in atoms:
            _check_name(name)
        _check_atom_count(len(atoms))
        try:
            atom_masks, full = _space(atoms, constraints)
        except KeyError:
            for c in constraints:
                self._reject_undeclared(c, "constraint")
            raise
        set_field(self, "full_mask", full)
        set_field(self, "_atom_masks", atom_masks)

    def mask(self, e: Event) -> int:
        """Bitset of the admissible assignments where ``e`` holds.  An atom
        the context does not declare fails the fold's lookup, and is then
        reported as an :class:`UnknownAtomError`."""
        try:
            return e.mask(self._atom_masks, self.full_mask)
        except KeyError:
            self._reject_undeclared(e, "event")
            raise

    def _reject_undeclared(self, e: Event, role: str) -> None:
        # Printing round-trips structurally, so the names in the printed
        # event are exactly its atoms (and the constants T and F).
        undeclared = set(_NAME_RE.findall(str(e))) - _RESERVED - self.atom_set
        if undeclared:
            raise UnknownAtomError(
                f"{role} {e} uses undeclared atoms {sorted(undeclared)}"
            ) from None


def enumerate_worlds(atoms: Sequence[str], *, admissible: int) -> Iterator[str]:
    """Yield the assignment of each bit set in ``admissible``, written as
    its literals, such as ``"~A B"``.

    Bit k stands for assignment k in lexicographic order over the atoms,
    false before true, and the assignments come in that order, so for n
    atoms ``admissible`` must lie in [0, 2**(2**n)).  This only decodes;
    :attr:`Context.full_mask` holds the bits that constraints admit.
    """
    atom_tuple = tuple(atoms)
    if not atom_tuple:
        raise ValueError("enumerate_worlds requires at least one atom")
    _check_atom_count(len(atom_tuple))
    if admissible < 0 or admissible.bit_length() > 1 << len(atom_tuple):
        raise ValueError(f"admissible must lie in [0, 2**{1 << len(atom_tuple)})")
    # The last atom reads bit 0 of k, and each one before it the next bit up.
    literals = [(shift, f"~{a}", a) for shift, a in enumerate(reversed(atom_tuple))][::-1]
    bits = bin(admissible)[:1:-1]
    k = bits.find("1")
    while k >= 0:
        yield " ".join([pos if k >> shift & 1 else neg for shift, neg, pos in literals])
        k = bits.find("1", k + 1)


def is_impossible(e: Event, context: Context) -> bool:
    """True iff ``e`` is false in every admissible world."""
    return not context.mask(e)


def implies(a: Event, b: Event, context: Context) -> bool:
    """True iff ``a`` logically implies ``b``, i.e. a & ~b is impossible."""
    return is_impossible(And(a, Not(b)), context)


def world_equivalent(a: Event, b: Event, context: Context) -> bool:
    """True iff ``a`` and ``b`` take the same value in every admissible world."""
    return context.mask(a) == context.mask(b)
