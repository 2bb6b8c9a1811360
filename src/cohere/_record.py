"""Immutable value records, written out by hand.

The engine's value types subclass :class:`Record` and name their compared
fields in ``_fields``.  Each writes its own ``__init__``, which checks its
arguments and stores them with :func:`set_field`.  The base refuses
assignment and deletion, and compares, hashes and prints an instance over
its ``_fields`` as a frozen data class would, so no method is generated
when a class is created.
"""

from __future__ import annotations

# Stores a field past a record's refusal of assignment.  Bound once: looking
# ``__setattr__`` up on ``object`` at each store costs more than the store.
set_field = object.__setattr__


class Record:
    """Base of the engine's frozen value types.

    Two records are equal when they are of the same class and their
    ``_fields`` are equal; the hash is that of the tuple of those fields.
    An attribute outside ``_fields`` (a cached mask, a tableau) takes no part
    in equality, hashing or ``repr``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state: dict | tuple) -> None:
        # Copying and unpickling restore the instance dict, the slots, or
        # both as a pair, past the refusal of assignment.
        for part in state if isinstance(state, tuple) else (state,):
            for name, value in (part or {}).items():
                set_field(self, name, value)
