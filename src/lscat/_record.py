"""The common base of lscat's immutable value records.

A record declares its fields as class annotations, in constructor
order; its ``__init__`` writes them straight into the instance dict and
then checks them.  Two records are equal when they are of the same
class with equal field values, and then hash alike; no attribute can be
assigned or deleted after construction (``functools.cached_property``
still works, since it writes to the instance dict directly); the repr
is ``Name(field=value, ...)`` over every field.

Plain classes keep ``import lscat`` free of ``dataclasses``: importing
it and generating the methods of the package's records cost about
three times as much as the rest of the package's start-up.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)
        # the field values, in C; a lone field comes back bare, not in a tuple
        cls._key = attrgetter(*cls._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"
