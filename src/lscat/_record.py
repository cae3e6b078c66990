"""The common base of lscat's immutable value records.

A record declares its fields as class annotations, in constructor
order; a field with a value in the class body (``notes: tuple[str, ...]
= ()``) takes it as its default.  The constructor is generated from
them: it binds positional and keyword arguments to the fields, fills in
the defaults, raises ``TypeError`` for too many positionals, an unknown
keyword, a field given twice or a missing required field, writes the
fields straight into the instance dict and then calls ``validate()``,
the hook a record overrides with its checks.  ``to_dict()`` maps each
field to its value, a nested record to its ``to_dict()`` and a tuple to
a list.

Two records are equal when they are of the same class with equal field
values, and then hash alike; no attribute can be assigned or deleted
after construction (``functools.cached_property`` still works, since it
writes to the instance dict directly); the repr is
``Name(field=value, ...)`` over every field.

Plain classes keep ``import lscat`` free of ``dataclasses``: importing
it and generating the methods of the package's records cost about
three times as much as the rest of the package's start-up.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        # the field values, in C; a lone field comes back bare, not in a tuple
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        self.validate()

    def _bind(self, args: tuple, kwargs: dict[str, object]) -> list:
        """Every field's value, in field order, from arguments and defaults."""
        name, fields = type(self).__qualname__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        for key in kwargs:
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if fields.index(key) < len(args):
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        missing = [key for key in fields if key not in values]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
        return [values[key] for key in fields]

    def validate(self) -> None:
        """Check the fields once they are set; a record with checks overrides it."""

    def to_dict(self) -> dict:
        return {name: _plain(getattr(self, name)) for name in self._fields}

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


def _plain(value: object) -> object:
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value
