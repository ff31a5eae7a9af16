"""Frozen value classes without `dataclasses`.

Importing `dataclasses` loads `inspect`, `dis`, `ast`, `tokenize` and
`copy`, and each `@dataclass` compiles its methods when its class is made;
in a fresh `orddraw draw` process that was about a quarter of the time
spent importing the package.  A `Record` subclass instead names its fields
in `__slots__`, stores them once in its own `__init__` through `_fill`,
and takes the rest from here.
"""

from __future__ import annotations


class Record:
    """A frozen record whose fields are its class's own `__slots__`.

    Assigning or deleting an attribute raises AttributeError.  Two records
    are equal when they are of the same class and agree on `_key()`, every
    field unless the class overrides it, and the hash is taken over the
    same key.  `replace(**changes)`
    copies a record with some fields changed; it calls `__init__` again
    with every field by keyword, so each `__init__` names its parameters
    after the fields.  Copying and pickling also go through `__init__`.
    """

    __slots__ = ()

    def _fill(self, *values) -> None:
        """Stores the fields, in `__slots__` order."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _key(self) -> tuple:
        """What equality and hash compare."""
        return self._fields()

    def replace(self, **changes):
        """A copy with the named fields changed."""
        return type(self)(**dict(zip(self.__slots__, self._fields()), **changes))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}"
                          for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._fields()
