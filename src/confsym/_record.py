"""Slotted record classes: the equality, hash and repr of the toolkit's
labels and reports, read off `__slots__`, with nothing to import and no
class generated at import time.  A subclass declares its fields in
`__slots__` and sets them in its own `__init__`."""


class Record:
    """Equal to a record of the same class with equal fields; unhashable, as
    a mutable value should be."""

    __slots__ = ()
    __hash__ = None

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    """A record that refuses assignment once built and hashes by its fields;
    its `__init__` sets each field with `object.__setattr__`."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")
