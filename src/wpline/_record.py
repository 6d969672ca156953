"""Frozen value records, the base of wpline's value classes.

A subclass names its compared fields in `_fields` and its `__init__`
passes their values, in that order, to `_init`, which sets them and
runs `__post_init__`.  Equality holds only between instances of one
class with equal field tuples, the hash is the hash of that tuple and
the repr is `Name(field=value, ...)`: the values the standard library's
frozen data classes give, at a fraction of their import cost.  Every
assignment or deletion of an attribute raises AttributeError.
"""

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls):
        # an attrgetter is no descriptor: self._values(self) is the field
        # tuple, given two fields or more, which every record has
        cls._values = attrgetter(*cls._fields)

    def _init(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
