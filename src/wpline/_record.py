"""Frozen value records, the base of wpline's value classes.

A subclass names its compared fields in `_fields` and writes no
`__init__`: `__init_subclass__` compiles one per class from the field
names, as `dataclasses` and `namedtuple` do.  Its parameters are the
fields in order, by position or keyword, so Python itself raises the
arity and keyword errors; its body is one `object.__setattr__` per
field, then `self.__post_init__()` when the class defines that check.
Every record is built on this one path, at the speed of direct sets.
Equality holds only between instances of one class with equal field
tuples, the hash is the hash of that tuple and the repr is
`Name(field=value, ...)`: the values the standard library's frozen data
classes give, at a fraction of their import cost.  Every assignment or
deletion of an attribute raises AttributeError.
"""

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls):
        fields = cls._fields
        # an attrgetter is no descriptor: self._values(self) is the field
        # tuple, given two fields or more, which every record has
        cls._values = attrgetter(*fields)
        body = [f"_set(self, {name!r}, {name})" for name in fields]
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        scope = {"_set": object.__setattr__}
        exec(f"def init(self, {', '.join(fields)}):\n    " + "\n    ".join(body), scope)
        init = cls.__init__ = scope["init"]
        init.__name__, init.__qualname__ = "__init__", f"{cls.__qualname__}.__init__"

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
