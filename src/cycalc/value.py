"""Immutable value classes without generated code.

A subclass names its fields, in declaration order, in ``__slots__``; its
``__init__`` validates and normalises its arguments and stores them with
:meth:`Value._set`.  Equality, hashing and ``repr`` then go over the fields in
that order, as a frozen dataclass's do, but nothing is generated or executed
when the class is built, so importing the package stays cheap.  Every
instance refuses assignment and deletion, and pickles and copies by calling
its class with its field values again.
"""

from itertools import repeat
from operator import attrgetter

_setattr = object.__setattr__


class Value:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # the fields in one C call: a tuple, or the value itself for one field
        cls._key = attrgetter(*cls.__slots__)

    def _set(self, *values) -> None:
        # one store per field; _setattr returns None, so any() runs them all
        any(map(_setattr, repeat(self), self.__slots__, values))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self.__slots__))
