"""Immutable record types declared without generated code.

The package's records (:class:`~tefuse.ingest.RunConfig`,
:class:`~tefuse.sdf.SymbolSequence`, :class:`~tefuse.clustering.MergeTree`
and the rest) are plain ``__slots__`` classes with an explicit
``__init__``, whose positional parameters are the slots in order.
:class:`Frozen` gives them a field-by-field repr, refuses assignment after
construction, and pickles and copies through ``__init__``, so a copy is
checked again; it keeps identity equality, as befits a record holding
arrays. :class:`FrozenValue` compares and hashes by the fields' values in
slot order, and only between instances of one class. Declaring such a
class generates and compiles no method at import time.
"""

from __future__ import annotations


class Frozen:
    __slots__ = ()

    def _fill(self, values: dict) -> None:
        """Store every slot from ``values``, which a constructor passes as
        its ``locals()``; what it then checks or coerces, it stores with
        ``object.__setattr__``."""
        for name in self.__slots__:
            object.__setattr__(self, name, values[name])

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class FrozenValue(Frozen):
    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())
