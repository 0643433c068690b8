"""Immutable records: the one base of the value types that pass between layers.

A record class annotates its fields in the class body, in constructor
order (a subclass's own fields follow its base's).  An instance is built
positionally or by keyword, and assigning or deleting an attribute raises
``AttributeError``.  It compares, hashes and prints by its fields: ``==``
and ``hash`` over the tuple of their values, and the repr
``Name(field=value, ...)``; a class may define its own.  Instances of
different classes are never equal.  ``copy``, ``deepcopy`` and ``pickle``
rebuild a record by calling its class on its fields.  A class that coerces
or validates its input, or gives a field a default, defines ``__init__``
with its own signature and passes the final values on to
``Record.__init__``.

This module imports nothing, so every layer can build on it.
"""

__all__ = ["Record"]


class Record:
    _fields = ()

    def __init_subclass__(cls):
        cls._fields += tuple(vars(cls).get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs:
            try:
                args += tuple(map(kwargs.pop, fields[len(args):]))
            except KeyError as name:
                raise TypeError(f"{type(self).__name__}: missing argument {name}") from None
            if kwargs:
                raise TypeError(f"{type(self).__name__}: unexpected or repeated argument "
                                f"{min(kwargs)!r}")
        if len(args) != len(fields):
            raise TypeError(f"{type(self).__name__}: takes {len(fields)} arguments, "
                            f"got {len(args)}")
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    def __reduce__(self):
        return type(self), self._key()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{self.__class__.__qualname__}({shown})"
