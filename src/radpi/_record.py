"""Immutable records over ``__slots__``.

A subclass lists its fields, in constructor order, as ``__slots__`` and the
defaults of trailing fields in ``_defaults``. The base supplies the field-wise
constructor and equality, and the immutability, of a frozen dataclass, without
the import and class-decoration cost of ``dataclasses`` (which also loads
``inspect``) on every start of the command-line tool. The base defines no hash,
so only a record with its own (``Rational``) hashes.
"""

# Writes a field past the raising __setattr__; for constructors only.
set_field = object.__setattr__


class Record:
    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(
                f"{type(self).__name__}() takes {len(names)} arguments but {len(args)} were given"
            )
        for name, value in zip(names, args):
            set_field(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
            set_field(self, name, value)
        if kwargs:
            raise TypeError(
                f"{type(self).__name__}() got an unexpected argument {next(iter(kwargs))!r}"
            )

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
