"""The base of the package's immutable record types.

A record is a class whose ``__slots__`` name its fields in order, and
whose ``__init__`` checks its arguments and then passes the field values,
in that order, to ``Record.__init__``, which sets each once.  The base
gives every record a field-order repr, field-wise equality and hashing
(between records of the same class), assignment and deletion that raise
``AttributeError``, pickling and copying, and ``_asdict``.  These are
the methods a frozen dataclass would generate, written once here, so
that making a record type costs no code generation at import.  Standard
library only.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """An immutable record; subclasses list their fields in __slots__."""

    __slots__ = ()

    def __init__(self, *values):
        """Set the fields to values, in the order of __slots__."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _asdict(self) -> dict:
        """The fields by name, in order."""
        return dict(zip(self.__slots__, self._values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    # pickle and copy restore the fields as __init__ left them
    def __getstate__(self) -> tuple:
        return self._values()

    def __setstate__(self, state: tuple) -> None:
        Record.__init__(self, *state)
