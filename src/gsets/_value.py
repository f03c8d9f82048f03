"""The one base of the package's immutable value types."""

from operator import attrgetter


class Value:
    """An immutable value whose fields are its ``__slots__``, bar the ``_``-prefixed caches,
    unless the class names them in ``_fields``.

    It equals only a value of its own class with equal fields, hashes as the
    tuple of its fields and prints as ``Name(field=value, ...)``.  Each class
    writes its own checking ``__init__``, which stores its slots in order with
    ``_init``; pickling and copying call that ``__init__`` again.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        names = cls.__dict__.get("_fields") or tuple(n for n in cls.__slots__ if not n.startswith("_"))
        get = attrgetter(*names)
        cls._fields = names
        cls._key = staticmethod(get if len(names) > 1 else lambda value: (get(value),))

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        return self._key(self) == other._key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._key(self)
