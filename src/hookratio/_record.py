"""Frozen record classes without the import cost of ``dataclasses``.

``@record`` reads the fields from the class annotations, in order, and a
class attribute of the same name as that field's default. It adds a
positional and keyword ``__init__`` (followed by ``__post_init__`` when the
class has one), equality between instances of the same class only, a hash
of the fields, the ``Name(field=value, ...)`` repr and ``__match_args__``.
Instances are immutable: ``__post_init__`` sets attributes with
``object.__setattr__``. Builds no source text and uses no ``inspect``.
"""

from __future__ import annotations

from operator import attrgetter


class FrozenRecordError(AttributeError):
    """Assignment to or deletion of an attribute of a record."""


def record(cls):
    names = tuple(cls.__annotations__)
    size = len(names)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    required = size - len(defaults)
    if tuple(defaults) != names[required:]:
        raise TypeError(f"{cls.__name__}: a field without a default follows one with")
    tail = tuple(defaults.values())
    key = attrgetter(*names)
    post_init = hasattr(cls, "__post_init__")

    def bind(args, kwargs):
        """All field values in order, or the TypeError a plain def raises."""
        if not kwargs and required <= len(args) <= size:
            return args + tail[len(args) - required:]
        where = f"{cls.__name__}.__init__()"
        if len(args) > size:
            raise TypeError(f"{where} takes {size} positional arguments but {len(args)} were given")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{where} got multiple values for argument {name!r}")
            values[name] = value
        missing = [n for n in names[:required] if n not in values]
        if missing:
            raise TypeError(f"{where} missing required arguments {missing}")
        return tuple(values[n] if n in values else defaults[n] for n in names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != size:
            args = bind(args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls
