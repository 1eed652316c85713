"""The package's frozen value types, without `dataclasses`.

`record` turns a class whose annotated names are its fields into an
immutable value, as `dataclass(frozen=True)` would: a positional-or-keyword
`__init__` that calls `__post_init__` after the fields are set, `__eq__` on
the exact class and the field tuple, `__hash__` of that tuple, the same
`__repr__`, and `__setattr__` and `__delattr__` that refuse a field. Its
methods are closures over the field names, so decorating a class compiles
nothing, and a method the class defines itself is kept. Fields live in the
instance `__dict__`, so `cached_property` works as on a plain object; set a
field in a constructor with `object.__setattr__`.

`_of(*values)` is the package's one unchecked constructor: it builds an
instance from field values that are valid by construction, in field order,
without running `__init__` or `__post_init__`. `__reduce__` returns
`(cls._of, field values)`, so pickle, `copy` and `deepcopy` carry the fields
alone and leave every cache behind; pickle finds `_of` by reference, under
its class's module and qualified name. An instance of a plain subclass
pickles as a plain object instead, keeping its class and attributes.
"""

from __future__ import annotations

from operator import attrgetter

_new = object.__new__
_set = object.__setattr__


def record(cls):
    names = tuple(cls.__dict__.get("__annotations__", ()))
    count = len(names)
    get = attrgetter(*names)
    values = get if count > 1 else lambda self: (get(self),)
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = _bind(cls.__qualname__, names, args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        fields = ", ".join([f"{name}={value!r}" for name, value in zip(names, values(self))])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise AttributeError(f"cannot assign to field {name!r}")
        _set(self, name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise AttributeError(f"cannot delete field {name!r}")
        object.__delattr__(self, name)

    def _of(*args):
        self = _new(cls)
        for name, value in zip(names, args):
            _set(self, name, value)
        return self

    def __reduce__(self):
        if self.__class__ is cls:
            return _of, values(self)
        return object.__reduce__(self)

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__, _of, __reduce__):
        if method.__name__ not in cls.__dict__:
            method.__module__ = cls.__module__
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, staticmethod(method) if method is _of else method)
    cls.__match_args__ = names
    return cls


def _bind(qualname: str, names: tuple, args: tuple, kwargs: dict) -> tuple:
    """The field values of a call that passes keywords or a wrong number of
    positional arguments, in field order, or the TypeError a def raises."""
    rest = names[len(args) :]
    if len(args) <= len(names) and len(kwargs) == len(rest):
        try:
            return args + tuple([kwargs[name] for name in rest])
        except KeyError:
            pass
    if len(args) > len(names):
        raise TypeError(f"{qualname}.__init__() takes {len(names) + 1} positional arguments but {len(args) + 1} were given")
    missing = [name for name in rest if name not in kwargs]
    if missing:
        raise TypeError(f"{qualname}.__init__() missing required arguments: {', '.join(map(repr, missing))}")
    name = next(name for name in kwargs if name not in rest)
    what = "multiple values for argument" if name in names else "an unexpected keyword argument"
    raise TypeError(f"{qualname}.__init__() got {what} {name!r}")
