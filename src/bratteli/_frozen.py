"""Immutable value classes with shared methods.

``@frozen`` turns a class with annotated fields into an immutable value: it
binds constructor arguments to the fields (inherited fields first, a
class-level value as the default), calls ``__post_init__`` when the class
has one, compares and hashes by field values, prints ``Name(field=value,
...)`` and refuses assignment and deletion.  The methods are the shared
functions below rather than code generated per class, which keeps class
creation, and with it the start of every command, cheap.  A method the
class body defines itself, such as a hand-written ``__init__`` on a hot
constructor, is left alone; it sets its fields with ``object.__setattr__``.
"""

from __future__ import annotations

from operator import attrgetter


def _bind(cls, args: tuple, kwargs: dict) -> tuple:
    """Constructor arguments as one value per field, defaults filled in."""
    names = cls._fields
    if len(args) > len(names):
        raise TypeError(f"{cls.__name__}() takes {len(names)} positional arguments but {len(args)} were given")
    values = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
        if name in values:
            raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
        values[name] = value
    for name in names:
        if name not in values:
            if name not in cls._defaults:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
            values[name] = cls._defaults[name]
    return tuple(values[name] for name in names)


def _init(self, *args, **kwargs):
    cls = type(self)
    if kwargs or len(args) != len(cls._fields):
        args = _bind(cls, args, kwargs)
    for name, value in zip(cls._fields, args):
        object.__setattr__(self, name, value)
    if cls._post_init is not None:
        cls._post_init(self)


def _eq(self, other):
    cls = type(self)
    if type(other) is not cls:
        return NotImplemented
    return cls._values(self) == cls._values(other)


def _hash(self):
    return hash(type(self)._values(self))


def _repr(self):
    body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
    return f"{type(self).__qualname__}({body})"


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")


_METHODS = {
    "__init__": _init,
    "__eq__": _eq,
    "__hash__": _hash,
    "__repr__": _repr,
    "__setattr__": _setattr,
    "__delattr__": _delattr,
}


def frozen(cls):
    """Class decorator: make ``cls`` an immutable value class (see the module docstring)."""
    own = cls.__dict__
    inherited = getattr(cls, "_fields", ())
    names = inherited + tuple(name for name in cls.__annotations__ if name not in inherited)
    slots = own.get("__slots__", ())  # a slot is a descriptor on the class, not a default
    cls._fields = names
    cls._defaults = {name: getattr(cls, name) for name in names if hasattr(cls, name) and name not in slots}
    cls._post_init = getattr(cls, "__post_init__", None)
    # the field values as one tuple; attrgetter returns a tuple only for two or more names
    get = attrgetter(*names) if names else lambda obj: ()
    cls._values = (lambda obj: (get(obj),)) if len(names) == 1 else get
    for name, method in _METHODS.items():
        if name not in own:
            setattr(cls, name, method)
    return cls
