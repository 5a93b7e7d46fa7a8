"""The one rule for a config field: its declared type.

A config block is a frozen dataclass whose __post_init__ calls
check_fields before its range and cross-field checks.  Each field's check
comes from its annotation, resolved once per class: an `int` is an
integer (a bool is not one), a `float` a finite number, a `bool`, `str`
or `dict` that type only, `X | None` an X or null, `tuple[X, ...]` a list
of X and `tuple[X, X]` a pair of X, both stored as tuples, an
`np.ndarray` a list of finite numbers, stored as a float array, and a
dataclass an instance of it.  Anything wrong with a run configuration, or
with a file it names, is a ConfigError.  This module imports nothing else
from the package.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing

import numpy as np

__all__ = ["ConfigError", "integer", "number", "finite", "field_types",
           "check_fields"]


class ConfigError(ValueError):
    """A run configuration, or a file it names, is malformed."""


def integer(value) -> bool:
    """An int or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def number(value) -> bool:
    """An integer or a float; a bool is not one."""
    return integer(value) or isinstance(value, (float, np.floating))


def finite(value) -> bool:
    """A number a float holds, other than NaN and the infinities."""
    try:
        return number(value) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


# type -> (what one is, what several are, its test)
_SCALARS = {int: ("an integer", "integers", integer),
            float: ("a finite number", "finite numbers", finite),
            bool: ("a bool", "bools", lambda v: isinstance(v, bool)),
            str: ("a string", "strings", lambda v: isinstance(v, str)),
            dict: ("an object", "objects", lambda v: isinstance(v, dict))}


def _items(ok, size: int | None = None):
    """The test of a list, tuple or 1-D array of items passing ok."""
    return lambda v: ((isinstance(v, (list, tuple))
                       or isinstance(v, np.ndarray) and v.ndim == 1)
                      and size in (None, len(v)) and all(map(ok, v)))


def _rule(hint) -> tuple:
    """(what a valid value is, its test, the type it is stored as or None
    to store it as given) for one annotation."""
    if hint in _SCALARS:
        return _SCALARS[hint][0], _SCALARS[hint][2], None
    if hint is type(None):
        return "null", lambda v: v is None, None
    if hint is np.ndarray:
        return ("a list of finite numbers", _items(finite),
                functools.partial(np.asarray, dtype=float))
    if dataclasses.is_dataclass(hint):
        return f"a {hint.__name__}", lambda v: isinstance(v, hint), None
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        _, plural, ok = _SCALARS[args[0]]
        if args[1] is Ellipsis:
            return f"a list of {plural}", _items(ok), tuple
        return f"a pair of {plural}", _items(ok, 2), tuple
    if not args:
        raise TypeError(f"no field rule for {hint!r}")
    # A union: a value is stored as the first member it passes would.
    whats, tests, stores = zip(*map(_rule, args))

    def store(value):
        keep = stores[next(i for i, ok in enumerate(tests) if ok(value))]
        return value if keep is None else keep(value)
    return (", ".join(whats[:-1]) + " or " + whats[-1],
            lambda v: any(ok(v) for ok in tests),
            store if any(stores) else None)


@functools.cache
def field_types(cls) -> dict[str, object]:
    """The resolved annotation of each field of the dataclass cls."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


@functools.cache
def _rules(cls) -> tuple:
    return tuple((name, *_rule(hint))
                 for name, hint in field_types(cls).items())


def check_fields(obj) -> None:
    """ConfigError unless each field of the dataclass obj holds a value of
    its declared type; a list for a tuple or an array is stored as one."""
    for name, what, ok, store in _rules(type(obj)):
        value = getattr(obj, name)
        if not ok(value):
            raise ConfigError(f"{name} must be {what}, got {value!r}")
        if store is not None:
            object.__setattr__(obj, name, store(value))
