"""Frozen value records: the package's result types, built without
``dataclasses``.

Importing ``dataclasses`` pulls in ``inspect`` (and through it ``dis``,
``ast`` and ``tokenize``), and every ``@dataclass`` compiles its methods
with ``exec`` at import time; together that was about two thirds of the
package's import cost, which every one-shot CLI call pays.
:func:`record` gives the same value semantics from plain closures.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any


class FrozenRecordError(AttributeError):
    """Assignment to, or deletion of, a field of a frozen record."""


def _no_setattr(self, name: str, value: Any) -> None:
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _no_delattr(self, name: str) -> None:
    raise FrozenRecordError(f"cannot delete field {name!r}")


def _bad_arguments(cls: type, names: tuple, args: tuple, kwargs: dict) -> TypeError:
    return TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}; "
                     f"got {len(args)} positional and {sorted(kwargs)} by keyword")


def record(cls: type) -> type:
    """Class decorator: make ``cls`` a frozen value record.

    Fields are the names in the class's own ``__annotations__``, in
    order; a class attribute of the same name is that field's default.
    Adds an ``__init__`` taking the fields positionally or by keyword
    and then calling ``__post_init__`` if defined (a class's own
    ``__init__`` is kept instead), a type-sensitive ``__eq__``, a
    ``__hash__`` of the field tuple, a ``Name(field=value, ...)``
    ``__repr__``, and ``__setattr__``/``__delattr__`` that raise
    :class:`FrozenRecordError`.
    """
    names = tuple(cls.__dict__.get("__annotations__", {}))
    n_fields = len(names)
    field_set = frozenset(names)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    n_required = n_fields - len(defaults)
    if set(names[n_required:]) != defaults.keys():
        raise TypeError(f"{cls.__name__}: a field without a default follows "
                        "one with a default")
    tail = tuple(defaults.values())
    get = attrgetter(*names)
    values_of = get if n_fields > 1 else (lambda obj: (get(obj),))
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        fields = self.__dict__
        if kwargs:
            fields.update(defaults)
            if args:
                if (len(args) > n_fields
                        or not kwargs.keys().isdisjoint(names[:len(args)])):
                    raise _bad_arguments(cls, names, args, kwargs)
                fields.update(zip(names, args))
            fields.update(kwargs)
            if fields.keys() != field_set:
                raise _bad_arguments(cls, names, args, kwargs)
        elif n_required <= len(args) <= n_fields:
            fields.update(zip(names, args + tail[len(args) - n_required:]))
        else:
            raise _bad_arguments(cls, names, args, kwargs)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return values_of(self) == values_of(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(values_of(self))

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={v!r}" for n, v in zip(names, values_of(self)))
        return f"{self.__class__.__qualname__}({inner})"

    if "__init__" not in cls.__dict__:
        cls.__init__ = __init__
    cls.__eq__ = __eq__
    cls.__hash__ = __hash__
    cls.__repr__ = __repr__
    cls.__setattr__ = _no_setattr
    cls.__delattr__ = _no_delattr
    cls.__record_fields__ = names
    return cls


def render(steps: tuple) -> tuple[str, ...]:
    """The text of steps kept as ``(template, exact values...)``, one
    line each: ``template.format(*values)``.  Records that render on
    read (a bound report's trace, an interval's notes) all go through
    this."""
    return tuple([t.format(*values) for t, *values in steps])


def asdict(obj: Any) -> dict:
    """Name -> value of what a record shows, in field order (not
    recursive).  A class may show a property in the place of the field
    it is derived from, by mapping the field's name to the property's
    in ``__record_view__``."""
    shown = getattr(obj, "__record_view__", {})
    names = [shown.get(n, n) for n in obj.__record_fields__]
    return {n: getattr(obj, n) for n in names}


def replace(obj: Any, **changes: Any) -> Any:
    """A new record of the same type with the given fields changed."""
    fields = {n: getattr(obj, n) for n in obj.__record_fields__}
    return type(obj)(**{**fields, **changes})
