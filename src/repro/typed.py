"""Read JSON documents into dataclasses by their declared field types.

One rule reads every document the library accepts (scenario specs, their
nested pieces, backend options, inline topologies and workloads) and every
registry keyword argument (:meth:`repro.registry.Registry.build`).  A value
is checked against the field's resolved annotation:

* ``bool`` takes a bool, so ``"false"`` is not a bool;
* ``int`` takes an int that is not a bool;
* ``float`` takes any number that is not a bool, an int becoming a float
  (an int too large for a float is an error);
* ``str`` takes a str;
* ``tuple[X, ...]`` and ``list[X]`` take a list (or tuple) and read each
  item as ``X``;
* ``dict[K, V]`` takes an object and reads each value as ``V``; its string
  keys become ints where ``K`` is ``int``;
* ``X | None`` takes null or an ``X``; a union of several kinds takes the
  first kind the value reads as;
* a nested dataclass takes an object of its fields (or an instance);
* ``Annotated[X, rule]`` passes the value through ``rule`` (which may
  convert or reject it), then reads it as ``X``: :data:`Count` is the
  int whose rule asks for at least one, and :func:`by_name` the rule of
  a type a document names by a string (an enum member's name).

A value of another kind, or one a rule rejects, is an error naming its
place (``where``), raised as the caller's error class.  This module imports
only :mod:`repro.errors` and :mod:`repro.numeric`, so any package can use it.
"""

from __future__ import annotations

import dataclasses
import functools
import types
from collections.abc import Callable
from typing import (
    Annotated,
    Any,
    TypeVar,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from .errors import ConfigError, ReproError, SpecError, did_you_mean
from .numeric import is_count

_T = TypeVar("_T")


def _count(value: Any) -> Any:
    """A count's rule: an int, not a bool, of at least one."""
    if not is_count(value):
        raise ConfigError(f"must be an integer >= 1, got {value!r}")
    return value


#: An ``int`` field that counts something: a whole number of at least one.
Count = Annotated[int, _count]


def by_name(parse: Callable[[str], Any]) -> Callable[[Any], Any]:
    """The rule of a type a document names by a string: a string is read
    through ``parse`` (e.g. an enum's ``from_name``), anything else is left
    to the type check."""
    return lambda value: parse(value) if isinstance(value, str) else value


_SCALARS = (bool, int, float, str)


def _got(value: Any) -> str:
    """How an error message shows a malformed value."""
    return f"got {type(value).__name__} {value!r}"


def _name(kind: Any) -> str:
    """How an error message names what ``kind`` takes."""
    origin = get_origin(kind) or kind
    if origin in (tuple, list):
        return "a list"
    if origin is dict or dataclasses.is_dataclass(kind):
        return "an object"
    return str(getattr(kind, "__name__", kind))


@functools.cache
def _field_types(cls: type[Any]) -> dict[str, Any]:
    """Each field of dataclass ``cls`` with its resolved annotation."""
    hints = get_type_hints(cls, include_extras=True)
    return {entry.name: hints[entry.name] for entry in dataclasses.fields(cls)}


@functools.cache
def _required(cls: type[Any]) -> tuple[str, ...]:
    """The fields of dataclass ``cls`` that have no default."""
    return tuple(
        entry.name
        for entry in dataclasses.fields(cls)
        if entry.default is dataclasses.MISSING
        and entry.default_factory is dataclasses.MISSING
    )


def built(
    error: type[ReproError],
    where: str,
    build: Callable[..., _T],
    /,
    *args: Any,
    **kwargs: Any,
) -> _T:
    """``build(*args, **kwargs)``, a library error it raises re-raised as
    ``error`` at ``where`` (one that already is an ``error`` unchanged)."""
    try:
        return build(*args, **kwargs)
    except error:
        raise
    except ReproError as failure:
        raise error(f"{where}: {failure}") from None


def read(
    cls: type[_T],
    data: Any,
    where: str,
    error: type[ReproError] = ConfigError,
    aliases: tuple[str, ...] = (),
) -> _T:
    """Build dataclass ``cls`` from the JSON object ``data``.

    A key that names no field is an error with a did-you-mean hint, and so
    is a missing required field.  ``aliases`` are keys the caller maps onto
    fields itself; the hint offers them too.  Each value is read by its
    field's type (a :class:`Typed` class reads its own fields when built),
    and an error building the instance is re-raised as ``error`` at
    ``where``.
    """
    if not isinstance(data, dict):
        raise error(f"{where}: expected an object, {_got(data)}")
    kinds = _field_types(cls)
    unknown = [key for key in data if key not in kinds]
    if unknown:
        known = (*kinds, *aliases)
        hints = "".join(
            f"\n  {key!r}{did_you_mean(str(key), known)}" for key in unknown
        )
        raise error(f"{where}: unknown key(s):{hints}\n  known: {', '.join(known)}")
    missing = [name for name in _required(cls) if name not in data]
    if missing:
        raise error(f"{where}: missing key(s): {', '.join(missing)}")
    if issubclass(cls, Typed):
        return built(error, where, cls, **data)
    values = {
        name: read_value(kinds[name], value, f"{where}.{name}", error)
        for name, value in data.items()
    }
    return built(error, where, cls, **values)


def read_value(
    kind: Any, value: Any, where: str, error: type[ReproError] = ConfigError
) -> Any:
    """``value`` read as ``kind`` by the module's rule; a value of another
    kind raises ``error`` naming ``where``."""
    if type(kind) is type and kind in _SCALARS:  # typing aliases compare slowly
        if isinstance(value, bool) == (kind is bool):  # bool subclasses int
            if isinstance(value, kind):
                return value
            if kind is float and isinstance(value, int):
                try:
                    return float(value)
                except OverflowError:
                    raise error(
                        f"{where}: expected float, {_got(value)} (too large "
                        "for a float)"
                    ) from None
        raise error(f"{where}: expected {kind.__name__}, {_got(value)}")
    if kind is Any:
        return value
    origin, args = get_origin(kind) or kind, get_args(kind)
    if origin is Annotated:
        base, rule = args
        try:
            value = rule(value)
        except ReproError as failure:  # a rule checks this one value: name it
            raise error(f"{where}: {failure}") from None
        return read_value(base, value, where, error)
    if origin in (Union, types.UnionType):
        return _read_union(args, value, where, error)
    if origin in (tuple, list) and isinstance(value, (list, tuple)):
        item = args[0] if args else Any
        return origin(
            read_value(item, entry, f"{where}[{index}]", error)
            for index, entry in enumerate(value)
        )
    if origin is dict and isinstance(value, dict):
        key_kind, item_kind = args or (Any, Any)
        return {
            _read_key(key_kind, key, where, error): read_value(
                item_kind, entry, f"{where}[{key!r}]", error
            )
            for key, entry in value.items()
        }
    if isinstance(value, origin):
        return value
    if isinstance(kind, type) and dataclasses.is_dataclass(kind):
        return read(kind, value, where, error)
    raise error(f"{where}: expected {_name(kind)}, {_got(value)}")


def _read_union(
    kinds: tuple[Any, ...], value: Any, where: str, error: type[ReproError]
) -> Any:
    options = [kind for kind in kinds if kind is not type(None)]
    if value is None and len(options) < len(kinds):
        return None
    if len(options) == 1:
        return read_value(options[0], value, where, error)
    for kind in options:
        try:
            return read_value(kind, value, where, error)
        except error:
            continue
    names = " or ".join(_name(kind) for kind in kinds)
    raise error(f"{where}: expected {names}, {_got(value)}")


def _read_key(kind: Any, key: Any, where: str, error: type[ReproError]) -> Any:
    """A JSON object key read as ``kind``: a numeral string is an int key."""
    if kind is int and isinstance(key, str) and key.lstrip("-").isdigit():
        key = int(key)
    return read_value(kind, key, f"{where} key {key!r}", error)


class Typed:
    """Base of a spec piece: a frozen dataclass that reads its own fields.

    ``__post_init__`` reads every field by its declared type, so a Python
    caller may pass any field in its JSON form (an object for a nested
    piece, a list for a tuple) and the instance holds the typed value.  A
    malformed field is a :class:`~repro.errors.SpecError` named by
    :meth:`_where`.  :func:`read` builds a ``Typed`` class from the raw
    object, so a nested piece's errors name its fields as it does.
    """

    @classmethod
    def from_dict(cls: type[_T], data: Any) -> _T:
        """Build the piece from its JSON object (see :func:`read`)."""
        return read(cls, data, cls.__name__, SpecError)

    def __post_init__(self) -> None:
        where = self._where()
        for name, kind in _field_types(type(self)).items():
            value = getattr(self, name)
            typed = read_value(kind, value, where + name, SpecError)
            if typed is not value:
                object.__setattr__(self, name, typed)

    def _where(self) -> str:
        """What error messages put before a field's name."""
        return f"{type(self).__name__}."
