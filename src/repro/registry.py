"""One string-keyed registry type for every pluggable component.

Topology presets, workloads, intra-dimension policies, cluster fairness and
placement policies, collective algorithms and network backends are all
chosen by key.  Each domain holds one :class:`Registry` instance and binds
its public ``get_*`` / ``*_names`` / ``register_*`` names to the instance's
methods; :mod:`repro.api.registry` maps every spec kind to the same
instances.  This module imports only :mod:`repro.errors` and
:mod:`repro.typed` (itself a leaf), so any domain can use it without an
import cycle.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Mapping
from typing import Any, Generic, TypeVar

from .errors import ReproError, did_you_mean
from .typed import read_value

T = TypeVar("T")


class Registry(Generic[T]):
    """Factories of one component kind, keyed by name.

    ``noun`` names the kind in errors (``unknown <noun> 'x'``), which are
    raised as ``error``.  A ``casefold`` registry stores and compares keys
    lower-cased; otherwise keys match exactly.  Nothing strips whitespace.
    :meth:`names` lists keys in registration order.  A ``frozen`` registry
    takes no entries beyond the ones it was built with.
    """

    def __init__(
        self,
        noun: str,
        entries: Mapping[str, Callable[..., T]],
        *,
        error: type[ReproError],
        casefold: bool = True,
        frozen: bool = False,
    ) -> None:
        self.noun = noun
        self.error = error
        self.casefold = casefold
        self.frozen = frozen
        self._entries = {
            self._fold(name): factory for name, factory in entries.items()
        }
        #: Each key's factory signature, its annotations evaluated, derived
        #: on its first build; keys are never re-registered, so an entry
        #: never goes stale.
        self._signatures: dict[str, inspect.Signature] = {}

    def _fold(self, name: str) -> str:
        return name.lower() if self.casefold else name

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self._fold(name) in self._entries

    def names(self) -> tuple[str, ...]:
        """Every key, in registration order."""
        return tuple(self._entries)

    def miss(self, name: object, noun: str) -> str:
        """Why ``name`` is no key, as ``unknown <noun> 'x' (…); known: …``."""
        known = ", ".join(self._entries)
        if not isinstance(name, str):
            return f"{noun} must be a string, got {name!r}; known: {known}"
        hint = did_you_mean(self._fold(name), self.names())
        return f"unknown {noun} {name!r}{hint}; known: {known}"

    def lookup(self, name: str) -> Callable[..., T]:
        """The factory registered under ``name``; a miss raises ``error``."""
        if name not in self:
            raise self.error(self.miss(name, self.noun))
        return self._entries[self._fold(name)]

    def build(self, name: str, where: str | None = None, /, **kwargs: Any) -> T:
        """Call ``name``'s factory with ``kwargs``, checked against its signature.

        Each argument is read by the type its parameter declares
        (:mod:`repro.typed`), so one of another kind raises ``error``
        naming it as ``<where>.<argument>`` (``where`` defaults to
        ``<noun> 'name'``).
        """
        factory = self.lookup(name)
        key = self._fold(name)
        signature = self._signatures.get(key)
        if signature is None:
            signature = self._signatures[key] = _signature(factory)
        try:
            signature.bind(**kwargs)
        except TypeError as error:
            raise self.error(f"{where or self._label(name)}: {error}") from None
        for argument, value in kwargs.items():
            parameter = signature.parameters.get(argument)
            kind = Any if parameter is None else parameter.annotation
            if kind is not inspect.Parameter.empty and not isinstance(kind, str):
                place = f"{where or self._label(name)}.{argument}"
                kwargs[argument] = read_value(kind, value, place, self.error)
        return factory(**kwargs)

    def _label(self, name: str) -> str:
        """How errors name ``name``'s component: ``<noun> 'name'``."""
        return f"{self.noun} {name!r}"

    def register(self, name: str, factory: Callable[..., T]) -> None:
        """Add ``factory`` under ``name``.

        The key becomes valid everywhere this kind is chosen by key: the
        domain's accessors, scenario specs and CLI flags.
        """
        if self.frozen:
            raise self.error(f"{self.noun} keys are fixed and cannot be extended")
        if not isinstance(name, str) or not name:
            raise self.error(
                f"{self.noun} name must be a non-empty string, got {name!r}"
            )
        if name in self:
            raise self.error(f"{self._label(name)} is already registered")
        self._entries[self._fold(name)] = factory


def _signature(factory: Callable[..., Any]) -> inspect.Signature:
    """``factory``'s signature with its annotations evaluated; one that names
    a type-checking-only import stays a string, which reads as ``Any``."""
    try:
        return inspect.signature(factory, eval_str=True)
    except NameError:
        return inspect.signature(factory)
