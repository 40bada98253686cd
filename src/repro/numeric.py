"""Float totals that come out the same on every supported Python.

A leaf module: it imports nothing from the package, so every package,
``core`` and ``collectives`` included, can use it without an import cycle.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TypeVar

Number = TypeVar("Number", int, float)


def ordered_sum(values: Iterable[Number]) -> Number:
    """Left-to-right sum, rounded after every addition.

    Simulated times, byte counts and share weights are totalled with this
    instead of the builtin ``sum``, which compensates float round-off since
    Python 3.12: a total of three or more terms could then differ in its
    last bit between interpreters, and so would every timeline built on it.
    Starting from the integer ``0`` reproduces the builtin's result on
    Python 3.10 and 3.11 exactly, empty input included, and keeps a total
    of integers an integer.  Replint rule RPL009 points here.
    """
    total: Number = 0
    for value in values:
        total += value
    return total


def is_count(value: object) -> bool:
    """Whether ``value`` is a whole count of at least one.

    A count is an ``int`` and not a ``bool``: a fraction such as ``2.5``
    or ``inf`` would fail later, deep in a run, where a count is used to
    index, slice or stop a loop.
    """
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1
