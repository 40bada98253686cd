"""Exception hierarchy for the Themis reproduction library.

All library-raised exceptions derive from :class:`ReproError` so that callers
can catch everything coming out of this package with a single ``except``
clause while still being able to discriminate finer failure modes.
:func:`did_you_mean` is the suggestion every unknown-key error carries.
"""

from __future__ import annotations

import difflib


def did_you_mean(key: str, known: tuple[str, ...] | list[str]) -> str:
    """``" (did you mean 'x'?)"`` or ``""`` — shared by all key errors."""
    matches = difflib.get_close_matches(key, list(known), n=1, cutoff=0.5)
    return f" (did you mean {matches[0]!r}?)" if matches else ""


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied (sizes, BW, counts...)."""


class TopologyError(ConfigError):
    """A topology description is malformed or internally inconsistent."""


class CollectiveError(ReproError):
    """A collective request cannot be satisfied (bad type, size, or dims)."""


class ScheduleError(ReproError):
    """A chunk schedule is invalid (not a permutation, wrong ops, ...)."""


class SpecError(ConfigError):
    """A declarative scenario spec is malformed (unknown keys, bad schema)."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class EventBudgetError(SimulationError):
    """``run(max_events=N)`` fired its budget with live events still pending.

    Callers that want partial results instead of an error (the cluster
    simulator's truncated reports, spec sweeps) catch this specifically;
    everything else keeps treating it as the :class:`SimulationError` it is.
    """


class DeadlockError(SimulationError):
    """No runnable event remains while unfinished work is still pending."""


class WorkloadError(ConfigError):
    """A DNN workload description is malformed or unsupported."""
