"""Span tracer for the benchmark's traced run.

The traced run wraps the public entry points of each simulator layer from
the outside (see :data:`TARGETS`), so the program itself carries no
instrumentation.  Two kinds of records are kept in memory:

* **spans** -- one per call of a coarse boundary (``api.run``,
  ``ClusterSimulator.run``, ``CollectiveScheduler.plan``, ...): name,
  start, end, parent span, run id and self time;
* **leaf aggregates** -- hot leaves (engine heap calls, ``LatencyModel``
  queries, channel enqueue/selection, ...) fire hundreds of thousands of
  times per run, so they are folded per (parent span, name) into a call
  count plus summed self time, which keeps memory bounded.

Self time is a frame's duration minus the time its wrapped children cover.
Event callbacks are wrapped at ``EventQueue.schedule`` time as the
``engine.callback`` leaf: its self time is host time inside callbacks that
no wrapped call covers (op materialization, flow re-arming, job steps).

Wrapping never changes what the simulation computes: wrappers call the
original with the same arguments and return its result unchanged.
:func:`installed` restores every original attribute on exit.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from typing import Any

#: ``(module, class, {attribute: record name})``.  The layer of a record is
#: its name up to the first dot.  A ``None`` class names module-level
#: functions, patched wherever the package re-exports them.
TARGETS: tuple[tuple[str, str | None, dict[str, str]], ...] = (
    (
        "repro.sim.engine",
        "EventQueue",
        {
            "__init__": "engine.init",
            "schedule": "engine.schedule",
            "cancel": "engine.cancel",
            "step": "engine.step",
            "run": "engine.run",
            "run_until": "engine.run_until",
        },
    ),
    (
        "repro.sim.executor",
        "DimensionChannel",
        {
            "__init__": "channel.init",
            "enqueue": "channel.enqueue",
            "try_start": "channel.try_start",
        },
    ),
    ("repro.core.policies", "IntraDimPolicy", {"select_from": "channel.select"}),
    ("repro.core.scheduler", "CollectiveScheduler", {"plan": "plan"}),
    (
        "repro.core.latency_model",
        "LatencyModel",
        {
            name: f"latency.{name}"
            for name in (
                "bytes_per_npu",
                "chunk_load",
                "fixed_latency",
                "op_time",
                "collective_fixed_latency",
                "stage_loads",
                "single_phase_ops",
            )
        },
    ),
    (
        "repro.sim.network",
        "NetworkSimulator",
        {
            "submit": "network.submit",
            "run": "network.run",
            "set_tenant_weights": "network.reweight",
        },
    ),
    (
        "repro.cluster.simulator",
        "ClusterSimulator",
        {"run": "cluster.run", "isolated_time": "cluster.isolated_time"},
    ),
    ("repro.training.iteration", "TrainingSimulator", {"run": "training.run"}),
    ("repro.api.runner", None, {"run": "api.run", "sweep": "api.sweep"}),
    *(
        ("repro.api.spec", name, {"__post_init__": "api.validate"})
        for name in (
            "CollectiveScenario",
            "TrainingScenario",
            "ClusterScenario",
            "OpenLoopTrace",
            "ScenarioJob",
        )
    ),
)

#: Private cluster-driver callbacks (arrival, admission, departure).  They
#: hold the ``cluster.self_s`` work done inside event callbacks; wrapped
#: when present and skipped if a refactor renames them.
OPTIONAL_TARGETS: tuple[tuple[str, str | None, dict[str, str]], ...] = (
    (
        "repro.cluster.simulator",
        "ClusterSimulator",
        {
            "_on_arrival": "cluster.arrival",
            "_admit": "cluster.admit",
            "_on_finish": "cluster.finish",
        },
    ),
)

#: Records kept as one span per call; every other record is a leaf.
SPANS = frozenset(
    {
        "plan",
        "network.submit",
        "network.run",
        "cluster.run",
        "cluster.isolated_time",
        "training.run",
        "api.run",
        "api.sweep",
    }
)

#: The span of an isolated-JCT baseline (a solo cluster run).
SOLO = "cluster.isolated_time"

#: Packages that may re-export a patched module-level function.
_REEXPORTS = ("repro.api", "repro")


@dataclass(frozen=True)
class Span:
    """One recorded call of a coarse boundary."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    self_s: float


class Tracer:
    """In-memory span and leaf-aggregate recorder.

    ``clock`` is injectable so the self-time arithmetic can be checked on a
    hand-built call tree.
    """

    def __init__(
        self, run_id: str, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        #: ``(parent span id, name) -> [calls, self seconds]``.
        self.leaves: dict[tuple[int | None, str], list] = {}
        #: Counts read from call results (effective cancels, cluster jobs),
        #: outside isolated-JCT baseline runs.
        self.counters: Counter[str] = Counter()
        #: ``(solo, object)`` for engines and channel statistics created
        #: while tracing (``solo``: inside an isolated-JCT baseline run);
        #: their public counters are read after the run.
        self.engines: list[tuple[bool, Any]] = []
        self.channel_stats: list[tuple[bool, Any]] = []
        self._open: list[tuple[int | None, str]] = [(None, "")]
        self._covered: list[float] = [0.0]
        self._next_id = 0

    @property
    def solo(self) -> bool:
        """Whether an isolated-JCT baseline run is in progress."""
        return any(name == SOLO for _, name in self._open)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span (the benchmark's phases)."""
        span_id, start = self.begin_span(name)
        try:
            yield
        finally:
            self.end_span(span_id, name, start)

    def begin(self) -> float:
        """Open a frame; returns its start time."""
        self._covered.append(0.0)
        return self.clock()

    def _close(self, start: float) -> tuple[float, float]:
        """Close the innermost frame; returns ``(end, self time)``."""
        end = self.clock()
        duration = end - start
        covered = self._covered.pop()
        self._covered[-1] += duration
        return end, duration - covered

    def end_leaf(self, name: str, start: float) -> None:
        """Close a leaf frame, folding it into its parent span's aggregate."""
        _, self_s = self._close(start)
        key = (self._open[-1][0], name)
        slot = self.leaves.get(key)
        if slot is None:
            self.leaves[key] = [1, self_s]
        else:
            slot[0] += 1
            slot[1] += self_s

    def begin_span(self, name: str) -> tuple[int, float]:
        """Open a span frame; returns ``(span id, start)``."""
        span_id = self._next_id
        self._next_id += 1
        self._open.append((span_id, name))
        return span_id, self.begin()

    def end_span(self, span_id: int, name: str, start: float) -> None:
        end, self_s = self._close(start)
        self._open.pop()
        self.spans.append(
            Span(span_id, name, start, end, self._open[-1][0], self.run_id, self_s)
        )

    # --- summaries ----------------------------------------------------------
    def totals(self, phase: str | None = None) -> tuple[Counter[str], Counter[str]]:
        """``(calls, self seconds)`` per record name.

        With ``phase``, only records under the top-level span of that name.
        """
        top: dict[int | None, str] = {None: ""}
        for span in sorted(self.spans, key=lambda span: span.span_id):
            top[span.span_id] = top[span.parent] or span.name
        calls: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        for span in self.spans:
            if phase is None or top[span.span_id] == phase:
                calls[span.name] += 1
                self_s[span.name] += span.self_s
        for (parent, name), (count, seconds) in self.leaves.items():
            if phase is None or top[parent] == phase:
                calls[name] += count
                self_s[name] += seconds
        return calls, self_s

    def write(self, path: Path) -> None:
        """Write spans (Chrome trace-event JSON) and leaf aggregates."""
        origin = min((span.start for span in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {
                    "id": span.span_id,
                    "parent": span.parent,
                    "run": span.run_id,
                    "self_us": span.self_s * 1e6,
                },
            }
            for span in self.spans
        ]
        aggregates = [
            {"parent": parent, "name": name, "calls": count, "self_s": self_s}
            for (parent, name), (count, self_s) in self.leaves.items()
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "leafAggregates": aggregates})
        )


# --- wrappers ---------------------------------------------------------------
def _leaf(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        start = tracer.begin()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end_leaf(name, start)

    return wrapper


def _span(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _schedule(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """``EventQueue.schedule``: time the push and wrap the callback."""

    def traced(callback: Callable[[], None]) -> Callable[[], None]:
        def fire() -> None:
            start = tracer.begin()
            try:
                callback()
            finally:
                tracer.end_leaf("engine.callback", start)

        return fire

    @functools.wraps(fn)
    def wrapper(self: Any, time: float, callback: Callable[[], None]) -> Any:
        start = tracer.begin()
        try:
            return fn(self, time, traced(callback))
        finally:
            tracer.end_leaf(name, start)

    return wrapper


def _noting(
    wrap: Callable[[Tracer, str, Callable], Callable],
    note: Callable[[Tracer, Any, Any], None],
) -> Callable[[Tracer, str, Callable], Callable]:
    """A wrapper factory that also hands ``(self, result)`` to ``note``."""

    def factory(tracer: Tracer, name: str, fn: Callable) -> Callable:
        timed = wrap(tracer, name, fn)

        @functools.wraps(fn)
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            result = timed(self, *args, **kwargs)
            note(tracer, self, result)
            return result

        return wrapper

    return factory


def _note_engine(tracer: Tracer, engine: Any, _result: None) -> None:
    tracer.engines.append((tracer.solo, engine))


def _note_channel(tracer: Tracer, channel: Any, _result: None) -> None:
    tracer.channel_stats.append((tracer.solo, channel.stats))


def _note_cancel(tracer: Tracer, _queue: Any, cancelled: bool) -> None:
    if cancelled and not tracer.solo:
        tracer.counters["engine.cancels"] += 1


def _note_cluster_run(tracer: Tracer, sim: Any, _report: Any) -> None:
    if not tracer.solo:
        tracer.counters["cluster.jobs"] += len(sim.jobs)


_FACTORIES: dict[str, Callable[[Tracer, str, Callable], Callable]] = {
    "engine.init": _noting(_leaf, _note_engine),
    "engine.schedule": _schedule,
    "engine.cancel": _noting(_leaf, _note_cancel),
    "channel.init": _noting(_leaf, _note_channel),
    "cluster.run": _noting(_span, _note_cluster_run),
}


def _attributes() -> Iterator[tuple[Any, str, str, bool]]:
    """``(owner, attribute, record name, required)`` for every target.

    A module-level function is also listed on each package re-exporting it.
    """
    for targets, required in ((TARGETS, True), (OPTIONAL_TARGETS, False)):
        for module_name, class_name, attrs in targets:
            module = import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            for attr, name in attrs.items():
                yield owner, attr, name, required
                if class_name is None:
                    for package in map(import_module, _REEXPORTS):
                        if getattr(package, attr, None) is getattr(module, attr):
                            yield package, attr, name, required


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every target for the duration of the block, then restore."""
    restore: list[tuple[Any, str, Any]] = []
    wrappers: dict[int, Callable] = {}
    try:
        # Listed before patching: the re-export check compares identities.
        for owner, attr, name, required in list(_attributes()):
            original = owner.__dict__.get(attr)
            if original is None:
                if required:
                    raise AttributeError(f"trace target {owner.__name__}.{attr}")
                continue
            if id(original) not in wrappers:
                factory = _FACTORIES.get(name, _span if name in SPANS else _leaf)
                wrappers[id(original)] = factory(tracer, name, original)
            restore.append((owner, attr, original))
            setattr(owner, attr, wrappers[id(original)])
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def current_callables() -> dict[tuple[str, str], Any]:
    """The attribute currently behind every target (for restore checks)."""
    return {
        (owner.__name__, attr): owner.__dict__.get(attr)
        for owner, attr, _, _ in _attributes()
    }


def layer_metrics(tracer: Tracer, phase: str) -> dict[str, float]:
    """Per-layer counts and self times of one traced run.

    Calls and self times are counted under the ``phase`` span only (the
    timed call), except the set-up layers (``api.validate_s``,
    ``cluster.isolated_s``), which count every phase.  Engine, channel and
    result counts leave out isolated-JCT baseline runs; the FTF cluster
    itself is built during set-up.  ``engine.events_per_s`` and
    ``trace.overhead_s`` need the untraced wall time and are added by the
    caller.
    """
    calls, self_s = tracer.totals(phase)
    _, all_self_s = tracer.totals()

    def layer(table: Counter[str], prefix: str, skip: str = "") -> float:
        return sum(
            value
            for name, value in table.items()
            if name.split(".")[0] == prefix and name != skip
        )

    engines = [engine for solo, engine in tracer.engines if not solo]
    channels = [stats for solo, stats in tracer.channel_stats if not solo]
    submits = calls["network.submit"]
    plans = calls["plan"]
    queries = layer(calls, "latency")
    batches = sum(stats.batch_count for stats in channels)
    ops = sum(stats.op_count for stats in channels)
    isolated = sum(span.end - span.start for span in tracer.spans if span.name == SOLO)
    return {
        "engine.events": calls["engine.callback"],
        "engine.schedules": calls["engine.schedule"],
        "engine.cancels": tracer.counters["engine.cancels"],
        "engine.compactions": sum(engine.compactions for engine in engines),
        "engine.peak_pending": max(
            (engine.peak_pending for engine in engines), default=0
        ),
        "engine.self_s": layer(self_s, "engine", skip="engine.callback"),
        "engine.unattributed_s": self_s["engine.callback"],
        "channel.enqueues": calls["channel.enqueue"],
        "channel.batches": batches,
        "channel.ops_per_batch": ops / batches if batches else 0.0,
        "channel.self_s": layer(self_s, "channel"),
        "plan.calls": plans,
        "plan.hit_ratio": 1.0 - plans / submits if submits else 0.0,
        "plan.self_s": self_s["plan"],
        "latency.queries": queries,
        "latency.per_collective": queries / submits if submits else 0.0,
        "latency.self_s": layer(self_s, "latency"),
        "network.submits": submits,
        "network.reweights": calls["network.reweight"],
        "cluster.jobs": tracer.counters["cluster.jobs"],
        "cluster.self_s": layer(self_s, "cluster"),
        "cluster.isolated_s": isolated,
        "training.self_s": self_s["training.run"],
        "api.validate_s": all_self_s["api.validate"],
        "api.self_s": self_s["api.run"] + self_s["api.sweep"],
    }
