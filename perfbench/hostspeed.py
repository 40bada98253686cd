"""Host-speed correction for the benchmark's timings.

The benchmark runs on shared hosts whose cores change speed by up to ~2x
within seconds as other tenants load them, so raw host times of the same
code spread by 25-30% between runs.  A ``SpeedMeter`` runs a fixed
pure-Python probe every ``INTERVAL_S`` from a ``SIGALRM`` handler, in the
benchmark's one thread, and rescales each stretch of work between two
probes by how long the probes around it took.  A corrected timing reads as
seconds on a core where the probe takes ``REFERENCE_PROBE_S``, and leaves
the probes out.  Work slower for any other reason (more events, slower
code) stays slower by the same factor.

On the tuning host this cut the spread of repeated timed calls (standard
deviation over mean) from 12-15% to 1-2.5% on every workload.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left
from types import FrameType, TracebackType

#: Seconds between two probes while a meter runs (the probes cost ~2%).
INTERVAL_S = 0.025
#: Loop iterations of one probe: ~0.3 ms on an uncontended core.
PROBE_ITERATIONS = 1500
#: The probe's time on an uncontended core of the 2.1 GHz Xeon the bounds
#: in BENCHMARK.json were set on; corrected timings are seconds at that speed.
REFERENCE_PROBE_S = 300e-6
#: How much more than the probe the simulator's code slows when the host
#: does: a stretch is scaled by ``(REFERENCE_PROBE_S / probe_s) ** SENSITIVITY``.
#: Fitted on the three workloads, where 1.15 left the least spread (1.0 and
#: 1.3 left about 1.5x as much).
SENSITIVITY = 1.15
#: Probes on each side of a stretch whose median duration sets its speed.
WINDOW = 2
#: Back-to-back probes of one ``sample()``.
SAMPLE_PROBES = 16

_TABLE = list(range(256))
_COUNTS = [0] * 256


def probe() -> int:
    """Fixed interpreter work: list indexing, stores and int arithmetic.

    It allocates no container, so it never starts a garbage collection.
    """
    table, counts, acc = _TABLE, _COUNTS, 0
    for i in range(PROBE_ITERATIONS):
        j = (i * 37) & 255
        acc += table[j]
        counts[j] = (counts[j] + acc) & 1023
        acc = abs(acc - j) % 1000003
    return acc


def timed_probe() -> tuple[float, float]:
    start = time.perf_counter()
    probe()
    return start, time.perf_counter()


def sample() -> float:
    """Median duration of ``SAMPLE_PROBES`` probes run back to back."""
    durations = []
    for _ in range(SAMPLE_PROBES):
        start, end = timed_probe()
        durations.append(end - start)
    return statistics.median(durations)


def corrected(raw_s: float, probe_s: float) -> float:
    """``raw_s`` of work done while the probe took ``probe_s``, at reference speed."""
    return raw_s * (REFERENCE_PROBE_S / probe_s) ** SENSITIVITY


class SpeedMeter:
    """Probes the host's speed while the work in its ``with`` block runs."""

    def __init__(self) -> None:
        #: ``(start, end)`` clock readings of every probe, in order.
        self.probes: list[tuple[float, float]] = []
        self._previous: object = None

    def _on_alarm(self, _signum: int, _frame: FrameType | None) -> None:
        self.probes.append(timed_probe())

    def __enter__(self) -> SpeedMeter:
        # One probe up front, so every later interval has a probe before it.
        self.probes.append(timed_probe())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(
        self,
        _type: type[BaseException] | None,
        _value: BaseException | None,
        _traceback: TracebackType | None,
    ) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, start: float, end: float) -> tuple[float, float]:
        """``(raw, corrected)`` seconds of work between two clock readings.

        Both leave out the probes that ran in between.  Each stretch between
        two probes is corrected by the median duration of the ``WINDOW``
        probes on either side of its end.
        """
        starts = [begin for begin, _ in self.probes]
        durations = [stop - begin for begin, stop in self.probes]
        first, last = bisect_left(starts, start), bisect_left(starts, end)
        raw = total = 0.0
        edge = start
        for k in range(first, last + 1):
            stop = starts[k] if k < last else end
            window = durations[max(0, k - WINDOW) : k + WINDOW + 1]
            raw += stop - edge
            total += corrected(stop - edge, statistics.median(window))
            if k < last:
                edge = self.probes[k][1]
        return raw, total
