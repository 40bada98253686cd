"""Event engine, timeline helpers, and dimension-channel mechanics."""

from __future__ import annotations

import pytest

from repro.collectives import PhaseOp
from repro.collectives.phases import Stage
from repro.core import get_policy
from repro.errors import SimulationError
from repro.sim import EventQueue, FusionConfig, Interval, merge_intervals, total_length
from repro.sim.engine import ordered_sum
from repro.sim.executor import DimensionChannel, OpState
from repro.sim.timeline import OpRecord, render_gantt
from repro.topology import dimension


class TestEventQueue:
    def test_events_fire_in_time_order(self):
        engine = EventQueue()
        fired = []
        engine.schedule(2.0, lambda: fired.append("b"))
        engine.schedule(1.0, lambda: fired.append("a"))
        engine.schedule(3.0, lambda: fired.append("c"))
        engine.run()
        assert fired == ["a", "b", "c"]
        assert engine.now == 3.0

    def test_ties_fire_in_scheduling_order(self):
        engine = EventQueue()
        fired = []
        for label in "abc":
            engine.schedule(1.0, lambda label=label: fired.append(label))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_callbacks_can_schedule_more(self):
        engine = EventQueue()
        fired = []

        def first():
            fired.append(1)
            engine.schedule_after(1.0, lambda: fired.append(2))

        engine.schedule(0.0, first)
        engine.run()
        assert fired == [1, 2]
        assert engine.now == 1.0

    def test_cannot_schedule_in_past(self):
        engine = EventQueue(start_time=5.0)
        with pytest.raises(SimulationError):
            engine.schedule(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        engine = EventQueue()
        with pytest.raises(SimulationError):
            engine.schedule_after(-1.0, lambda: None)

    def test_event_budget(self):
        engine = EventQueue()

        def rearm():
            engine.schedule_after(1.0, rearm)

        engine.schedule(0.0, rearm)
        with pytest.raises(SimulationError):
            engine.run(max_events=100)

    def test_budget_exact_finish_is_not_an_error(self):
        """A simulation that finishes in exactly ``max_events`` events
        completes normally — the budget only trips with work pending."""
        engine = EventQueue()
        fired = []
        for t in (1.0, 2.0, 3.0):
            engine.schedule(t, lambda t=t: fired.append(t))
        engine.run(max_events=3)
        assert fired == [1.0, 2.0, 3.0]
        assert engine.pending == 0

    def test_budget_with_pending_events_raises(self):
        engine = EventQueue()
        for t in (1.0, 2.0, 3.0):
            engine.schedule(t, lambda: None)
        with pytest.raises(SimulationError, match="pending"):
            engine.run(max_events=2)

    def test_run_until_includes_boundary_events(self):
        """``run_until(t)`` fires events scheduled exactly at ``t``."""
        engine = EventQueue()
        fired = []
        engine.schedule(2.0, lambda: fired.append("boundary"))
        engine.schedule(3.0, lambda: fired.append("later"))
        engine.run_until(2.0)
        assert fired == ["boundary"]
        assert engine.now == 2.0

    def test_run_until(self):
        engine = EventQueue()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(5.0, lambda: fired.append(5))
        engine.run_until(2.0)
        assert fired == [1]
        assert engine.now == 2.0
        engine.run()
        assert fired == [1, 5]

    def test_step_returns_false_when_empty(self):
        assert EventQueue().step() is False

    def test_counters(self):
        engine = EventQueue()
        engine.schedule(1.0, lambda: None)
        assert engine.pending == 1
        engine.run()
        assert engine.events_processed == 1
        assert engine.pending == 0


class TestPastTimeTolerance:
    """The past-time guard must be relative: at large ``now`` an absolute
    1e-15 epsilon is far below one ulp, so ordinary float round-off in
    long steady-state cluster runs would be rejected as 'in the past'."""

    def test_float_roundoff_at_large_time_is_accepted(self):
        engine = EventQueue(start_time=1e7)
        fired = []
        # One ulp below now — representable, and exactly the kind of value
        # `now + a - a` round-off produces.  The seed's absolute epsilon
        # (1e-15) rejected this.
        engine.schedule(1e7 - 2e-9, lambda: fired.append(True))
        engine.run()
        assert fired == [True]
        assert engine.now == 1e7  # clamped: time never runs backwards

    def test_genuinely_past_time_still_rejected(self):
        engine = EventQueue(start_time=1e7)
        with pytest.raises(SimulationError, match="before current time"):
            engine.schedule(1e7 - 1.0, lambda: None)

    def test_small_time_tolerance_unchanged(self):
        engine = EventQueue()
        with pytest.raises(SimulationError):
            engine.schedule(-1e-6, lambda: None)

    def test_within_tolerance_clamps_not_reverses(self):
        engine = EventQueue(start_time=5.0)
        times = []
        engine.schedule(5.0 - 1e-13, lambda: times.append(engine.now))
        engine.run()
        assert times == [5.0]

    def test_nan_time_is_rejected(self):
        """NaN compares false both ways, so accepted it would fire between
        1.0 and 2.0 and set ``now`` to NaN for one event."""
        engine = EventQueue()
        engine.schedule(2.0, lambda: None)
        with pytest.raises(SimulationError):
            engine.schedule(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            engine.schedule_after(float("nan"), lambda: None)
        engine.schedule(1.0, lambda: None)
        times = []
        while engine.step():
            times.append(engine.now)
        assert times == [1.0, 2.0]


class TestCancellation:
    def test_done_handle_drops_its_callback(self):
        engine = EventQueue()
        fired = engine.schedule(1.0, lambda: None)
        cancelled = engine.schedule(2.0, lambda: None)
        cancelled.cancel()
        assert cancelled.callback is None
        assert fired.callback is not None
        engine.run()
        assert fired.callback is None and fired.fired

    def test_cancelled_event_does_not_fire(self):
        engine = EventQueue()
        fired = []
        engine.schedule(1.0, lambda: fired.append("a"))
        handle = engine.schedule(2.0, lambda: fired.append("b"))
        engine.schedule(3.0, lambda: fired.append("c"))
        assert handle.cancel() is True
        engine.run()
        assert fired == ["a", "c"]
        assert engine.cancelled_events == 1

    def test_pending_excludes_cancelled(self):
        engine = EventQueue()
        handles = [engine.schedule(float(t), lambda: None) for t in range(1, 6)]
        for handle in handles[:3]:
            handle.cancel()
        assert engine.pending == 2

    def test_cancel_is_idempotent_and_false_after_fire(self):
        engine = EventQueue()
        handle = engine.schedule(1.0, lambda: None)
        assert handle.cancel() is True
        assert handle.cancel() is False
        fired_handle = engine.schedule(2.0, lambda: None)
        engine.run()
        assert fired_handle.fired
        assert fired_handle.cancel() is False

    def test_budget_ignores_cancelled_events(self):
        """A budget-exact finish with cancelled stragglers is not an error."""
        engine = EventQueue()
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        for t in (3.0, 4.0, 5.0):
            engine.schedule(t, lambda: None).cancel()
        engine.run(max_events=2)
        assert engine.pending == 0

    def test_run_until_skips_cancelled_boundary_event(self):
        engine = EventQueue()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1)).cancel()
        engine.schedule(5.0, lambda: fired.append(5))
        engine.run_until(2.0)
        assert fired == []
        assert engine.now == 2.0
        engine.run()
        assert fired == [5]


class TestCompaction:
    def test_heap_compacts_when_mostly_dead(self):
        engine = EventQueue(compaction_min_dead=64)
        handles = [
            engine.schedule(float(t), lambda: None) for t in range(1, 201)
        ]
        for handle in handles[:150]:
            handle.cancel()
        # >=64 dead and dead/total >= 1/2: the sweep must have fired, so the
        # physical heap is strictly smaller than the 200 events scheduled.
        assert engine.compactions >= 1
        assert engine.heap_size < 200
        assert engine.pending == 50
        engine.run()
        assert engine.events_processed == 50

    def test_no_compaction_below_min_dead(self):
        engine = EventQueue(compaction_min_dead=64)
        handles = [engine.schedule(float(t), lambda: None) for t in range(1, 11)]
        for handle in handles:
            handle.cancel()
        assert engine.compactions == 0
        assert engine.pending == 0

    def test_peak_pending_tracks_live_events_only(self):
        engine = EventQueue(compaction_min_dead=1000)
        for t in range(1, 11):
            engine.schedule(float(t), lambda: None)
        assert engine.peak_pending == 10
        engine.run()
        assert engine.peak_pending == 10


class TestOrderedSum:
    def test_rounds_after_every_addition(self):
        # A compensated sum (the builtin's since Python 3.12) would cancel
        # this round-off and return exactly 1.0.
        assert ordered_sum([0.1] * 10) == 0.9999999999999999

    def test_empty_sum_is_integer_zero_like_the_builtin(self):
        total = ordered_sum([])
        assert total == 0 and type(total) is int


class TestIntervals:
    def test_merge_overlapping(self):
        merged = merge_intervals(
            [Interval(0, 2), Interval(1, 3), Interval(5, 6)]
        )
        assert merged == [Interval(0, 3), Interval(5, 6)]

    def test_merge_adjacent(self):
        merged = merge_intervals([Interval(0, 1), Interval(1, 2)])
        assert merged == [Interval(0, 2)]

    def test_merge_empty(self):
        assert merge_intervals([]) == []

    def test_total_length_deduplicates(self):
        assert total_length([Interval(0, 2), Interval(1, 3)]) == pytest.approx(3.0)

    def test_interval_length(self):
        assert Interval(1.0, 3.5).length == pytest.approx(2.5)


def _record(dim, chunk, stage, start, end, op=PhaseOp.RS, size=1.0):
    return OpRecord(
        collective_seq=0,
        chunk_id=chunk,
        stage_index=stage,
        dim_index=dim,
        op=op,
        stage_size=size,
        bytes_sent=size,
        transfer_time=end - start,
        fixed_time=0.0,
        ready_time=start,
        start_time=start,
        end_time=end,
    )


class TestOpRecord:
    def test_duration_and_queueing(self):
        record = OpRecord(
            collective_seq=0,
            chunk_id=1,
            stage_index=2,
            dim_index=0,
            op=PhaseOp.AG,
            stage_size=8.0,
            bytes_sent=6.0,
            transfer_time=1.0,
            fixed_time=0.5,
            ready_time=1.0,
            start_time=2.0,
            end_time=3.5,
        )
        assert record.duration == pytest.approx(1.5)
        assert record.queueing_delay == pytest.approx(1.0)
        assert record.label() == "AG C2.3"

    def test_field_order(self):
        """A record is a tuple: its fields keep their order, and
        ``OpState.to_record`` fills each one positionally."""
        assert OpRecord._fields == (
            "collective_seq",
            "chunk_id",
            "stage_index",
            "dim_index",
            "op",
            "stage_size",
            "bytes_sent",
            "transfer_time",
            "fixed_time",
            "ready_time",
            "start_time",
            "end_time",
        )
        stage = Stage(dim_index=0, op=PhaseOp.AG, stage_size=8.0)
        op = OpState(7, 1, 2, stage, 3, 6.0, 1.0, 0.5)
        op.ready_time, op.start_time, op.end_time = 1.0, 2.0, 3.5
        record = op.to_record()
        assert record == (7, 1, 2, 3, PhaseOp.AG, 8.0, 6.0, 1.0, 0.5, 1.0, 2.0, 3.5)
        assert record.dim_index == 3 and record.stage_size == 8.0
        assert record.duration == 1.5 and record.queueing_delay == 1.0
        assert record.label() == "AG C2.3"

    def test_immutable(self):
        record = _record(0, 0, 0, 1.0, 2.0)
        with pytest.raises(AttributeError):
            record.start_time = 0.0
        moved = record._replace(start_time=0.5)
        assert (moved.start_time, record.start_time) == (0.5, 1.0)
        assert moved.duration == 1.5
        assert record._asdict()["end_time"] == 2.0


class TestGantt:
    def test_render_contains_labels(self):
        records = [
            _record(0, 0, 0, 0.0, 1.0),
            _record(1, 0, 1, 1.0, 2.0),
        ]
        art = render_gantt(records, ndims=2, width=40)
        assert "dim1" in art and "dim2" in art
        assert "C1.1" in art

    def test_render_empty(self):
        assert "empty" in render_gantt([], ndims=2)

    def test_render_scales_to_width(self):
        records = [_record(0, 0, 0, 0.0, 10.0)]
        art = render_gantt(records, ndims=1, width=30)
        line = next(l for l in art.splitlines() if l.startswith("dim1"))
        assert len(line) <= len("dim1: ") + 30 + 1


class TestSerialWireActivity:
    """A serial wire opens its activity interval where it gets work (an
    enqueue, a segment start) and closes it where a release leaves none."""

    @staticmethod
    def _channel() -> DimensionChannel:
        return DimensionChannel(
            0,
            dimension("sw", 4, 400.0, latency_ns=100),
            get_policy("fifo"),
            FusionConfig(enabled=False),
            EventQueue(),
            on_batch_done=lambda channel, batch: None,
        )

    @staticmethod
    def _op(chunk: int) -> OpState:
        stage = Stage(dim_index=0, op=PhaseOp.RS, stage_size=1.0)
        # Transfer 1.0 s on the wire, then a 0.5 s fixed-latency shadow.
        return OpState(0, chunk, 0, stage, 0, 1.0, 1.0, 0.5)

    def test_release_with_empty_queue_closes_the_interval(self):
        """The first op's wire releases at 1.0 with nothing queued, which
        closes its interval there; an op enqueued at that same instant
        opens a new one."""
        channel = self._channel()
        engine = channel.engine
        channel.enqueue(self._op(0))
        engine.schedule(1.0, lambda: channel.enqueue(self._op(1)))
        engine.run()
        assert channel.stats.activity_intervals == [
            Interval(0.0, 1.0),
            Interval(1.0, 2.0),
        ]
        assert channel.snapshot_activity() == channel.stats.activity_intervals
        assert channel.stats.batch_count == 2

    def test_release_with_queued_work_keeps_the_interval_open(self):
        """An op enqueued while the wire is busy starts at the release,
        and the interval runs on until the wire empties."""
        channel = self._channel()
        engine = channel.engine
        channel.enqueue(self._op(0))
        engine.schedule(0.5, lambda: channel.enqueue(self._op(1)))
        engine.run()
        assert channel.stats.activity_intervals == [Interval(0.0, 2.0)]
