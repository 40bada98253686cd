"""The shared wire's GPS virtual clock against per-flow banking.

A bare shared :class:`~repro.sim.executor.DimensionChannel` runs random
flows through mid-run reweights, capacity changes down to a failed link
and back, and two priority classes under strict-priority sharing.  Weight
ratios reach the ``_MIN_WEIGHT`` clamp (1e9).  The oracle below is the
algorithm the clock replaced: on every change it banks each in-flight
flow's progress at its old rate and re-splits the wire by weight.  Every
op's ``end_time`` must agree to 1e-9 relative, and the preemption count
exactly: parking a priority class counts each of its flows that drained
for a positive time since the class last ran.

Each op has its own tenant, so every op is a flow from the moment the
wire can take it (on a failed link it waits for the restore).  Inputs
where an arrival, reweight or capacity change falls within round-off of
a flow's finish are discarded: which of the two comes first is decided
by the last bit, in the channel and in the oracle alike.  So are inputs
where a flow is still live at such a change with its banked remaining
work within round-off of zero: the oracle may record that finish much
later, when a tiny weight drains the residue.
"""

from __future__ import annotations

import math

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.collectives.phases import Stage
from repro.collectives.types import PhaseOp
from repro.core.policies import get_policy
from repro.sim import EventQueue
from repro.sim.executor import DimensionChannel, FusionConfig, OpState
from repro.topology import dimension

RTOL = 1e-9
#: Banked remaining work at most this fraction of a flow's transfer is
#: within round-off of zero.
RESIDUE = 1e-12
#: Every capacity change is followed by a final restore at this time.
RESTORE = 3.0

#: Share weights across the ``_MIN_WEIGHT`` clamp's 1e9 range.
weights = st.floats(1e-9, 1.0) | st.integers(-9, 0).map(lambda e: 10.0**e)
#: ``(start time, transfer, fixed latency, priority, weight)``
flows = st.lists(
    st.tuples(
        st.floats(0.0, 2.0),
        st.floats(1e-3, 1.0),
        st.floats(0.0, 1e-2),
        st.integers(0, 1),
        weights,
    ),
    min_size=1,
    max_size=6,
)


@st.composite
def scenarios(draw):
    specs = draw(flows)
    owners = st.sampled_from([f"t{i}" for i in range(len(specs))])
    reweights = draw(
        st.lists(
            st.tuples(st.floats(0.0, 2.0), st.dictionaries(owners, weights)),
            max_size=3,
        )
    )
    capacity = draw(
        st.lists(
            st.tuples(st.floats(0.0, 2.0), st.sampled_from([0.0, 0.25, 0.5, 1.0])),
            max_size=3,
        )
    )
    events = sorted(
        [(spec[0], "start", i) for i, spec in enumerate(specs)]
        + [(time, "weights", mapping) for time, mapping in reweights]
        + [(time, "capacity", factor) for time, factor in capacity]
        + [(RESTORE, "capacity", 1.0)],
        key=lambda event: event[0],
    )
    return specs, events, draw(st.booleans())


def run_channel(specs, events, priority_sharing):
    engine = EventQueue()
    channel = DimensionChannel(
        0,
        dimension("sw", 2, 100.0),
        get_policy("FIFO"),
        FusionConfig(enabled=False),
        engine,
        lambda channel, batch: None,
    )
    channel.set_share_weights({f"t{i}": spec[4] for i, spec in enumerate(specs)})
    if priority_sharing:
        channel.enable_priority_sharing()
    ops = [
        OpState(
            collective_seq=i,
            chunk_id=0,
            stage_index=0,
            stage=Stage(dim_index=0, op=PhaseOp.RS, stage_size=2),
            parent_dim=0,
            bytes_sent=1.0,
            transfer_time=transfer,
            fixed_time=fixed,
            priority=priority,
            owner=f"t{i}",
        )
        for i, (_, transfer, fixed, priority, _) in enumerate(specs)
    ]
    actions = {
        "start": lambda i: channel.enqueue(ops[i]),
        "weights": channel.set_share_weights,
        "capacity": channel.set_capacity_factor,
    }
    for time, kind, arg in events:
        engine.schedule(time, lambda kind=kind, arg=arg: actions[kind](arg))
    engine.run()
    return [op.end_time for op in ops], channel.preemption_count


def banking_oracle(specs, events, priority_sharing):
    """End times and preemption count by per-flow banking, and whether an
    event ties a finish within round-off (see the module docstring)."""
    weights = {f"t{i}": spec[4] for i, spec in enumerate(specs)}
    live: dict[int, list] = {}  # op -> [remaining, priority, drained]
    waiting, pending, tied = [], list(events), False
    ends, capacity, now, preemptions = [math.nan] * len(specs), 1.0, 0.0, 0
    while live or pending:
        top = max((flow[1] for flow in live.values()), default=0)
        rate = {}
        for i, flow in live.items():
            if not priority_sharing or flow[1] == top:
                rate[i] = max(weights.get(f"t{i}", 1.0), 1e-9)
        total = sum(rate.values())
        rate = {i: capacity * weight / total for i, weight in rate.items()}
        finish, done = min(
            ((now + live[i][0] / r, i) for i, r in rate.items() if r > 0),
            default=(math.inf, -1),
        )
        at = pending[0][0] if pending else math.inf
        step = min(finish, at)
        for i, r in rate.items():
            if r > 0 and step > now:
                live[i][0] -= r * (step - now)
                live[i][2] = True
        now = step
        if finish < at:
            tied |= any(math.isclose(now, event[0], rel_tol=RTOL) for event in events)
            ends[done] = now + specs[done][2]
            del live[done]
            continue
        tied |= any(flow[0] <= RESIDUE * specs[i][1] for i, flow in live.items())
        _, kind, arg = pending.pop(0)
        if kind == "weights":
            weights = dict(arg)
        elif kind == "capacity":
            capacity = arg
        else:
            waiting.append(arg)
        for i in waiting if capacity > 0 else ():
            priority = specs[i][3]
            top = max((flow[1] for flow in live.values()), default=priority)
            if priority_sharing and priority > top:
                for flow in live.values():
                    if flow[1] == top:
                        preemptions += flow[2]
                        flow[2] = False
            live[i] = [specs[i][1], priority, False]
        waiting = waiting if capacity <= 0 else []
    return ends, preemptions, tied


#: Flow 0 (weight 1e-9) ends, in exact arithmetic, 2.8e-17 s after the
#: capacity drop at 0.6.  The residue drains at weight 1e-9 beside flow 2
#: after the restore, which stretches the last-bit tie to ~3e-8 s: the
#: exact end is 3.0000000278, the channel gives 3.0, the oracle 3.0000000555.
LAST_BIT_TIE = (
    [
        (0.0, 0.5, 0.0, 0, 1e-09),
        (0.0, 0.1, 0.0, 0, 0.5496569577358512),
        (1.0, 1.0, 0.0, 0, 1.0),
    ],
    [
        (0.0, "start", 0),
        (0.0, "start", 1),
        (0.6, "capacity", 0.0),
        (1.0, "start", 2),
        (RESTORE, "capacity", 1.0),
    ],
    False,
)


@settings(max_examples=300, deadline=None)
@given(scenarios())
@example(LAST_BIT_TIE)
# A tiny-weight flow alone runs the clock far ahead before a heavy flow
# with little work arrives: its tag needs the clock restarted at zero.
@example(
    (
        [(0.0, 1.0, 0.0, 0, 1e-9), (0.5, 1e-3, 0.0, 0, 1.0)],
        [(0.0, "start", 0), (0.5, "start", 1), (RESTORE, "capacity", 1.0)],
        False,
    )
)
# A higher class parks a drained flow and one that started at that instant.
@example(
    (
        [(0.0, 0.5, 0.0, 0, 1.0), (0.1, 0.3, 0.0, 0, 0.5), (0.1, 0.2, 0.0, 1, 1.0)],
        [
            (0.0, "start", 0),
            (0.1, "start", 1),
            (0.1, "start", 2),
            (0.15, "capacity", 0.0),
            (0.2, "weights", {"t1": 1e-9}),
            (0.25, "capacity", 0.5),
            (RESTORE, "capacity", 1.0),
        ],
        True,
    )
)
def test_clock_matches_per_flow_banking(scenario):
    specs, events, priority_sharing = scenario
    expected, preemptions, tied = banking_oracle(specs, events, priority_sharing)
    assume(not tied)
    ends, count = run_channel(specs, events, priority_sharing)
    for i, (end, want) in enumerate(zip(ends, expected)):
        assert math.isclose(end, want, rel_tol=RTOL), (i, end, want)
    assert count == preemptions


def test_tie_filter_rejects_a_residue_left_at_an_event():
    # Hypothesis skips an explicit example that fails ``assume`` without a
    # word, so check here that the filter discards the pinned tie.
    assert banking_oracle(*LAST_BIT_TIE)[2]
