"""The ready queue a dimension channel draws its batches from (hot path).

Keeping each dimension's ready ops in a flat list and re-scanning it —
``policy.select(list)`` plus ``list.remove`` per dequeued op — is O(n) per
decision and O(n · max_ops) per fused batch, which under many concurrent
tenants dominates the whole simulation.  :class:`ReadyQueue` indexes the
ops by policy instead, so every hot-path decision is O(log n):

* one lazy-deletion heap ordered by the policy's ``sort_key`` (FIFO's key
  is arrival order, SCF/LCF's their size order, so each policy's heap *is*
  its natural structure);
* one per-owner bucket heap for the weighted-sharing wire's per-tenant
  admission, with a heap of the idle owners' bucket heads on top.  The
  buckets are built from the live ops on the first owner query and the
  heads heap on the first idle-owner query, so a serial wire, which asks
  neither, builds neither;
* a parking map for ops blocked by an enforced per-collective order
  (Sec. 4.6.2) — a blocked op is unparked the moment it becomes its
  order's head, so eligibility never requires a scan.

The sort keys are total orders (they end in the unique ``(collective_seq,
chunk_id, stage_index)`` identity), so a heap minimum is exactly the op the
policy's linear ``IntraDimPolicy.select`` picks from the same set.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from collections.abc import Callable, Iterator
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..sim.executor import OpState

OpKey = tuple[int, int, int]


class _LazyHeap:
    """A min-heap of ``(key, op)`` with lazy deletion.

    Deletion marks the op (``op.queued = False``); dead entries are dropped
    when they surface at the top, and the whole heap is rebuilt in one O(n)
    sweep once dead entries outnumber live ones (ops taken through
    *another* index — e.g. an owner bucket — die buried, so top-pruning
    alone would let long steady-state runs accumulate them).
    :class:`ReadyQueue` pushes onto ``entries`` itself, and on the serial
    wire's path it reads and pops the global heap's top inline.
    """

    __slots__ = ("entries", "dead")

    _COMPACT_MIN_DEAD = 64

    def __init__(self) -> None:
        self.entries: list[tuple[tuple, "OpState"]] = []
        self.dead = 0

    def peek(self) -> "OpState | None":
        entries = self.entries
        while entries:
            op = entries[0][1]
            if op.queued:
                return op
            heapq.heappop(entries)
            self.dead -= 1
        return None

    def note_dead(self) -> None:
        """An op somewhere in this heap was discarded elsewhere."""
        self.dead += 1
        if (
            self.dead >= self._COMPACT_MIN_DEAD
            and self.dead * 2 >= len(self.entries)
        ):
            self.entries = [e for e in self.entries if e[1].queued]
            heapq.heapify(self.entries)
            self.dead = 0


class ReadyQueue:
    """Policy-keyed heaps with per-owner buckets and order-blocked parking.

    The channel owns eligibility (enforced per-collective orders): it tells
    :meth:`push` whether the op may start now, and calls :meth:`promote`
    when an enforced order advances.
    """

    def __init__(self, key_fn: Callable[["OpState"], tuple]) -> None:
        self._key = key_fn
        self._heap = _LazyHeap()
        #: Per-owner buckets; ``None`` until the first owner query.
        self._owner_heaps: defaultdict[str, _LazyHeap] | None = None
        self._parked: dict[OpKey, "OpState"] = {}
        self._live = 0
        self._priority_counts: dict[int, int] = {}
        # --- heap-of-heads (weighted-share admission) ----------------------
        # ``select(idle_only=True)`` answers "best op among tenants with no
        # flow in flight", which the channel mirrors here through
        # :meth:`set_owner_active`.  Every idle owner's bucket head lives in
        # one shared lazy heap, so admission is O(log T) at any number of
        # tenants.  Entries go stale when their op is taken or their owner
        # activates; stale tops are popped at peek (an idle owner's current
        # head is always re-pushed on discard/deactivate, so popping loses
        # nothing).  The set is membership-only — never iterated — so
        # determinism is unaffected.
        self._active_owners: set[str] = set()
        self._heads: list[tuple[tuple, "OpState"]] = []
        self._track_heads = False

    # --- mutation -----------------------------------------------------------
    def push(self, op: "OpState", eligible: bool) -> None:
        """Add a newly ready op (``eligible`` per the channel's orders)."""
        if not eligible:
            self._parked[op.key] = op
            return
        op.queued = True
        key = self._key(op)
        heapq.heappush(self._heap.entries, (key, op))
        if self._owner_heaps is not None:
            heapq.heappush(self._owner_heaps[op.owner].entries, (key, op))
            # Tracking heads implies the buckets exist (see _start_tracking).
            if self._track_heads and op.owner not in self._active_owners:
                heapq.heappush(self._heads, (key, op))
        self._live += 1
        counts = self._priority_counts
        priority = op.priority
        counts[priority] = counts[priority] + 1 if priority in counts else 1

    def promote(self, op_key: OpKey) -> bool:
        """An enforced order advanced: unpark its new head if waiting."""
        op = self._parked.pop(op_key, None)
        if op is None:
            return False
        self.push(op, True)
        return True

    def discard(self, op: "OpState") -> None:
        """Remove an op selected into a batch (or parked and superseded)."""
        if not op.queued:
            self._parked.pop(op.key, None)
            return
        op.queued = False
        self._live -= 1
        self._priority_counts[op.priority] -= 1
        entries = self._heap.entries
        if entries[0][1] is op:
            # The serial wire takes the head it just peeked: pop it now.
            heapq.heappop(entries)
        else:
            self._heap.note_dead()
        if self._owner_heaps is not None:
            owner_heap = self._owner_heaps.get(op.owner)
            if owner_heap is not None:
                owner_heap.note_dead()
            if self._track_heads and op.owner not in self._active_owners:
                # The taken op may have been its owner's head: keep the
                # owner's *current* head present in the heads heap.
                head = self._peek_owner(op.owner)
                if head is not None:
                    heapq.heappush(self._heads, (self._key(head), head))

    def set_owner_active(self, owner: str, active: bool) -> None:
        """Track whether ``owner`` has a flow in flight (weighted sharing).

        The shared-wire channel mirrors its in-flight flow set here, so
        ``select(idle_only=True)`` skips exactly those owners.
        """
        self._start_tracking()
        if active:
            self._active_owners.add(owner)
            return
        self._active_owners.discard(owner)
        head = self._peek_owner(owner)
        if head is not None:
            heapq.heappush(self._heads, (self._key(head), head))

    def _start_tracking(self) -> None:
        """Seed the heads heap with every owner's current head, once (ops
        admitted before the first owner query predate tracking)."""
        if self._track_heads:
            return
        self._track_heads = True
        for existing in list(self._owners()):
            head = self._peek_owner(existing)
            if head is not None:
                heapq.heappush(self._heads, (self._key(head), head))

    def _peek_heads(self) -> "OpState | None":
        """Best op among idle owners, popping stale entries.

        An entry is stale when its op was taken or its owner currently has
        a flow in flight; both are safe to pop outright, because an idle
        owner's current head is re-pushed on every discard and on every
        deactivation.
        """
        heads = self._heads
        active = self._active_owners
        if len(heads) >= 64 and len(heads) > 2 * self._live:
            # Stale entries can die buried (ops taken through the global
            # heap, owners toggling active); rebuild once they dominate.
            heads = [
                entry
                for entry in heads
                if entry[1].queued and entry[1].owner not in active
            ]
            heapq.heapify(heads)
            self._heads = heads
        while heads:
            op = heads[0][1]
            if op.queued and op.owner not in active:
                return op
            heapq.heappop(heads)
        return None

    # --- selection ----------------------------------------------------------
    def peek(self) -> "OpState | None":
        """Best eligible op under the policy order, or ``None`` (the serial
        wire's selection: :meth:`select` with no filter)."""
        entries = self._heap.entries
        while entries:
            op = entries[0][1]
            if op.queued:
                return op
            heapq.heappop(entries)
            self._heap.dead -= 1
        return None

    def select(
        self, owner: str | None = None, idle_only: bool = False
    ) -> "OpState | None":
        """Best eligible op under the policy order, or ``None``.

        ``owner`` restricts to one tenant (fusion within a weighted-share
        flow); ``idle_only`` skips the tenants :meth:`set_owner_active`
        marked as having a flow in flight (weighted-share admission).  At
        most one filter is passed.
        """
        if owner is not None:
            return self._peek_owner(owner)
        if idle_only:
            self._start_tracking()
            return self._peek_heads()
        return self.peek()

    def _peek_owner(self, owner: str) -> "OpState | None":
        owner_heaps = self._owners()
        owner_heap = owner_heaps.get(owner)
        if owner_heap is None:
            return None
        op = owner_heap.peek()
        if op is None:
            del owner_heaps[owner]
        return op

    def _owners(self) -> defaultdict[str, _LazyHeap]:
        """The per-owner buckets, built from the live ops on first use."""
        if self._owner_heaps is None:
            self._owner_heaps = defaultdict(_LazyHeap)
            for op in self:
                if op.queued:  # a parked op joins its bucket when promoted
                    heapq.heappush(
                        self._owner_heaps[op.owner].entries, (self._key(op), op)
                    )
        return self._owner_heaps

    def max_priority(self) -> int | None:
        """Highest priority among eligible ops (``None`` when none)."""
        # Distinct priority levels are few (per-tenant), so max over the
        # count index is O(#levels), not O(#ops).  A level's count stays in
        # the index at zero, so a push and a discard never resize it.
        return max(
            (level for level, count in self._priority_counts.items() if count),
            default=None,
        )

    # --- introspection ------------------------------------------------------
    def __len__(self) -> int:
        """Live ops held (eligible + order-blocked)."""
        return self._live + len(self._parked)

    def __bool__(self) -> bool:
        return self._live > 0 or bool(self._parked)

    def __iter__(self) -> Iterator["OpState"]:
        """Iterate live ops, each once, in unspecified order."""
        # Dedup on the stable op identity, not id(): stale heap entries for
        # the same op must collapse, and address-based keys would make the
        # iteration (and anything ordered by it) vary run to run.
        seen: set[tuple[int, int, int]] = set()
        for _key, op in self._heap.entries:
            if op.queued and op.key not in seen:
                seen.add(op.key)
                yield op
        yield from self._parked.values()
