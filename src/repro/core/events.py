"""Discrete-event machinery for the heterogeneous-system simulator.

A tiny, deterministic event queue.  Events are ordered by time; ties are
broken by a monotonically increasing sequence number so identical
timestamps are processed in insertion order, which keeps simulations
reproducible regardless of heap internals.
"""

from __future__ import annotations

import heapq
import itertools
from enum import Enum
from typing import Any, NamedTuple


class EventKind(Enum):
    """What happened at an event timestamp.

    ``TRANSFER_START`` / ``TRANSFER_COMPLETE`` drive the contended
    transfer path (topologies with ``contention=True``): a transfer's
    route latency elapses first (``TRANSFER_START`` marks the flow
    joining the draining pool), then the flow drains under fair-share
    bandwidth.  Because shares change whenever a flow joins or leaves,
    ``TRANSFER_COMPLETE`` events carry a *version* in their payload;
    an event whose version no longer matches the flow's current one is
    stale (a reshare superseded it) and is skipped by the simulator.

    ``APP_ARRIVAL`` drives the open-system streaming path: one event per
    application joining the stream, at which instant the simulator admits
    the application's kernels (see ``Simulator.run_stream``).

    ``FAULT`` / ``REPAIR`` drive the fault-injection layer
    (:class:`~repro.core.dynamics.FaultDynamics`): a processor leaves
    service (its in-flight kernel is aborted and re-enqueued) and
    returns.  ``PREEMPT`` marks the end of a preemption context-switch
    penalty (:class:`~repro.core.dynamics.PreemptionDynamics`) — the
    preempted processor may dispatch again.
    """

    KERNEL_READY = "kernel_ready"
    APP_ARRIVAL = "app_arrival"
    TRANSFER_START = "transfer_start"
    TRANSFER_COMPLETE = "transfer_complete"
    KERNEL_COMPLETE = "kernel_complete"
    FAULT = "fault"
    REPAIR = "repair"
    PREEMPT = "preempt"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Same-timestamp ordering tier.  Arrival-class events (kernels or
#: applications entering the system) sort before progress-class events
#: (transfers, completions, faults/repairs, preemption expiries) at an
#: identical time, so a streaming run — whose single look-ahead
#: ``APP_ARRIVAL`` event may be pushed *after* long-scheduled completion
#: events — processes arrivals in exactly the position the merged-DFG
#: path does (that path pushes every ``KERNEL_READY`` up front, i.e.
#: with the lowest sequence numbers).  Within a tier, FIFO insertion
#: order still breaks ties.
_ARRIVAL_RANK = {EventKind.KERNEL_READY: 0, EventKind.APP_ARRIVAL: 0}

#: Kinds that cannot make progress by themselves.  The fault layer keeps
#: a FAULT or REPAIR pending per processor for ever; when only FAULTs are
#: pending, nothing runs, nothing is queued, no processor is down or
#: penalized and no arrival is due, so the run is deadlocked.
NO_PROGRESS_KINDS = frozenset({EventKind.FAULT})


class _EventFields(NamedTuple):
    time: float
    kind: EventKind
    payload: Any = None


class Event(_EventFields):
    """A timestamped simulation event.

    ``payload`` carries event-specific data (kernel id, processor name).
    An immutable tuple, validated on construction: the engine builds one
    per kernel, so it must be cheap to build.
    """

    __slots__ = ()

    def __new__(cls, time: float, kind: EventKind, payload: Any = None) -> "Event":
        if not time >= 0:  # NaN fails this too
            raise ValueError(f"event time must be non-negative, got {time}")
        return tuple.__new__(cls, (time, kind, payload))

    @classmethod
    def _make(cls, iterable: Any) -> "Event":  # ``_replace`` validates too
        return cls(*iterable)


class EventQueue:
    """A min-heap of :class:`Event` objects with stable FIFO tie-breaking.

    Ordering is ``(time, arrival-class-first, insertion order)``: see
    :data:`_ARRIVAL_RANK`.  For runs whose arrival events are all pushed
    before any progress event (the merged-DFG path), the rank term is
    redundant with insertion order, so it changes nothing there.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()

    def push(self, event: Event) -> None:
        heapq.heappush(
            self._heap,
            (event.time, _ARRIVAL_RANK.get(event.kind, 1), next(self._counter), event),
        )

    def pop(self) -> Event:
        """Remove and return the earliest event.

        Raises
        ------
        IndexError
            If the queue is empty.
        """
        if not self._heap:
            raise IndexError("pop from empty EventQueue")
        return heapq.heappop(self._heap)[-1]

    def peek(self) -> Event:
        if not self._heap:
            raise IndexError("peek at empty EventQueue")
        return self._heap[0][-1]

    def pop_simultaneous(self) -> list[Event]:
        """Pop *all* events sharing the earliest timestamp, in FIFO order.

        The simulator completes every kernel finishing at time *t* before
        re-invoking the scheduling policy, so the policy sees the full ready
        set — this matters for policies like SS that rank across kernels.
        """
        if not self._heap:
            raise IndexError("pop from empty EventQueue")
        first = self.pop()
        events = [first]
        while self._heap and self._heap[0][0] == first.time:
            events.append(self.pop())
        return events

    def only(self, kinds: frozenset[EventKind]) -> bool:
        """Whether every pending event's kind is in ``kinds`` (true when empty)."""
        return all(entry[-1].kind in kinds for entry in self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
