"""An event heap over parallel slot arrays.

:class:`ArrayEventHeap` orders events exactly like
:class:`~repro.core.events.EventQueue`, but the engine does not use it:
:class:`~repro.core.engine.EngineCore` runs on ``EventQueue``.  It is
kept because ``perfbench/layers.py`` imports it in traced runs
(``perfbench/run.py --trace 1``) and patches
:meth:`ArrayEventHeap.pop_simultaneous_records` to count epochs.
``tests/test_events.py`` checks it against ``EventQueue``.
"""

from __future__ import annotations

import heapq

from repro.core.events import _ARRIVAL_RANK, Event, EventKind


class ArrayEventHeap:
    """Event heap over parallel slot arrays — no per-event objects.

    Same ordering contract as :class:`~repro.core.events.EventQueue`:
    ``(time, arrival-rank, push sequence)``, with
    ``KERNEL_READY``/``APP_ARRIVAL`` ranked before progress events at
    equal timestamps.  The record API (:meth:`push_record` /
    :meth:`pop_simultaneous_records`) moves bare ``(time, kind, payload)``
    tuples; the Event-based API wraps it.
    """

    __slots__ = ("_time", "_kind", "_payload", "_free", "_heap", "_seq")

    def __init__(self) -> None:
        # slot arrays: one entry per live event, recycled through _free
        self._time: list[float] = []
        self._kind: list[EventKind] = []
        self._payload: list[object] = []
        self._free: list[int] = []
        self._heap: list[tuple[float, int, int, int]] = []
        self._seq = 0

    def push_record(self, time: float, kind: EventKind, payload: object) -> None:
        if time < 0:
            raise ValueError(f"event time must be >= 0 (got {time})")
        if self._free:
            slot = self._free.pop()
            self._time[slot] = time
            self._kind[slot] = kind
            self._payload[slot] = payload
        else:
            slot = len(self._time)
            self._time.append(time)
            self._kind.append(kind)
            self._payload.append(payload)
        self._seq += 1
        heapq.heappush(self._heap, (time, _ARRIVAL_RANK.get(kind, 1), self._seq, slot))

    def push(self, event: Event) -> None:
        self.push_record(event.time, event.kind, event.payload)

    def _pop_record(self) -> tuple[float, EventKind, object]:
        _, _, _, slot = heapq.heappop(self._heap)
        self._free.append(slot)
        return self._time[slot], self._kind[slot], self._payload[slot]

    def pop_simultaneous_records(self) -> list[tuple[float, EventKind, object]]:
        """All records at the earliest pending time, in queue order."""
        first = self._pop_record()
        out = [first]
        t = first[0]
        heap = self._heap
        while heap and heap[0][0] == t:
            out.append(self._pop_record())
        return out

    # -- Event-materializing compatibility API -------------------------
    def pop(self) -> Event:
        return Event(*self._pop_record())

    def peek(self) -> Event:
        slot = self._heap[0][3]
        return Event(self._time[slot], self._kind[slot], self._payload[slot])

    def pop_simultaneous(self) -> list[Event]:
        return [Event(*rec) for rec in self.pop_simultaneous_records()]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
