"""Schedule records: what ran where, when.

A :class:`Schedule` is the primary artifact of a simulation run — "a log of
the schedule in which the tasks were assigned to different processors"
(paper §3.2).  It is validated against the DFG (dependencies respected,
no processor overlap) and is the input to all metric computation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Iterator, NamedTuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.graphs.dfg import DFG


class _EntryFields(NamedTuple):
    kernel_id: int
    kernel: str
    data_size: int
    processor: str
    ptype: str
    ready_time: float
    assign_time: float
    transfer_start: float
    exec_start: float
    finish_time: float
    used_alternative: bool = False
    arrival_time: float = 0.0


class ScheduleEntry(_EntryFields):
    """The lifecycle of one kernel through the system.

    Timeline (all milliseconds)::

        ready_time <= assign_time <= transfer_start <= exec_start < finish_time

    * ``ready_time``     — all dependencies completed (entry kernels: 0);
    * ``assign_time``    — the policy bound the kernel to a processor;
    * ``transfer_start`` — inbound data transfer began (equals
      ``exec_start`` when no transfer was needed);
    * ``exec_start``     — computation began;
    * ``finish_time``    — computation completed.

    ``arrival_time`` (≤ ``ready_time``) is when the kernel entered the
    system — 0 for every kernel of a stream submitted at once, which is
    the paper's setting.

    An immutable tuple, validated on construction: the engine builds one
    per kernel, so it must be cheap to build.
    """

    __slots__ = ()

    def __new__(
        cls,
        kernel_id: int,
        kernel: str,
        data_size: int,
        processor: str,
        ptype: str,
        ready_time: float,
        assign_time: float,
        transfer_start: float,
        exec_start: float,
        finish_time: float,
        used_alternative: bool = False,
        arrival_time: float = 0.0,
    ) -> "ScheduleEntry":
        if arrival_time > ready_time + 1e-9:
            raise ValueError(
                f"kernel {kernel_id} arrives at {arrival_time} "
                f"after becoming ready at {ready_time}"
            )
        if not (
            ready_time <= assign_time + 1e-9
            and assign_time <= transfer_start + 1e-9
            and transfer_start <= exec_start + 1e-9
            and exec_start < finish_time
        ):
            raise ValueError(
                f"inconsistent timeline for kernel {kernel_id}: "
                f"ready={ready_time} assign={assign_time} "
                f"transfer={transfer_start} exec={exec_start} "
                f"finish={finish_time}"
            )
        fields = (
            kernel_id, kernel, data_size, processor, ptype, ready_time,
            assign_time, transfer_start, exec_start, finish_time,
            used_alternative, arrival_time,
        )
        return tuple.__new__(cls, fields)

    @classmethod
    def _make(cls, iterable: Any) -> "ScheduleEntry":  # ``_replace`` validates too
        return cls(*iterable)

    @property
    def transfer_time(self) -> float:
        return self.exec_start - self.transfer_start

    @property
    def exec_time(self) -> float:
        return self.finish_time - self.exec_start

    @property
    def lambda_delay(self) -> float:
        """λ delay: time from system arrival to start of execution.

        The paper's λ (§2.5.1) bundles scheduler decision time, dispatch
        communication, *and* "dependencies on kernels that are being
        executed in another processor, but have not completed yet" — so it
        is anchored at arrival, not at dependency-readiness.  (Its λ tables
        confirm this: SPN's total λ exceeds its makespan, impossible for a
        ready-anchored definition.)
        """
        return self.exec_start - self.arrival_time

    @property
    def queue_wait(self) -> float:
        """Ready-to-execution gap: waiting attributable to scheduling only
        (busy processors, policy decisions, inbound transfer) — the
        dependency-free component of λ."""
        return self.exec_start - self.ready_time


class Schedule:
    """An ordered collection of :class:`ScheduleEntry`, one per kernel."""

    def __init__(self, entries: Iterable[ScheduleEntry] = ()) -> None:
        self._entries: list[ScheduleEntry] = list(entries)
        # id → entry index; also the duplicate guard.  Kept in sync by
        # add() so lookups stay O(1) on million-kernel schedules.
        self._by_id: dict[int, ScheduleEntry] = {}
        for e in self._entries:
            if e.kernel_id in self._by_id:
                raise ValueError("duplicate kernel ids in schedule")
            self._by_id[e.kernel_id] = e

    def add(self, entry: ScheduleEntry) -> None:
        if entry.kernel_id in self._by_id:
            raise ValueError(f"kernel {entry.kernel_id} already scheduled")
        self._entries.append(entry)
        self._by_id[entry.kernel_id] = entry

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ScheduleEntry]:
        return iter(self._entries)

    def __getitem__(self, kernel_id: int) -> ScheduleEntry:
        try:
            return self._by_id[kernel_id]
        except KeyError:
            raise KeyError(f"kernel {kernel_id} not in schedule") from None

    def __contains__(self, kernel_id: int) -> bool:
        return kernel_id in self._by_id

    @property
    def makespan(self) -> float:
        """Total execution time — when the last kernel finishes."""
        if not self._entries:
            return 0.0
        return max(e.finish_time for e in self._entries)

    def by_processor(self) -> dict[str, list[ScheduleEntry]]:
        """Entries grouped by processor, ordered by execution start."""
        out: dict[str, list[ScheduleEntry]] = {}
        for e in sorted(self._entries, key=lambda e: (e.transfer_start, e.kernel_id)):
            out.setdefault(e.processor, []).append(e)
        return out

    def entries_sorted(self) -> list[ScheduleEntry]:
        return sorted(self._entries, key=lambda e: (e.exec_start, e.kernel_id))

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self, dfg: "DFG") -> None:
        """Check the schedule is a feasible execution of ``dfg``.

        * every DFG kernel appears exactly once,
        * no two kernels overlap on one processor (transfer+exec window),
        * every kernel starts at/after all its dependencies finished.

        Raises ``ValueError`` with a descriptive message on violation.
        """
        scheduled = {e.kernel_id for e in self._entries}
        expected = set(dfg.kernel_ids())
        if scheduled != expected:
            missing = expected - scheduled
            extra = scheduled - expected
            raise ValueError(f"schedule/DFG mismatch: missing={missing}, extra={extra}")
        for proc, entries in self.by_processor().items():
            for prev, cur in zip(entries, entries[1:]):
                if cur.transfer_start < prev.finish_time - 1e-9:
                    raise ValueError(
                        f"overlap on {proc}: kernel {cur.kernel_id} starts at "
                        f"{cur.transfer_start} before kernel {prev.kernel_id} "
                        f"finishes at {prev.finish_time}"
                    )
        finish = {e.kernel_id: e.finish_time for e in self._entries}
        for e in self._entries:
            for pred in dfg.predecessors(e.kernel_id):
                if e.transfer_start < finish[pred] - 1e-9:
                    raise ValueError(
                        f"dependency violation: kernel {e.kernel_id} starts at "
                        f"{e.transfer_start} before predecessor {pred} finishes "
                        f"at {finish[pred]}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Schedule({len(self)} kernels, makespan={self.makespan:.3f} ms)"
