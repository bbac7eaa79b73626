"""Job management for the scenario service.

Everything between the HTTP layer and the sweep seam lives here:

* **Admission control** — :meth:`JobManager.submit` bounds the number
  of live jobs (``queue_limit``); past it, :class:`QueueFullError`
  surfaces as HTTP 429 backpressure.
* **Per-client fairness** — :class:`FairGate` is a round-robin fair
  semaphore over the executor's worker slots: a client that floods the
  queue cannot starve the others, because free slots rotate across the
  *clients* with waiting payloads, not across payloads globally.
* **Singleflight dedup** — concurrent jobs needing the same payload
  (by sweep content hash) coalesce on one in-flight future; together
  with the :class:`~repro.service.store.SharedResultStore` this is what
  makes a million identical submissions cost one simulation.
* **Cooperative cancellation** — ``DELETE /jobs/<id>`` sets an event
  the job runner observes at every await point *between* payloads and
  while *waiting* (on the gate or on a coalesced future).  A payload
  already dispatched to a worker runs to completion and its result is
  stored — cancellation never wastes finished work.
* **Progress events** — every state transition appends an event with a
  monotonic sequence number (no wall clock: ``repro/service/`` is in
  the deterministic static-check scope; ordering, not timing, is the
  contract).

Executors: :class:`InlineExecutor` runs payloads on worker threads
(in-process — what the tests and the load harness use);
:class:`ProcessExecutor` fans out over a persistent
``multiprocessing`` pool, dispatching payload-by-payload so idle
workers steal whatever is next (the lumos worker-queue idiom), and a
worker exception fails only the jobs that needed that payload — the
pool survives.
"""

from __future__ import annotations

import asyncio
import dataclasses
import multiprocessing
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.lookup import LookupTable
from repro.experiments.scenarios import ScenarioSpec, get_scenario
from repro.experiments.sweep import SimSettings, SweepJob, execute_payload
from repro.service.protocol import (
    JOB_STATES,
    TERMINAL_STATES,
    ProtocolError,
    SubmitRequest,
)
from repro.service.store import SharedResultStore

__all__ = [
    "FairGate",
    "InlineExecutor",
    "JobManager",
    "JobRecord",
    "ProcessExecutor",
    "QueueFullError",
    "WorkerError",
    "make_executor",
]


class QueueFullError(RuntimeError):
    """Admission control rejected a submit (HTTP 429)."""

    def __init__(self, active: int, limit: int) -> None:
        super().__init__(f"queue full: {active} active jobs (limit {limit})")
        self.active = active
        self.limit = limit


class WorkerError(RuntimeError):
    """A coalesced payload failed in the job that owned its dispatch.

    Carries the owning job's formatted traceback, so every job that
    needed the payload fails with the same root cause.
    """


# ----------------------------------------------------------------------
# executors
# ----------------------------------------------------------------------
class InlineExecutor:
    """Execute payloads on worker threads of this process.

    ``slots`` bounds concurrent payloads (enforced by the manager's
    :class:`FairGate`, sized from this attribute) — the executor itself
    just bridges the blocking :func:`execute_payload` off the event
    loop.
    """

    def __init__(self, slots: int = 2) -> None:
        self.slots = max(1, int(slots))

    async def execute(self, payload: Mapping[str, object]) -> dict[str, object]:
        return await asyncio.to_thread(execute_payload, payload)

    def close(self) -> None:  # symmetry with ProcessExecutor
        return None


class ProcessExecutor:
    """Execute payloads on a persistent ``multiprocessing`` pool.

    Payloads are dispatched one ``apply_async`` at a time — the
    work-stealing shape: any idle worker picks up whatever payload is
    submitted next, regardless of which job it belongs to.  Worker
    exceptions resolve only that payload's future; the pool keeps
    serving (asserted by the crash tests).
    """

    def __init__(self, workers: int = 2) -> None:
        self.slots = max(1, int(workers))
        ctx = multiprocessing.get_context()
        self._pool = ctx.Pool(processes=self.slots)

    async def execute(self, payload: Mapping[str, object]) -> dict[str, object]:
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()

        def _complete(outcome: object, exc: BaseException | None) -> None:
            if future.cancelled():
                return
            if exc is not None:
                future.set_exception(exc)
            else:
                future.set_result(outcome)

        def _on_result(outcome: object) -> None:
            loop.call_soon_threadsafe(_complete, outcome, None)

        def _on_error(exc: BaseException) -> None:
            loop.call_soon_threadsafe(_complete, None, exc)

        self._pool.apply_async(
            execute_payload,
            (dict(payload),),
            callback=_on_result,
            error_callback=_on_error,
        )
        return await future

    def close(self) -> None:
        self._pool.terminate()
        self._pool.join()


def make_executor(kind: str = "inline", slots: int = 2) -> "InlineExecutor | ProcessExecutor":
    """Build an executor by name: ``inline`` (threads) or ``process``."""
    if kind == "inline":
        return InlineExecutor(slots)
    if kind == "process":
        return ProcessExecutor(slots)
    raise ValueError(f"unknown executor kind {kind!r} (expected inline|process)")


# ----------------------------------------------------------------------
# fairness
# ----------------------------------------------------------------------
class FairGate:
    """A fair semaphore: round-robin across clients, FIFO within one.

    Waiters queue per client; every released slot is granted to the
    next client in rotation, so ``capacity`` slots are shared evenly
    across however many clients currently have waiting payloads — a
    client with 200 queued payloads and one with 1 make progress at the
    same per-client rate.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = max(1, int(capacity))
        self._free = self.capacity
        self._waiters: dict[str, deque[asyncio.Future]] = {}
        self._rotation: deque[str] = deque()

    @property
    def busy(self) -> int:
        return self.capacity - self._free

    def waiting(self) -> int:
        return sum(len(queue) for queue in self._waiters.values())

    async def acquire(self, client: str) -> None:
        if self._free > 0 and not self._rotation:
            self._free -= 1
            return
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        queue = self._waiters.setdefault(client, deque())
        queue.append(future)
        if client not in self._rotation:
            self._rotation.append(client)
        try:
            await future
        except asyncio.CancelledError:
            if future.done() and not future.cancelled():
                # granted and abandoned in the same tick: hand the slot on
                self.release()
            else:
                try:
                    queue.remove(future)
                except ValueError:
                    pass
                if not queue:
                    self._waiters.pop(client, None)
                    try:
                        self._rotation.remove(client)
                    except ValueError:
                        pass
            raise

    def release(self) -> None:
        self._free += 1
        self._grant()

    def _grant(self) -> None:
        while self._free > 0 and self._rotation:
            client = self._rotation.popleft()
            queue = self._waiters.get(client)
            while queue:
                future = queue.popleft()
                if future.done():  # cancelled waiter: skip
                    continue
                future.set_result(None)
                self._free -= 1
                break
            if queue:
                self._rotation.append(client)
            else:
                self._waiters.pop(client, None)


# ----------------------------------------------------------------------
# job records
# ----------------------------------------------------------------------
#: sentinel result of :meth:`JobManager._race_cancel`: cancel fired first.
_CANCELLED = object()

#: sentinel resolution of an in-flight future: its owner gave it up
#: before dispatch (cancelled while waiting on the gate); followers
#: retry and one of them takes over.
_OWNER_ABORTED = object()


@dataclass
class JobRecord:
    """One submitted scenario and everything a poller may ask about it."""

    id: str
    client: str
    label: str
    spec: ScenarioSpec
    state: str = "queued"
    total: int = 0
    done: int = 0
    simulated: int = 0
    store_hits: int = 0
    coalesced: int = 0
    cancel_requested: bool = False
    error: str | None = None
    rows: list[dict[str, object]] = field(default_factory=list)
    events: list[dict[str, object]] = field(default_factory=list)
    task: "asyncio.Task | None" = field(default=None, repr=False)
    cancel_event: asyncio.Event = field(default_factory=asyncio.Event, repr=False)

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES

    def status_dict(self) -> dict[str, object]:
        """The ``GET /jobs/<id>`` body."""
        return {
            "id": self.id,
            "client": self.client,
            "scenario": self.label,
            "state": self.state,
            "total": self.total,
            "done": self.done,
            "simulated": self.simulated,
            "store_hits": self.store_hits,
            "coalesced": self.coalesced,
            "cancel_requested": self.cancel_requested,
            "error": self.error,
            "events": list(self.events),
        }


# ----------------------------------------------------------------------
# the manager
# ----------------------------------------------------------------------
class JobManager:
    """Owns every job: admission, execution, dedup, cancellation, stats.

    Single-event-loop discipline: all public methods must be called
    from (or scheduled onto) the loop the manager runs on.  That is
    what makes the store-check → inflight-check → dispatch decision
    atomic between awaits, and therefore the dedup exact: one
    simulation per unique payload hash, no matter how many submissions
    race.
    """

    def __init__(
        self,
        store: SharedResultStore | None = None,
        executor: "InlineExecutor | ProcessExecutor | None" = None,
        lookup: LookupTable | None = None,
        queue_limit: int = 64,
        max_finished: int = 512,
    ) -> None:
        self.store = store if store is not None else SharedResultStore()
        self.executor = executor if executor is not None else InlineExecutor()
        self._lookup = lookup
        self.queue_limit = int(queue_limit)
        self.max_finished = int(max_finished)
        self.jobs: dict[str, JobRecord] = {}
        self.gate = FairGate(self.executor.slots)
        self._inflight: dict[str, asyncio.Future] = {}
        self._seq = 0
        self._job_seq = 0
        self.counters = {
            "submitted": 0,
            "rejected": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
            "coalesced": 0,
        }

    # ------------------------------------------------------------------
    @property
    def lookup(self) -> LookupTable:
        if self._lookup is None:
            from repro.data.paper_tables import paper_lookup_table

            self._lookup = paper_lookup_table()
        return self._lookup

    @property
    def active(self) -> int:
        """Jobs not yet in a terminal state (the admission measure)."""
        return sum(1 for job in self.jobs.values() if not job.finished)

    def _event(self, record: JobRecord, kind: str, **extra: object) -> None:
        self._seq += 1
        if kind == "progress" and record.events and record.events[-1]["event"] == "progress":
            record.events.pop()  # keep only the latest progress event
        event: dict[str, object] = {"seq": self._seq, "event": kind}
        event.update(extra)
        record.events.append(event)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def resolve_spec(self, request: SubmitRequest) -> ScenarioSpec:
        """Turn a submit request into a concrete :class:`ScenarioSpec`."""
        if request.scenario is not None:
            try:
                spec = get_scenario(request.scenario)
            except KeyError as exc:
                raise ProtocolError(str(exc.args[0]), status=404) from None
        else:
            try:
                spec = ScenarioSpec.from_dict(request.spec)  # type: ignore[arg-type]
            except (KeyError, TypeError, ValueError) as exc:
                raise ProtocolError(f"invalid scenario spec: {exc}") from None
        if request.settings:
            base = spec.settings.to_dict()
            unknown = sorted(set(request.settings) - set(base))
            if unknown:
                raise ProtocolError(f"unknown settings keys: {', '.join(unknown)}")
            base.update(request.settings)
            try:
                spec = dataclasses.replace(spec, settings=SimSettings.from_dict(base))
            except (TypeError, ValueError) as exc:
                raise ProtocolError(f"invalid settings: {exc}") from None
        return spec

    def submit(self, request: SubmitRequest) -> JobRecord:
        """Admit a job and start it; raises :class:`QueueFullError` at
        the admission bound and :class:`ProtocolError` on a bad spec."""
        spec = self.resolve_spec(request)
        if self.active >= self.queue_limit:
            self.counters["rejected"] += 1
            raise QueueFullError(self.active, self.queue_limit)
        self._job_seq += 1
        record = JobRecord(
            id=f"j{self._job_seq:06d}",
            client=request.client,
            label=spec.name,
            spec=spec,
        )
        self.jobs[record.id] = record
        self.counters["submitted"] += 1
        self._event(record, "submitted", client=request.client)
        record.task = asyncio.get_running_loop().create_task(self._run_job(record))
        self._prune_finished()
        return record

    def get(self, job_id: str) -> JobRecord | None:
        return self.jobs.get(job_id)

    def cancel(self, job_id: str) -> JobRecord | None:
        """Request cancellation (idempotent); returns the record or None."""
        record = self.jobs.get(job_id)
        if record is None:
            return None
        if not record.finished and not record.cancel_requested:
            record.cancel_requested = True
            record.cancel_event.set()
            self._event(record, "cancel_requested")
        return record

    async def wait(self, job_id: str) -> JobRecord:
        """Block until the job reaches a terminal state."""
        record = self.jobs[job_id]
        if record.task is not None and not record.task.done():
            await asyncio.wait({record.task})
        return record

    async def close(self) -> None:
        """Cancel live jobs, drain their tasks, shut the executor down."""
        for job_id in list(self.jobs):
            self.cancel(job_id)
        tasks = [
            job.task
            for job in self.jobs.values()
            if job.task is not None and not job.task.done()
        ]
        if tasks:
            await asyncio.wait(tasks)
        self.executor.close()

    def stats(self) -> dict[str, object]:
        """The ``GET /stats`` body."""
        states = {state: 0 for state in JOB_STATES}
        for job in self.jobs.values():
            states[job.state] += 1
        return {
            "jobs": dict(self.counters),
            "states": states,
            "active": self.active,
            "queue_limit": self.queue_limit,
            "gate": {
                "capacity": self.gate.capacity,
                "busy": self.gate.busy,
                "waiting": self.gate.waiting(),
            },
            "inflight": len(self._inflight),
            "store": self.store.stats(),
        }

    def _prune_finished(self) -> None:
        finished = [job_id for job_id, job in self.jobs.items() if job.finished]
        excess = len(finished) - self.max_finished
        if excess > 0:
            for job_id in finished[:excess]:
                del self.jobs[job_id]

    # ------------------------------------------------------------------
    # the job runner
    # ------------------------------------------------------------------
    async def _run_job(self, record: JobRecord) -> None:
        try:
            jobs = record.spec.jobs(self.lookup)
            record.total = len(jobs)
            record.state = "running"
            self._event(record, "started", total=record.total)
            for job in jobs:
                if record.cancel_requested:
                    self._finish_cancelled(record)
                    return
                row = await self._resolve_payload(record, job)
                if row is None:  # cancelled while waiting
                    self._finish_cancelled(record)
                    return
                record.rows.append(row)
                record.done += 1
                self._event(record, "progress", done=record.done, total=record.total)
            record.state = "done"
            self.counters["completed"] += 1
            self._event(record, "done", done=record.done, total=record.total)
        except asyncio.CancelledError:
            self._finish_cancelled(record)
            raise
        except Exception:
            record.error = traceback.format_exc()
            record.state = "failed"
            self.counters["failed"] += 1
            self._event(record, "failed")

    async def _resolve_payload(
        self, record: JobRecord, job: SweepJob
    ) -> dict[str, object] | None:
        """One payload through store → singleflight → gate → executor.

        Returns the result record, or ``None`` if the job was cancelled
        while waiting (on the gate or on another job's in-flight
        payload).  Once a payload is dispatched to a worker it runs to
        completion and is stored regardless of cancellation.
        """
        key = job.content_hash()
        while True:
            cached = self.store.get(key)
            if cached is not None:
                record.store_hits += 1
                return dict(cached)

            inflight = self._inflight.get(key)
            if inflight is not None:
                record.coalesced += 1
                self.counters["coalesced"] += 1
                outcome = await self._race_cancel(record, asyncio.shield(inflight))
                if outcome is _CANCELLED:
                    return None
                if outcome is _OWNER_ABORTED:
                    continue  # owner withdrew before dispatch: retry
                if isinstance(outcome, dict) and "__error__" in outcome:
                    raise WorkerError(str(outcome["__error__"]))
                return dict(outcome)  # type: ignore[call-overload]

            # become the owner of this payload's dispatch
            loop = asyncio.get_running_loop()
            future: asyncio.Future = loop.create_future()
            self._inflight[key] = future
            granted = False
            try:
                outcome = await self._race_cancel(
                    record, self.gate.acquire(record.client)
                )
                if outcome is _CANCELLED:
                    return None
                granted = True
                try:
                    result = await self.executor.execute(job.runnable_payload())
                except Exception:
                    # fail every coalesced follower with the same cause
                    if not future.done():
                        future.set_result({"__error__": traceback.format_exc()})
                    raise
                self.store.put(key, result)
                record.simulated += 1
                if not future.done():
                    future.set_result(dict(result))
                return dict(result)
            finally:
                if self._inflight.get(key) is future:
                    del self._inflight[key]
                if not future.done():
                    future.set_result(_OWNER_ABORTED)
                if granted:
                    self.gate.release()

    async def _race_cancel(self, record: JobRecord, awaitable: object) -> object:
        """Await something, unless the job's cancel event fires first.

        Returns the awaitable's result, or :data:`_CANCELLED`.  The
        awaitable is cancelled on the cancel path (safe for both gate
        acquisition — the gate re-queues the slot — and shielded
        in-flight futures, where only the shield wrapper dies).
        """
        if record.cancel_requested:
            waiter = asyncio.ensure_future(awaitable)  # type: ignore[arg-type]
            waiter.cancel()
            try:
                await waiter
            except (asyncio.CancelledError, Exception):
                pass
            return _CANCELLED
        waiter = asyncio.ensure_future(awaitable)  # type: ignore[arg-type]
        canceller = asyncio.ensure_future(record.cancel_event.wait())
        try:
            done, _ = await asyncio.wait(
                {waiter, canceller}, return_when=asyncio.FIRST_COMPLETED
            )
        except asyncio.CancelledError:
            waiter.cancel()
            canceller.cancel()
            raise
        if waiter in done:
            canceller.cancel()
            return waiter.result()
        waiter.cancel()
        try:
            await waiter
        except (asyncio.CancelledError, Exception):
            pass
        return _CANCELLED

    def _finish_cancelled(self, record: JobRecord) -> None:
        if record.finished:
            return
        record.state = "cancelled"
        self.counters["cancelled"] += 1
        self._event(record, "cancelled", done=record.done, total=record.total)
