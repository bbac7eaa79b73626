"""The layered discrete-event engine core.

:class:`EngineCore` owns exactly the mechanics every simulation shares —
the event queue and clock, per-processor dispatch state, the ready set,
the policy fixpoint, and kernel completion — and nothing else.  Every
other behavior (admission of work, contended transfers, bounded-memory
retirement, metric accumulation, fault injection, preemption) lives in
an ordered chain of :class:`RuntimeDynamics` layers plugged into the
core through a narrow hook protocol:

``on_run_start()``
    After the engine is assembled, before the first event: seed tables,
    push initial events.
``on_event(ev)``
    Called for each popped event whose ``kind`` appears in the layer's
    ``handles`` tuple.  ``KERNEL_COMPLETE`` is the one kind the core
    handles itself (it is the hot path); every other kind is routed to
    exactly one layer.
``on_admit(app_index, arrival_ms, app_dfg, id_map)``
    An application's kernels entered the engine's tables (streaming
    admission fan-out to the retirement / service-metric layers).
``on_kernel_ready(kid)`` / ``on_kernel_start(kid, proc)`` /
``on_kernel_finish(kid, proc)`` / ``on_kernel_abort(kid, proc)``
    Kernel lifecycle notifications.
``on_entry(entry)``
    A :class:`~repro.core.schedule.ScheduleEntry` was finalized — the
    metrics layer's feed.
``observe(ctx)``
    Called once per event batch (after the batch is applied, before the
    assignment fixpoint) with a live :class:`~repro.policies.base.
    SchedulingContext` — the seam preemption decisions ride on.
``finalize()`` / ``stats()``
    End of run: close accounting, report layer statistics.

Layers that can *abort* an in-flight kernel (faults, preemption) declare
``aborts = True``; the core then defers schedule-entry recording from
kernel start to kernel completion, so aborted attempts never pollute the
log or the accumulators.  Stale completion events left behind by an
abort are invalidated through per-processor start tokens.

Determinism: with only the standard layers attached, the engine performs
the *same sequence* of event pushes, policy invocations and state
mutations as the pre-split monolith — the bit-for-bit guarantee
``tests/test_simulator_equivalence.py`` pins against
:class:`~repro.core.reference.ReferenceSimulator`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Deque, Iterator, Mapping

from repro.core.events import Event, EventKind, EventQueue
from repro.core.schedule import ScheduleEntry
from repro.policies.base import (
    Assignment,
    PreemptionInfo,
    ProcessorView,
    SchedulingContext,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cost import CostModel
    from repro.core.system import SystemConfig
    from repro.graphs.dfg import DFG
    from repro.policies.base import DynamicPolicy, Policy


class SchedulingError(RuntimeError):
    """Raised when a policy produces an infeasible decision or deadlocks."""


@dataclass
class _ProcState:
    """Mutable runtime state of one processor.

    ``faulted`` / ``penalized`` are the two independent unavailability
    flags (failure outage vs preemption context-switch penalty); a
    processor dispatches work only while neither is set.
    """

    free_at: float = 0.0
    running: int | None = None
    queue: Deque[tuple[int, bool]] = field(default_factory=deque)  # (kid, alternative)
    faulted: bool = False
    penalized: bool = False

    @property
    def blocked(self) -> bool:
        return self.faulted or self.penalized

    def busy(self, now: float) -> bool:
        return self.running is not None and self.free_at > now + 1e-12


class _ReadyQueue:
    """Order-preserving ready set: O(1) membership, add and removal.

    Iteration order is insertion order — the FCFS discipline the list
    implementation provided, without its O(n) ``remove``.
    """

    __slots__ = ("_d", "_tuple")

    def __init__(self, items: "list[int] | tuple[int, ...]" = ()) -> None:
        self._d: dict[int, None] = dict.fromkeys(items)
        self._tuple: tuple[int, ...] | None = None

    def add(self, kid: int) -> None:
        self._d[kid] = None
        self._tuple = None

    def remove(self, kid: int) -> None:
        del self._d[kid]
        self._tuple = None

    def __contains__(self, kid: int) -> bool:
        return kid in self._d

    def __len__(self) -> int:
        return len(self._d)

    def __iter__(self) -> Iterator[int]:
        return iter(self._d)

    def as_tuple(self) -> tuple[int, ...]:
        if self._tuple is None:
            self._tuple = tuple(self._d)
        return self._tuple


class _ResidentGraph:
    """Read-only DFG facade over the engine's *resident* kernel tables.

    The streaming path never materializes a merged graph; policies
    reaching through ``ctx.dfg`` (or the context helpers) see exactly the
    kernels currently admitted and not yet retired — arrived work only,
    by construction.
    """

    __slots__ = ("name", "_specs", "_preds", "_succs")

    def __init__(
        self,
        name: str,
        specs: dict[int, Any],
        preds: dict[int, list[int]],
        succs: dict[int, list[int]],
    ) -> None:
        self.name = name
        self._specs = specs
        self._preds = preds
        self._succs = succs

    def spec(self, kid: int) -> Any:
        return self._specs[kid]

    def predecessors(self, kid: int) -> list[int]:
        return self._preds[kid]

    def successors(self, kid: int) -> list[int]:
        return self._succs[kid]

    def kernel_ids(self) -> list[int]:
        return sorted(self._specs)

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, kid: int) -> bool:
        return kid in self._specs


class RuntimeDynamics:
    """Base class of the engine's pluggable behavior layers.

    Subclasses override the hooks they need; :meth:`EngineCore.add_layer`
    registers only overridden hooks, so an unused hook costs nothing in
    the hot loop.  A layer holds *per-run* state only, and must
    (re)initialize all of it in :meth:`on_run_start` — a layer instance
    is rebound to a fresh engine on every run.

    Layers that can abort an in-flight kernel set ``aborts = True``,
    which switches the engine to deferred entry recording (see module
    docstring).  Layers claiming an engine role beyond the generic hooks
    (contended transfers, preemption windows) do so in :meth:`bind`.
    """

    #: short identifier used in stats dicts and serialized specs.
    name: str = "dynamics"
    #: event kinds routed to :meth:`on_event` (exclusive per engine).
    handles: tuple[EventKind, ...] = ()
    #: whether this layer may abort in-flight kernels (fault/preemption).
    aborts: bool = False

    def bind(self, engine: "EngineCore") -> None:
        self.engine = engine

    def on_run_start(self) -> None:
        """Seed tables / push initial events; all per-run state resets here."""

    def on_run_open(self) -> None:
        """Second initialization phase, after *every* layer's
        ``on_run_start``: admission layers admit initial work here, so
        the admission fan-out (``on_admit``) reaches fully-initialized
        peers."""

    def on_event(self, ev: Event) -> None:
        """Handle one event of a kind listed in :attr:`handles`."""

    def on_admit(
        self,
        app_index: int,
        arrival_ms: float,
        app_dfg: "DFG",
        id_map: Mapping[int, int],
    ) -> None:
        """An application's kernels were registered (streaming admission)."""

    def on_kernel_ready(self, kid: int) -> None:
        """A kernel entered the ready set through dependency completion."""

    def on_kernel_start(self, kid: int, proc: str) -> None:
        """A kernel left the ready set and occupied a processor."""

    def on_kernel_finish(self, kid: int, proc: str) -> None:
        """A kernel completed (after successors were marked ready)."""

    def on_kernel_abort(self, kid: int, proc: str) -> None:
        """A kernel's in-flight execution was abandoned (fault/preemption)."""

    def on_entry(self, entry: ScheduleEntry) -> None:
        """A schedule entry was finalized."""

    def observe(self, ctx: SchedulingContext) -> None:
        """Event-boundary observation (before the assignment fixpoint)."""

    def finalize(self) -> None:
        """The run completed; close any open accounting."""

    def stats(self) -> dict[str, object]:
        """Per-run layer statistics, surfaced as ``dynamics_stats[name]``."""
        return {}


#: hooks whose overrides are collected into engine dispatch lists.
_HOOK_NAMES = (
    "on_kernel_ready",
    "on_kernel_start",
    "on_kernel_finish",
    "on_kernel_abort",
    "on_entry",
    "on_admit",
    "observe",
)


class EngineCore:
    """Event queue, clock, processor state and dispatch — nothing else.

    The core is assembled by :class:`~repro.core.simulator.Simulator`:
    construct, :meth:`add_layer` the dynamics chain in order, then
    :meth:`run_loop`.  Admission layers own the kernel tables' content;
    the core owns their lifecycle within the loop.
    """

    def __init__(
        self,
        system: "SystemConfig",
        cost: "CostModel",
        policy: "Policy",
        driver: "DynamicPolicy",
        noise_sigma: float = 0.0,
        noise_seed: int = 0,
    ) -> None:
        self.system = system
        self.cost = cost
        self.policy = policy
        self.driver = driver
        self.noise_sigma = float(noise_sigma)
        self.noise_seed = int(noise_seed)

        self.procs: dict[str, _ProcState] = {p.name: _ProcState() for p in system}
        self.proc_index = {p.name: i for i, p in enumerate(system)}
        self.proc_names = tuple(self.procs)

        # kernel tables (content owned by the admission layer)
        self.graph: "DFG | _ResidentGraph | None" = None
        self.specs: dict[int, Any] = {}
        self.preds_of: dict[int, list[int]] = {}
        self.succs_of: dict[int, list[int]] = {}
        self.arrival_of: dict[int, float] = {}
        self.app_index_of: dict[int, int] = {}
        self.remaining_preds: dict[int, int] = {}
        self.not_arrived: set[int] = set()
        self.noise: dict[int, float] = {}

        self.ready = _ReadyQueue()
        self.ready_time: dict[int, float] = {}
        self.assign_time: dict[int, float] = {}
        self.is_alternative: dict[int, bool] = {}
        self.assignment_of: dict[int, str] = {}
        self.completed: set[int] = set()
        self.exec_history: dict[str, list[float]] = {p.name: [] for p in system}
        self.transfer_memo: dict[tuple[int, str], float] = {}

        self.events = EventQueue()
        self.now = 0.0
        self.n_admitted = 0
        self.n_completed = 0
        self.peak_resident = 0
        self.more_arrivals = False

        self.views: dict[str, ProcessorView] = {}
        self.state_version = 0
        self.time_sensitive = bool(getattr(driver, "time_sensitive", True))
        self._last_empty: tuple[int, float | None] | None = None

        # layer wiring
        self._layers: list[RuntimeDynamics] = []
        self._handlers: dict[EventKind, Callable[[Event], None]] = {}
        # claimed by ContentionDynamics.bind (Any: engine must not
        # depend on the dynamics module)
        self._contention: Any = None
        self._preempt_info: PreemptionInfo | None = None
        self._defer_entries = False
        self._pending_entry: dict[str, ScheduleEntry] = {}
        # start tokens are globally unique (one engine-wide sequence), so
        # a completion event can never match a *different* start — not
        # even after an aborted kernel migrates to another processor
        self._start_seq = 0
        self._live_token: dict[str, int | None] = {p.name: None for p in system}
        self._ready_hooks: list[Callable[[int], None]] = []
        self._start_hooks: list[Callable[[int, str], None]] = []
        self._finish_hooks: list[Callable[[int, str], None]] = []
        self._abort_hooks: list[Callable[[int, str], None]] = []
        self._entry_hooks: list[Callable[[ScheduleEntry], None]] = []
        self._admit_hooks: list[Callable[..., None]] = []
        self._observe_hooks: list[Callable[[SchedulingContext], None]] = []

        for name in self.procs:
            self.refresh_view(name)

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def add_layer(self, layer: RuntimeDynamics) -> RuntimeDynamics:
        """Append one dynamics layer to the chain and wire its hooks."""
        self._layers.append(layer)
        layer.bind(self)
        for kind in layer.handles:
            if kind in self._handlers:
                raise ValueError(
                    f"event kind {kind} already handled by another layer"
                )
            self._handlers[kind] = layer.on_event
        cls = type(layer)
        for hook in _HOOK_NAMES:
            if getattr(cls, hook) is not getattr(RuntimeDynamics, hook):
                getattr(self, _HOOK_LISTS[hook]).append(getattr(layer, hook))
        if layer.aborts:
            self._defer_entries = True
        return layer

    @property
    def layers(self) -> tuple[RuntimeDynamics, ...]:
        return tuple(self._layers)

    def dynamics_stats(self) -> dict[str, dict[str, object]]:
        """Non-empty per-layer statistics, keyed by layer name."""
        out: dict[str, dict[str, object]] = {}
        for layer in self._layers:
            stats = layer.stats()
            if stats:
                out[layer.name] = stats
        return out

    # ------------------------------------------------------------------
    # views and contexts
    # ------------------------------------------------------------------
    def refresh_view(self, name: str) -> None:
        # positional construction — this runs once per processor-state
        # mutation, the hottest object creation in the engine
        st = self.procs[name]
        free_at = st.free_at
        now = self.now
        self.views[name] = ProcessorView(
            self.system[name],
            st.running is not None,
            free_at if free_at > now else now,
            len(st.queue),
            st.running,
            not (st.faulted or st.penalized),
        )

    def make_context(self) -> SchedulingContext:
        # Live references throughout — nothing is copied per invocation.
        return SchedulingContext(
            time=self.now,
            ready=self.ready.as_tuple(),
            dfg=self.graph,  # type: ignore[arg-type]
            system=self.system,
            views=self.views,
            assignment_of=self.assignment_of,
            completed=self.completed,
            exec_history=self.exec_history,
            cost=self.cost,
            predecessors_of=self.preds_of,
            specs_of=self.specs,
            transfer_memo=self.transfer_memo,
            preemption=self._preempt_info,
        )

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def start_if_possible(self, name: str) -> bool:
        """Pop the processor's queue head and start it, if idle."""
        st = self.procs[name]
        if st.running is not None or not st.queue or st.faulted or st.penalized:
            return False
        kid, alternative = st.queue.popleft()
        spec = self.specs[kid]
        now = self.now
        cost = self.cost
        ptype = self.system[name].ptype
        transfer = cost.inbound_transfer(
            self.graph, kid, name, self.assignment_of, self.preds_of[kid]  # type: ignore[arg-type]
        )
        exec_time = cost.exec_time(
            spec.kernel, spec.data_size, ptype
        ) * self.noise.get(kid, 1.0)
        token = self._start_seq = self._start_seq + 1
        self._live_token[name] = token
        if self._contention is not None and transfer > 0.0:
            # One flow per distinct source processor; the kernel computes
            # when the last flow finishes.  free_at holds the uncontended
            # estimate until then.
            st.running = kid
            st.free_at = now + transfer + exec_time
            self.refresh_view(name)
            self.exec_history[name].append(exec_time)
            self._contention.begin(kid, name, spec, exec_time, token)
            for h in self._start_hooks:
                h(kid, name)
            return True
        exec_start = now + transfer
        finish = exec_start + exec_time
        st.running = kid
        st.free_at = finish
        self.refresh_view(name)
        self.exec_history[name].append(exec_time)
        entry = ScheduleEntry(
            kid,
            spec.kernel,
            spec.data_size,
            name,
            ptype.value,
            self.ready_time[kid],
            self.assign_time[kid],
            now,
            exec_start,
            finish,
            self.is_alternative.get(kid, False),
            self.arrival_of[kid],
        )
        if self._defer_entries:
            self._pending_entry[name] = entry
        else:
            self.record_entry(entry)
        for h in self._start_hooks:
            h(kid, name)
        self.events.push(
            Event(finish, EventKind.KERNEL_COMPLETE, payload=(kid, name, token))
        )
        return True

    def record_entry(self, entry: ScheduleEntry) -> None:
        for h in self._entry_hooks:
            h(entry)

    def apply_assignments(self, assignments: list[Assignment]) -> bool:
        progress = False
        touched: set[str] = set()
        for a in assignments:
            if a.kernel_id not in self.ready:
                raise SchedulingError(
                    f"{self.policy.name}: kernel {a.kernel_id} is not ready "
                    f"at t={self.now}"
                )
            if a.processor not in self.procs:
                raise SchedulingError(
                    f"{self.policy.name}: unknown processor {a.processor!r}"
                )
            st = self.procs[a.processor]
            if not a.queued and (
                st.running is not None or st.queue or st.faulted or st.penalized
            ):
                raise SchedulingError(
                    f"{self.policy.name}: non-queued assignment of kernel "
                    f"{a.kernel_id} to busy processor {a.processor} at t={self.now}"
                )
            self.ready.remove(a.kernel_id)
            self.assignment_of[a.kernel_id] = a.processor
            self.assign_time[a.kernel_id] = self.now
            self.is_alternative[a.kernel_id] = a.alternative
            st.queue.append((a.kernel_id, a.alternative))
            self.refresh_view(a.processor)
            touched.add(a.processor)
            progress = True
        if touched:
            self.state_version += 1
            # Start in system declaration order — start order decides
            # event insertion order, which breaks completion-time ties.
            for name in sorted(touched, key=self.proc_index.__getitem__):
                if self.start_if_possible(name):
                    progress = True
        return progress

    # ------------------------------------------------------------------
    # abort support (fault / preemption layers)
    # ------------------------------------------------------------------
    def abort_running(self, name: str) -> int | None:
        """Abandon the kernel running on ``name`` and re-enqueue it.

        The pending completion event is invalidated through the start
        token; any deferred schedule entry is discarded; in-flight
        contended transfers are abandoned (their already-draining flows
        resolve harmlessly and are skipped).  The kernel returns to the
        ready set with its ready time re-anchored at the abort instant,
        and the driver's ``on_abort`` hook (if any) is notified so plan
        dispatchers can re-queue it.  Returns the aborted kernel id, or
        ``None`` if the processor was idle.  The caller is responsible
        for the processor's availability flags and view refresh.
        """
        st = self.procs[name]
        kid = st.running
        if kid is None:
            return None
        self._live_token[name] = None  # pending KERNEL_COMPLETE is now stale
        st.running = None
        self._pending_entry.pop(name, None)
        if self._contention is not None:
            self._contention.abandon(kid)
        self.assignment_of.pop(kid, None)
        self.assign_time.pop(kid, None)
        self.is_alternative.pop(kid, None)
        self.ready_time[kid] = self.now
        self.ready.add(kid)
        self.state_version += 1
        for h in self._abort_hooks:
            h(kid, name)
        on_abort = getattr(self.driver, "on_abort", None)
        if on_abort is not None:
            on_abort(kid)
        return kid

    def elapsed_running_ms(self, name: str) -> float | None:
        """Time the processor's current kernel has occupied it so far
        (transfer included) — available on abort-capable runs, where
        entries are deferred; ``None`` when nothing is running."""
        st = self.procs[name]
        if st.running is None:
            return None
        entry = self._pending_entry.get(name)
        if entry is not None:
            return self.now - entry.transfer_start
        if self._contention is not None:
            pend = self._contention.pending.get(st.running)
            if pend is not None:
                return self.now - pend[3]
        return None

    def flush_queue(self, name: str) -> list[int]:
        """Return every queued (not yet started) kernel to the ready set."""
        st = self.procs[name]
        flushed: list[int] = []
        while st.queue:
            qkid, _ = st.queue.popleft()
            self.assignment_of.pop(qkid, None)
            self.assign_time.pop(qkid, None)
            self.is_alternative.pop(qkid, None)
            self.ready_time[qkid] = self.now
            self.ready.add(qkid)
            on_abort = getattr(self.driver, "on_abort", None)
            if on_abort is not None:
                on_abort(qkid)
            flushed.append(qkid)
        if flushed:
            self.state_version += 1
        return flushed

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def _fixpoint(self) -> None:
        """Assignment fixpoint at the current instant."""
        select = self.driver.select
        ready = self.ready
        time_sensitive = self.time_sensitive
        for _ in range(max(self.n_admitted, 1) * len(self.procs) + 2):
            if ready:
                sig = (self.state_version, self.now if time_sensitive else None)
                if self._last_empty == sig:
                    assignments: list[Assignment] = []
                else:
                    assignments = list(select(self.make_context()))
                    if not assignments:
                        self._last_empty = sig
            else:
                assignments = []
            if not self.apply_assignments(assignments):
                return
        raise SchedulingError(  # pragma: no cover - defensive
            f"{self.policy.name}: assignment loop did not converge at t={self.now}"
        )

    def _complete(self, ev: Event) -> None:
        kid, name, token = ev.payload
        if self._live_token[name] != token:
            return  # stale: that start was aborted by a fault/preemption
        st = self.procs[name]
        if st.running != kid:  # pragma: no cover - defensive
            raise SchedulingError(
                f"completion event for kernel {kid} on {name}, "
                f"but {st.running} is running"
            )
        st.running = None
        self.refresh_view(name)
        self.completed.add(kid)
        self.n_completed += 1
        self.state_version += 1
        if self._defer_entries:
            self.record_entry(self._pending_entry.pop(name))
        remaining_preds = self.remaining_preds
        not_arrived = self.not_arrived
        ready = self.ready
        now = self.now
        for succ in self.succs_of[kid]:
            remaining_preds[succ] -= 1
            if remaining_preds[succ] == 0 and succ not in not_arrived:
                self.ready_time[succ] = now
                ready.add(succ)
                for h in self._ready_hooks:
                    h(succ)
        for h in self._finish_hooks:
            h(kid, name)
        # a queued kernel may start immediately on the freed processor
        self.start_if_possible(name)

    def run_loop(self) -> None:
        """Drive the simulation to completion."""
        for layer in self._layers:
            layer.on_run_start()
        for layer in self._layers:
            layer.on_run_open()
        if len(self._entry_hooks) == 1:
            # single entry sink (the common case): skip the dispatch loop
            self.record_entry = self._entry_hooks[0]  # type: ignore[method-assign]
        events = self.events
        handlers = self._handlers
        observe_hooks = self._observe_hooks
        complete = EventKind.KERNEL_COMPLETE
        while self.n_completed < self.n_admitted or self.more_arrivals:
            self._fixpoint()

            if not events:
                raise SchedulingError(
                    f"{self.policy.name}: deadlock at t={self.now} — "
                    f"{self.n_admitted - self.n_completed} kernels unfinished, "
                    f"no events pending (ready={list(self.ready)})"
                )

            batch = events.pop_simultaneous()
            if batch[0].time != self.now:
                self.now = now = batch[0].time
                # clock moved: idle processors' free_at clamps to the new now
                for vname, view in self.views.items():
                    if view.free_at < now:
                        self.refresh_view(vname)
            for ev in batch:
                self.now = ev.time
                if ev.kind is complete:
                    self._complete(ev)
                else:
                    handlers[ev.kind](ev)
            if observe_hooks and self.ready:
                ctx = self.make_context()
                for h in observe_hooks:
                    h(ctx)
        for layer in self._layers:
            layer.finalize()


#: hook name → engine dispatch-list attribute.
_HOOK_LISTS: Mapping[str, str] = {
    "on_kernel_ready": "_ready_hooks",
    "on_kernel_start": "_start_hooks",
    "on_kernel_finish": "_finish_hooks",
    "on_kernel_abort": "_abort_hooks",
    "on_entry": "_entry_hooks",
    "on_admit": "_admit_hooks",
    "observe": "_observe_hooks",
}
