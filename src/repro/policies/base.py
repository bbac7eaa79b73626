"""Scheduling-policy interface.

The paper studies two families (§2.5.2):

* **dynamic** policies see only the current system state — the ready set
  ``I`` and the processor states — and make assignments on the fly;
* **static** policies see the whole DFG up front, compute a full plan
  (kernel → processor, plus an ordering), and the system then follows it.

Both are driven by the same :class:`~repro.core.simulator.Simulator`:
dynamic policies implement :meth:`DynamicPolicy.select`, static ones
implement :meth:`StaticPolicy.plan` and the simulator dispatches the plan.

Every cost question — execution times, transfer times, best-processor
queries — is answered by the simulator's single
:class:`~repro.core.cost.CostModel`, threaded into dynamic policies via
:attr:`SchedulingContext.cost` and into static policies as the ``cost``
argument of :meth:`StaticPolicy.plan`.  Planning, dynamic selection and
execution therefore always price an assignment identically (including
the ``transfers_enabled=False`` mode, where every transfer is 0).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Collection, Mapping, NamedTuple, Sequence

from repro.core.cost import ELEMENT_SIZE, CostModel, CostRow
from repro.core.system import Processor, ProcessorType, SystemConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import EngineCore
    from repro.graphs.dfg import DFG


class Assignment(NamedTuple):
    """A policy decision binding a ready kernel to a processor.

    ``queued=False`` (the default) targets an *idle* processor and starts
    immediately.  ``queued=True`` appends to the processor's FIFO queue even
    if it is busy — the Adaptive Greedy policy works this way (§2.5.3).
    ``alternative=True`` marks an APT second-best-processor assignment for
    the Table 15/16 allocation analyses.  An immutable tuple, like the
    other per-kernel records.
    """

    kernel_id: int
    processor: str
    queued: bool = False
    alternative: bool = False


class ProcessorView(NamedTuple):
    """Read-only processor state exposed to policies (an immutable tuple).

    ``free_at`` is the time the processor's running kernel is expected
    to finish; for an idle processor it is the instant the processor
    went idle (≤ ``ctx.time``).  A view changes only when its processor
    does, never because the clock moved: use
    :meth:`SchedulingContext.free_at` for the earliest instant the
    processor can start new work.
    ``available`` is false while the processor is out of service — failed
    and awaiting repair (:class:`~repro.core.dynamics.FaultDynamics`) or
    paying a preemption context-switch penalty; ``free_at`` then reports
    the expected return-to-service time.  An unavailable processor is
    never :attr:`idle`.
    """

    processor: Processor
    busy: bool
    free_at: float
    queue_length: int
    running_kernel: int | None
    available: bool = True

    @property
    def name(self) -> str:
        return self.processor.name

    @property
    def ptype(self) -> ProcessorType:
        return self.processor.ptype

    @property
    def idle(self) -> bool:
        return not self.busy and self.queue_length == 0 and self.available


class PreemptionInfo:
    """Preemption window exposed to policies via ``ctx.preemption``.

    Present (non-``None``) only when the run carries a
    :class:`~repro.core.dynamics.PreemptionDynamics` layer.
    ``penalty_ms`` is the context-switch cost a granted preemption
    charges to the preempted processor before it can dispatch again;
    :meth:`elapsed_ms` lets a policy weigh the work an eviction would
    discard (preempted kernels restart from scratch).
    """

    __slots__ = ("penalty_ms", "_engine")

    def __init__(self, penalty_ms: float, engine: "EngineCore | None" = None) -> None:
        self.penalty_ms = float(penalty_ms)
        self._engine = engine

    def elapsed_ms(self, processor: str) -> float | None:
        """How long the processor's current kernel has been occupying it
        (inbound transfer included), or ``None`` if nothing is running —
        the work a preemption would discard."""
        if self._engine is None:
            return None
        return self._engine.elapsed_running_ms(processor)


class SchedulingContext:
    """Everything a dynamic policy may inspect when invoked.

    The ready set is ordered first-come-first-serve — by the time each
    kernel's dependencies completed, ties broken by kernel id (arrival
    order), matching the paper's queue discipline (§3.1).

    Contexts are *views*, not snapshots: ``views``, ``assignment_of``,
    ``completed`` and ``exec_history`` may be live structures the
    simulator keeps updating between policy invocations (the incremental
    hot path depends on not copying them).  The engine builds *one*
    context per simulation and, before each ask (``select``, and the
    dynamics layers' ``observe``), only :meth:`refresh`-es its clock and
    ready set; ``ready`` is read on first access, and the engine never
    changes the ready set while a policy holds the context.  So read
    ``ctx.ready`` and ``ctx.time`` inside ``select``: a context kept
    after ``select`` returns is the same object the engine goes on
    refreshing, and follows the engine's later states.

    ``cost_row(kid)`` is the kernel's
    :class:`~repro.core.cost.CostRow`: from the engine's table of
    admitted kernels when given ``rows``, else from the cost model.

    ``ready_by_type`` is the engine's candidate index, present only when
    the driving policy overrides :meth:`DynamicPolicy.placement_types`:
    per processor category, the ready kernels filed under it, each
    mapped to its ready-set sequence number, in FCFS order.  It is
    ``None`` on every other context (hand-built ones, :meth:`with_ready`,
    the reference simulator).
    """

    __slots__ = (
        "time",
        "_ready",
        "ready_by_type",
        "dfg",
        "system",
        "cost",
        "views",
        "assignment_of",
        "completed",
        "exec_history",
        "_preds",
        "_specs",
        "_transfer_memo",
        "_rows",
        "_index",
        "preemption",
    )

    def __init__(
        self,
        time: float,
        ready: "Sequence[int] | Callable[[], tuple[int, ...]]",
        dfg: "DFG",
        system: SystemConfig,
        cost: CostModel,
        views: Mapping[str, ProcessorView] | None = None,
        assignment_of: Mapping[int, str] | None = None,
        completed: frozenset[int] | set[int] = frozenset(),
        exec_history: Mapping[str, Sequence[float]] | None = None,
        predecessors_of: Mapping[int, list[int]] | None = None,
        specs_of: "Mapping[int, object] | None" = None,
        transfer_memo: "dict[int, dict[str, float]] | None" = None,
        preemption: PreemptionInfo | None = None,
        ready_by_type: "Mapping[ProcessorType, Mapping[int, int]] | None" = None,
        rows: "Mapping[int, CostRow] | None" = None,
    ) -> None:
        self.time = time
        # ``ready`` is the kernels themselves, or a function returning
        # them that is called on first access (the engine's O(1) path)
        self._ready: "tuple[int, ...] | Callable[[], tuple[int, ...]]" = (
            ready if callable(ready) else tuple(ready)
        )
        self.ready_by_type = ready_by_type
        self.dfg = dfg
        self.system = system
        self.cost = cost
        # a mapping passed in is kept even when empty: it may be live
        self.views: Mapping[str, ProcessorView] = {} if views is None else views
        self.assignment_of: Mapping[int, str] = (
            {} if assignment_of is None else assignment_of
        )
        self.completed = completed
        self.exec_history: Mapping[str, Sequence[float]] = (
            {} if exec_history is None else exec_history
        )
        self._preds = predecessors_of
        self._specs = specs_of
        self._transfer_memo = transfer_memo
        self._rows = rows
        self._index = system.index_by_name
        self.preemption = preemption

    def refresh(
        self, time: float, ready: "Callable[[], tuple[int, ...]]"
    ) -> "SchedulingContext":
        """Point this live context at the engine's next ask: the clock
        and a fresh ready thunk; every other field is a live reference
        already.  Returns the context."""
        self.time = time
        self._ready = ready
        return self

    @property
    def ready(self) -> tuple[int, ...]:
        """The ready kernels in FCFS order."""
        ready = self._ready
        if callable(ready):
            ready = self._ready = ready()
        return ready

    # ------------------------------------------------------------------
    # derived helpers shared by all policies
    # ------------------------------------------------------------------
    def idle_processors(self) -> list[ProcessorView]:
        """Idle processors, in system declaration order."""
        return [self.views[p.name] for p in self.system if self.views[p.name].idle]

    def free_at(self, processor: str) -> float:
        """The earliest instant ``processor`` can start new work.

        Its view's ``free_at`` clamped to the clock: an idle view keeps
        the instant its processor went idle, and a running kernel whose
        contended transfer outlasts the uncontended estimate leaves that
        estimate behind ``ctx.time``.
        """
        free_at = self.views[processor].free_at
        time = self.time
        return free_at if free_at > time else time

    def available(self, processor: str) -> bool:
        """Whether ``processor`` is in service (not failed / penalized).

        Always true on runs without fault-injection or preemption
        dynamics; see :attr:`ProcessorView.available`.
        """
        return self.views[processor].available

    def available_processors(self) -> list[ProcessorView]:
        """In-service processors, in system declaration order."""
        return [
            self.views[p.name] for p in self.system if self.views[p.name].available
        ]

    def _spec(self, kernel_id: int) -> Any:
        if self._specs is not None:
            return self._specs[kernel_id]
        return self.dfg.spec(kernel_id)

    def spec(self, kernel_id: int) -> Any:
        """The kernel's :class:`~repro.graphs.dfg.KernelSpec`.

        Policies should use this (not ``ctx.dfg.spec``): in the
        open-system streaming path the context exposes only *arrived*
        work, and this accessor is backed by the simulator's resident
        tables rather than a full materialized graph.
        """
        return self._spec(kernel_id)

    def predecessors(self, kernel_id: int) -> list[int]:
        """Dependency predecessors of a kernel (precomputed when possible)."""
        if self._preds is not None:
            return self._preds[kernel_id]
        return self.dfg.predecessors(kernel_id)

    def exec_time(self, kernel_id: int, ptype: ProcessorType) -> float:
        spec = self._spec(kernel_id)
        return self.cost.exec_time(spec.kernel, spec.data_size, ptype)

    def cost_row(self, kernel_id: int) -> CostRow:
        """The kernel's :class:`~repro.core.cost.CostRow` (its time on
        every processor, its p_min category and ``x``)."""
        rows = self._rows
        if rows is not None:
            return rows[kernel_id]
        spec = self._spec(kernel_id)
        return self.cost.cost_row(spec.kernel, spec.data_size)

    def exec_time_on(self, kernel_id: int, processor: str) -> float:
        return self.cost_row(kernel_id).times[self._index[processor]]

    def data_bytes(self, kernel_id: int) -> int:
        return self.cost.data_bytes(self._spec(kernel_id).data_size)

    def transfer_time(self, kernel_id: int, processor: str) -> float:
        """Inbound transfer time if ``kernel_id`` were assigned to ``processor``.

        Exactly the simulator's transfer model (same
        :class:`~repro.core.cost.CostModel` object): nothing to move when
        all predecessors ran on the target processor, there are none, or
        the run disabled transfers.

        When the simulator supplied a run-level memo, answers for kernels
        whose predecessors have all completed are cached — their
        predecessors' placements can never change again, so the value is
        final for the rest of the run.
        """
        memo = self._transfer_memo
        if memo is not None:
            known = memo.get(kernel_id)
            if known is not None:
                cached = known.get(processor)
                if cached is not None:
                    return cached
        preds = self._preds[kernel_id] if self._preds is not None else None
        nbytes = (
            self._specs[kernel_id].data_size * ELEMENT_SIZE
            if self._specs is not None
            else None
        )
        value = self.cost.inbound_transfer(
            self.dfg, kernel_id, processor, self.assignment_of, preds, nbytes
        )
        if memo is not None:
            if preds is None:
                preds = self.dfg.predecessors(kernel_id)
            if all(p in self.completed for p in preds):
                memo.setdefault(kernel_id, {})[processor] = value
        return value

    def best_processor_type(self, kernel_id: int) -> tuple[ProcessorType, float]:
        """The lookup table's p_min category and its execution time ``x``."""
        row = self.cost_row(kernel_id)
        return row.best_ptype, row.x

    # ------------------------------------------------------------------
    # route-aware queries (topology systems; see repro.core.topology)
    # ------------------------------------------------------------------
    @property
    def topology(self) -> Any:
        """The system's interconnect graph, or ``None`` on flat systems."""
        return self.system.topology

    def route(self, src: str, dst: str) -> Any:
        """The interconnect route between two processors.

        ``None`` on flat (non-topology) systems — there every pair is a
        direct link.  On topology systems this is the precomputed
        :class:`~repro.core.topology.Route`, exposing the hop list, the
        contention channels it crosses, its bottleneck bandwidth and its
        latency — what a contention-aware policy needs to predict which
        prospective assignments would load the same channel.
        """
        return self.cost.route(src, dst)

    def transfer_sources(self, kernel_id: int, processor: str) -> list[str]:
        """Distinct processors data would flow *from* under this assignment.

        The already-placed predecessors of ``kernel_id`` that executed on
        a different processor than ``processor`` (deduplicated, in
        predecessor order), filtered exactly like the simulator's
        contended-transfer path (the shared
        :meth:`~repro.core.cost.CostModel.transfer_flow_sources`):
        sources whose route charges nothing (infinite bandwidth, zero
        latency — or transfers disabled) open no flow and are omitted.
        Combine with :meth:`route` to see which channels the
        assignment's inbound transfers would occupy.
        """
        preds = self.predecessors(kernel_id)
        if not preds:
            return []
        return self.cost.transfer_flow_sources(
            preds, self.assignment_of, processor, self.data_bytes(kernel_id)
        )

    def with_ready(self, ready: Sequence[int]) -> "SchedulingContext":
        """A sibling context exposing a reordered/filtered ready set.

        Used by queue-discipline ablations; a new object sharing every
        other field except the candidate index, which describes the
        engine's FCFS ready set, not ``ready``.
        """
        return SchedulingContext(
            time=self.time,
            ready=ready,
            dfg=self.dfg,
            system=self.system,
            views=self.views,
            assignment_of=self.assignment_of,
            completed=self.completed,
            exec_history=self.exec_history,
            cost=self.cost,
            predecessors_of=self._preds,
            specs_of=self._specs,
            transfer_memo=self._transfer_memo,
            preemption=self.preemption,
            rows=self._rows,
        )


def ready_by_times(ctx: SchedulingContext) -> dict[tuple[float, ...], list[int]]:
    """The ready kernels grouped by their cost rows' exec times.

    Each distinct ``times`` tuple maps to the positions, in
    ``ctx.ready``, of the kernels whose row carries it, in FCFS order;
    groups are in the order of their first kernel.  Kernels of one group
    price identically on every processor, so a policy scoring only exec
    times need score just each group's first kernel.
    """
    groups: dict[tuple[float, ...], list[int]] = {}
    cost_row = ctx.cost_row
    for pos, kid in enumerate(ctx.ready):
        groups.setdefault(cost_row(kid).times, []).append(pos)
    return groups


@dataclass(frozen=True)
class StaticPlan:
    """A static policy's full schedule plan.

    ``processor_of`` maps each kernel to a processor; ``priority`` gives
    the dispatch order (lower = earlier).  Kernels bound to one processor
    are executed strictly in ascending priority.
    """

    processor_of: Mapping[int, str]
    priority: Mapping[int, int]
    planned_start: Mapping[int, float] = field(default_factory=dict)
    planned_finish: Mapping[int, float] = field(default_factory=dict)

    def validate(self, dfg: "DFG", system: SystemConfig) -> None:
        kernels = set(dfg.kernel_ids())
        if set(self.processor_of) != kernels:
            raise ValueError("static plan must assign every kernel exactly once")
        if set(self.priority) != kernels:
            raise ValueError("static plan must rank every kernel")
        for kid, proc in self.processor_of.items():
            if proc not in system:
                raise ValueError(f"plan assigns kernel {kid} to unknown processor {proc}")
        ranks = sorted(self.priority.values())
        if len(set(ranks)) != len(ranks):
            raise ValueError("plan priorities must be unique")


class Policy(abc.ABC):
    """Base class of every scheduling policy."""

    #: short identifier used in tables and the CLI (e.g. ``"apt"``).
    name: str = "policy"

    #: Whether decisions may depend on the *clock* (``ctx.time``, or
    #: :meth:`SchedulingContext.free_at`, which clamps views to it) rather
    #: than only on the ready set and processor views, which change only
    #: when their processor does.  The simulator may skip re-invoking a
    #: time-insensitive policy whose last answer was empty when nothing but
    #: the clock has changed since (pure streaming-arrival events).  The
    #: conservative default — ``True`` — never skips on time advance; the
    #: built-in policies override it except APT-RT, whose remaining-time
    #: check reads the clock.  Whether one answer places everything is a
    #: separate promise, :attr:`DynamicPolicy.settles`: a clock-blind
    #: policy may still place one kernel per call.
    time_sensitive: bool = True

    def reset(self) -> None:
        """Clear per-run state.  Called by the simulator before each run."""

    def stats(self) -> dict[str, object]:
        """Per-run policy statistics (e.g. APT's alternative assignments)."""
        return {}

    @property
    @abc.abstractmethod
    def is_dynamic(self) -> bool:
        """Whether the policy decides online (vs planning on the full DFG)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class DynamicPolicy(Policy):
    """A policy invoked with the live system state on every event."""

    #: Whether one :meth:`select` call returns every assignment the policy
    #: would make in the current state.  Asked again right after those
    #: assignments are applied, with nothing else changed, a settling
    #: policy would return nothing and change no state of its own (no RNG
    #: draw, counter or cursor), so the engine does not ask again.  The
    #: conservative default — ``False`` — re-asks until an answer is
    #: empty.  Every built-in dynamic policy settles except APT-RT: its
    #: remaining-time bound sees p_min's new finish time only once its own
    #: assignment to p_min is applied, and the re-ask may then place a
    #: waiting kernel on an alternative.
    settles: bool = False

    @property
    def is_dynamic(self) -> bool:
        return True

    @abc.abstractmethod
    def select(self, ctx: SchedulingContext) -> list[Assignment]:
        """Return assignments for (a subset of) the ready kernels.

        Asked again after its assignments are applied, until it returns
        none at the current time — or, for a policy that :attr:`settles`,
        once per state.  It must be idempotent on an unchanged context.
        Read ``ctx.ready`` and ``ctx.time`` here: the engine passes the
        same live context to every ask of a run, so a context kept past
        this call follows the engine's later states.
        """

    def preempt(self, ctx: SchedulingContext) -> Sequence[str]:
        """Processors whose running kernel this policy wants preempted.

        Consulted once per event boundary, and only on runs carrying a
        :class:`~repro.core.dynamics.PreemptionDynamics` layer
        (``ctx.preemption`` is then non-``None``).  A granted preemption
        aborts the processor's running kernel (it returns to the ready
        set and the policy is re-consulted — the migration path) and
        blocks the processor for ``ctx.preemption.penalty_ms``.
        Invalid requests (idle or out-of-service processors) are ignored.
        The default preempts nothing.
        """
        return ()

    def placement_types(
        self, kernel: str, data_size: int, cost: CostModel
    ) -> Collection[ProcessorType] | None:
        """The processor categories :meth:`select` could ever place a
        kernel of this cost class on, or ``None`` for no candidate index.

        A policy that overrides this opts into the engine's candidate
        index: the engine calls it once per cost class ``(kernel,
        data_size)`` and files every ready kernel in one FCFS bucket per
        category returned, exposed as ``ctx.ready_by_type``.  The result
        must include *every* category ``select`` could place the kernel
        on; a policy may then skip the kernels filed only under
        categories with no free processor.  The default returns ``None``:
        no index, and no bucket upkeep.
        """
        return None

    def on_abort(self, kid: int) -> None:
        """A kernel this policy had placed was aborted (fault/preemption).

        The kernel is back in the ready set with a cleared assignment;
        stateful drivers (e.g. static-plan dispatchers) use this to
        re-queue it.  The default does nothing.
        """


class StaticPolicy(Policy):
    """A policy that plans the full schedule before execution."""

    @property
    def is_dynamic(self) -> bool:
        return False

    @abc.abstractmethod
    def plan(self, dfg: "DFG", cost: CostModel) -> StaticPlan:
        """Compute the full kernel→processor plan for ``dfg``.

        ``cost`` is the simulator's :class:`~repro.core.cost.CostModel` —
        the *same* object that will price the execution, so plans budget
        exactly the costs the run charges (zero transfers when the run
        disables them).  The hardware platform is ``cost.system``.
        """
