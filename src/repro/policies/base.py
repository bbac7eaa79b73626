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
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.core.cost import CostModel
from repro.core.lookup import LookupTable
from repro.core.system import Processor, ProcessorType, SystemConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import EngineCore
    from repro.graphs.dfg import DFG


@dataclass(frozen=True)
class Assignment:
    """A policy decision binding a ready kernel to a processor.

    ``queued=False`` (the default) targets an *idle* processor and starts
    immediately.  ``queued=True`` appends to the processor's FIFO queue even
    if it is busy — the Adaptive Greedy policy works this way (§2.5.3).
    ``alternative=True`` marks an APT second-best-processor assignment for
    the Table 15/16 allocation analyses.
    """

    kernel_id: int
    processor: str
    queued: bool = False
    alternative: bool = False


@dataclass(frozen=True)
class ProcessorView:
    """Read-only processor state exposed to policies.

    ``free_at`` is the time the processor finishes everything currently
    started or queued on it (equals the current time when idle).
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
    hot path depends on not copying them).  ``ready`` and ``time`` are
    immutable per invocation.  A policy must consume its context inside
    ``select`` and never cache it across calls.

    Construction accepts either a fully-configured ``cost``
    (:class:`~repro.core.cost.CostModel`) — the simulator's path — or the
    legacy ``lookup``/``element_size``/``transfer_mode`` pieces, from
    which a transfers-enabled model is assembled.
    """

    __slots__ = (
        "time",
        "ready",
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
        "preemption",
    )

    def __init__(
        self,
        time: float,
        ready: Sequence[int],
        dfg: "DFG",
        system: SystemConfig,
        lookup: LookupTable | None = None,
        views: Mapping[str, ProcessorView] = (),  # type: ignore[assignment]
        assignment_of: Mapping[int, str] = (),  # type: ignore[assignment]
        completed: frozenset[int] | set[int] = frozenset(),
        element_size: int = 4,
        transfer_mode: str = "single",
        exec_history: Mapping[str, Sequence[float]] = (),  # type: ignore[assignment]
        cost: CostModel | None = None,
        transfers_enabled: bool = True,
        predecessors_of: Mapping[int, list[int]] | None = None,
        specs_of: "Mapping[int, object] | None" = None,
        transfer_memo: "dict[tuple[int, str], float] | None" = None,
        preemption: PreemptionInfo | None = None,
    ) -> None:
        if cost is None:
            if lookup is None:
                raise TypeError("SchedulingContext needs either cost= or lookup=")
            cost = CostModel(
                system,
                lookup,
                element_size=element_size,
                transfer_mode=transfer_mode,
                transfers_enabled=transfers_enabled,
            )
        self.time = time
        self.ready = tuple(ready)
        self.dfg = dfg
        self.system = system
        self.cost = cost
        self.views = views if views else {}
        self.assignment_of = assignment_of if assignment_of else {}
        self.completed = completed
        self.exec_history = exec_history if exec_history else {}
        self._preds = predecessors_of
        self._specs = specs_of
        self._transfer_memo = transfer_memo
        self.preemption = preemption

    # ------------------------------------------------------------------
    # cost-model passthroughs (back-compat attribute surface)
    # ------------------------------------------------------------------
    @property
    def lookup(self) -> LookupTable:
        return self.cost.lookup

    @property
    def element_size(self) -> int:
        return self.cost.element_size

    @property
    def transfer_mode(self) -> str:
        return self.cost.transfer_mode

    @property
    def transfers_enabled(self) -> bool:
        return self.cost.transfers_enabled

    # ------------------------------------------------------------------
    # derived helpers shared by all policies
    # ------------------------------------------------------------------
    def idle_processors(self) -> list[ProcessorView]:
        """Idle processors, in system declaration order."""
        return [self.views[p.name] for p in self.system if self.views[p.name].idle]

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

    def exec_time_on(self, kernel_id: int, processor: str) -> float:
        return self.exec_time(kernel_id, self.system[processor].ptype)

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
            cached = memo.get((kernel_id, processor))
            if cached is not None:
                return cached
        preds = self._preds[kernel_id] if self._preds is not None else None
        nbytes = (
            self._specs[kernel_id].data_size * self.cost.element_size
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
                memo[(kernel_id, processor)] = value
        return value

    def best_processor_type(self, kernel_id: int) -> tuple[ProcessorType, float]:
        """The lookup table's p_min category and its execution time ``x``."""
        spec = self._spec(kernel_id)
        return self.cost.best_processor(spec.kernel, spec.data_size)

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

        Used by queue-discipline ablations; shares every other field.
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
        )


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

    #: Whether decisions may depend on the *clock* (``ctx.time``, or busy
    #: processors' ``free_at`` measured against it) rather than only on the
    #: ready set and processor states.  The simulator may skip re-invoking a
    #: time-insensitive policy whose last answer was empty when nothing but
    #: the clock has changed since (pure streaming-arrival events).  The
    #: conservative default — ``True`` — never skips on time advance; the
    #: built-in policies override it except APT-RT, whose remaining-time
    #: check reads the clock.
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

    @property
    def is_dynamic(self) -> bool:
        return True

    @abc.abstractmethod
    def select(self, ctx: SchedulingContext) -> list[Assignment]:
        """Return assignments for (a subset of) the ready kernels.

        Called repeatedly until it returns no new assignment at the current
        time; it must therefore be idempotent on an unchanged context.
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
