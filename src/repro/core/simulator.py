"""The heterogeneous-system simulator — a facade over the layered engine.

This is the engine the paper describes in §3.2: processors execute
kernels whose durations come from the lookup table; data moves over
PCIe-style links; a scheduling policy decides the kernel→processor
mapping; and the run produces a schedule log plus the statistical metrics
of §3.2 (makespan, per-processor compute/transfer/idle time, λ delays).

Execution model
---------------
Since the engine/dynamics split, the simulation is layered (full tour in
``docs/architecture.md``):

* :class:`~repro.core.engine.EngineCore` owns the mechanics every run
  shares — event queue, clock, per-processor dispatch state, the ready
  set, the policy fixpoint, kernel completion;
* an ordered chain of :class:`~repro.core.engine.RuntimeDynamics`
  layers contributes everything else through a narrow hook protocol:
  admission (:class:`~repro.core.dynamics.BatchAdmission` for one
  pre-merged DFG, :class:`~repro.core.dynamics.StreamAdmission` for
  open-system arrival sources), contended transfers
  (:class:`~repro.core.dynamics.ContentionDynamics`), bounded-memory
  state eviction (:class:`~repro.core.dynamics.RetirementDynamics`),
  metric/service accounting
  (:class:`~repro.core.dynamics.MetricsDynamics`), and the optional
  runtime perturbations — fault injection
  (:class:`~repro.core.dynamics.FaultDynamics`) and preemption
  (:class:`~repro.core.dynamics.PreemptionDynamics`) — passed through
  the ``dynamics=`` parameter.

:class:`Simulator` assembles that stack per run.  With no extra
dynamics, the layered engine performs the *same sequence* of event
pushes, policy invocations and state mutations as the pre-split
monolith: bit-for-bit identical schedules, asserted against
``repro.core.reference.ReferenceSimulator`` (the pre-refactor loop kept
as an oracle) in ``tests/test_simulator_equivalence.py``.

Scheduling semantics (unchanged by the split):

* Every processor owns a FIFO dispatch queue.  Policies that only assign
  to idle processors (APT, MET, SPN, SS, and the static plans) keep queues
  at length ≤ 1; Adaptive Greedy queues kernels onto busy processors.
* When a processor picks up a kernel, the kernel's *inbound data transfer*
  runs first (if any predecessor executed elsewhere), then the kernel
  computes for its lookup-table time.  The processor is occupied for both
  phases.
* A kernel becomes **ready** the instant its last predecessor finishes;
  its λ delay is the gap from that instant to the start of its execution.
* The policy is (re-)invoked after every batch of simultaneous events and
  after each round of assignments, until no further assignment is made —
  so a policy always sees the maximal ready set and the true idle set.

All costs — execution lookups, transfer times, the ``transfers_enabled``
switch — live in one :class:`~repro.core.cost.CostModel` built from the
simulator's configuration and threaded through static planning
(:meth:`~repro.policies.base.StaticPolicy.plan`), dynamic selection
(:attr:`~repro.policies.base.SchedulingContext.cost`) and execution, so
every layer prices an assignment identically.

The inner loop is *incremental*, built for million-kernel streams and
many-processor systems: processor views are rebuilt only on change, the
ready queue is an order-preserving set with O(1) membership and removal,
per-kernel lookup queries are memoized in the cost model, and a policy
whose last answer was empty is not re-invoked until something it can
observe has changed (:attr:`~repro.policies.base.Policy.time_sensitive`).
Unused layer hooks are never dispatched, so the layering adds no
per-event tax (gated in ``benchmarks/test_bench_simulator_scale.py``).

Contended transfers
-------------------
When the system carries a :class:`~repro.core.topology.Topology` with
``contention=True``, inbound transfers become first-class events instead
of a fixed up-front charge: each cross-processor predecessor placement
opens one *flow* over its precomputed route; concurrent flows sharing a
channel split its bandwidth equally (fair share), and shares are
recomputed exactly at transfer start/finish events
(:class:`~repro.core.topology.ContentionManager`).  A flow's route
latency elapses first (``TRANSFER_START``), then the flow drains;
completion events are *versioned* and stale ones (superseded by a
reshare) are skipped.  The kernel computes once its last flow finishes.
A run in which no two flows ever overlap on a shared channel charges
exactly the uncontended route times; topologies with ``contention=False``
(and all flat systems) keep the original fixed-charge path untouched —
that is the bit-for-bit equivalence guarantee the paper-number tests
rest on.  While a transfer is in flight its processor's ``free_at`` is
the *uncontended* estimate, corrected when the flow set resolves.

Open-system streams
-------------------
:meth:`Simulator.run` consumes one pre-merged DFG — the *closed* form,
which caps stream length by memory.  :meth:`Simulator.run_stream`
consumes an :class:`~repro.graphs.sources.ArrivalSource` instead: each
application's kernels are admitted when its ``APP_ARRIVAL`` event fires
(renumbered exactly as :meth:`~repro.graphs.streams.ApplicationStream.
merged` would) and retired once completed with every successor started,
so peak resident state tracks the stream's concurrency, not its length.
Results carry per-application service metrics (response time, slowdown,
throughput — :class:`~repro.core.metrics.ServiceMetrics`) and an
:class:`~repro.core.energy.EnergyReport` beside the paper's schedule
metrics, and the produced schedules are bit-for-bit identical to running
the merged DFG through :meth:`Simulator.run`.

Runtime dynamics (faults, preemption)
-------------------------------------
``dynamics=`` accepts :class:`~repro.core.dynamics.DynamicsSpec` items
(rebuilt fresh each run — the serializable form scenarios and sweep jobs
carry) or :class:`~repro.core.engine.RuntimeDynamics` instances (custom
layers; all per-run state must be initialized in ``on_run_start``).
Fault injection aborts and re-enqueues in-flight kernels on failed
processors; preemption lets the driving policy evict a running kernel at
an event boundary under a context-switch penalty.  Results then carry
``dynamics_stats`` (availability, fault/preemption counts).  Runs whose
dynamics can abort kernels record schedule entries at *completion*
rather than start, so abandoned attempts never pollute the log; aborted
work re-runs from scratch (restart semantics).

Determinism: given the same DFG, system, lookup table, policy and
dynamics configuration, a run is bit-for-bit reproducible — fault traces
are seeded per processor and independent of policy decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.cost import CostModel
from repro.core.dynamics import (
    BatchAdmission,
    ContentionDynamics,
    DynamicsSpec,
    MetricsDynamics,
    RetirementDynamics,
    StreamAdmission,
    build_dynamics,
)
from repro.core.energy import (
    DEFAULT_POWER_MODEL,
    EnergyReport,
    PowerModel,
    energy_from_metrics,
)
from repro.core.engine import EngineCore, RuntimeDynamics, SchedulingError
from repro.core.lookup import LookupTable
from repro.core.metrics import (
    ServiceMetrics,
    SimulationMetrics,
    compute_metrics,
    compute_service_metrics,
    stream_app_spans,
)
from repro.core.schedule import Schedule
from repro.core.system import SystemConfig
from repro.core.trace import StateTrace
from repro.graphs.dfg import DFG
from repro.policies.base import DynamicPolicy, Policy, StaticPolicy
from repro.policies.plan import PlanDispatcher

__all__ = [
    "SchedulingError",
    "SimulationResult",
    "Simulator",
    "StreamResult",
    "StreamStats",
]


@dataclass(frozen=True)
class StreamStats:
    """Bounded-memory bookkeeping of one ``run_stream`` execution.

    ``peak_resident_kernels`` is the high-water mark of kernels whose
    graph/bookkeeping state was held at once; for a lazily-generated
    stream it tracks the stream's *concurrency* (arrival rate × service
    time), not its length — the open-system memory guarantee asserted in
    ``tests/test_simulator_stream.py``.
    """

    n_applications: int
    n_kernels: int
    retired_kernels: int
    peak_resident_kernels: int


@dataclass(frozen=True)
class StreamResult:
    """Everything an open-system (``run_stream``) run produced.

    ``schedule`` is ``None`` when the run was asked not to retain the
    per-kernel log (``retain_schedule=False`` — the bounded-memory mode);
    ``metrics``, ``service`` and ``energy`` are computed either way,
    identically.  ``dynamics_stats`` carries per-layer statistics of any
    extra runtime dynamics (fault availability, preemption counts).
    """

    schedule: Schedule | None
    metrics: SimulationMetrics
    service: ServiceMetrics
    stream: StreamStats
    policy_name: str
    policy_stats: dict[str, object]
    source_name: str
    trace: StateTrace | None = None
    energy: EnergyReport | None = None
    dynamics_stats: Mapping[str, dict[str, object]] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        return self.metrics.makespan


@dataclass(frozen=True)
class SimulationResult:
    """Everything a run produced."""

    schedule: Schedule
    metrics: SimulationMetrics
    policy_name: str
    policy_stats: dict[str, object]
    dfg_name: str
    trace: StateTrace | None = None
    dynamics_stats: Mapping[str, dict[str, object]] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        return self.metrics.makespan

    @property
    def total_lambda(self) -> float:
        return self.metrics.lambda_stats.total

    @property
    def avg_lambda(self) -> float:
        return self.metrics.lambda_stats.average


class Simulator:
    """Discrete-event simulator of a heterogeneous system.

    Parameters
    ----------
    system:
        The hardware platform.
    lookup:
        Execution-time table; must cover every kernel type the DFGs use.
    element_size:
        Bytes per data element, for transfer times (default 4 — single-
        precision words, matching the OpenCL kernels the paper measures).
    transfer_mode:
        ``"single"`` (default): one inbound transfer of the kernel's data,
        i.e. the max over cross-processor predecessors — the paper's
        ``d_jk`` edge-cost model.  ``"per_predecessor"``: transfers from
        distinct predecessors serialize (sum).
    transfers_enabled:
        Set false to zero all transfer times (the Figure 5 example does
        this: "to simplify the example, we do not consider transfer
        times").  The zero applies *everywhere*: static planning, dynamic
        policies' transfer estimates and execution all consult the same
        :class:`~repro.core.cost.CostModel`.
    collect_trace:
        Record a :class:`~repro.core.trace.StateTrace` of the run.
    exec_noise_sigma:
        Standard deviation of multiplicative log-normal noise applied to
        *actual* execution times.  Policies keep deciding on the clean
        lookup-table estimates — this models the estimation error a real
        deployment faces (the lookup table is a point estimate; runs
        jitter).  0 (default) reproduces the paper's noise-free setting.
    noise_seed:
        Seed of the noise stream (re-seeded per run, so runs stay
        deterministic and comparable across policies).
    dynamics:
        Extra :class:`~repro.core.engine.RuntimeDynamics` layers (or
        their declarative :class:`~repro.core.dynamics.DynamicsSpec`
        forms) appended to the standard stack on every run — fault
        injection, preemption, or custom layers.
    power_model:
        Power model for the energy report of ``run_stream`` results
        (default: the paper-device :data:`~repro.core.energy.
        DEFAULT_POWER_MODEL`).
    """

    def __init__(
        self,
        system: SystemConfig,
        lookup: LookupTable,
        element_size: int = 4,
        transfer_mode: str = "single",
        transfers_enabled: bool = True,
        collect_trace: bool = False,
        exec_noise_sigma: float = 0.0,
        noise_seed: int = 0,
        dynamics: "Sequence[RuntimeDynamics | DynamicsSpec] | None" = None,
        power_model: PowerModel | None = None,
    ) -> None:
        if exec_noise_sigma < 0:
            raise ValueError("exec_noise_sigma must be >= 0")
        topo = system.topology
        if (
            topo is not None
            and topo.contended
            and transfers_enabled
            and transfer_mode != "single"
        ):
            raise ValueError(
                "contended topologies model one concurrent flow per "
                "predecessor source, which is the 'single' (max) transfer "
                f"mode; transfer_mode={transfer_mode!r} is not supported"
            )
        # CostModel validates transfer_mode and element_size.
        self.cost = CostModel(
            system,
            lookup,
            element_size=element_size,
            transfer_mode=transfer_mode,
            transfers_enabled=transfers_enabled,
        )
        self.system = system
        self.lookup = lookup
        self.element_size = self.cost.element_size
        self.transfer_mode = transfer_mode
        self.transfers_enabled = transfers_enabled
        self.collect_trace = collect_trace
        self.exec_noise_sigma = float(exec_noise_sigma)
        self.noise_seed = int(noise_seed)
        self.dynamics = tuple(dynamics or ())
        self.power_model = power_model if power_model is not None else DEFAULT_POWER_MODEL

    # ------------------------------------------------------------------
    # engine assembly
    # ------------------------------------------------------------------
    def _contended(self) -> bool:
        topo = self.system.topology
        return topo is not None and topo.contended and self.transfers_enabled

    def _build_engine(
        self,
        policy: Policy,
        driver: DynamicPolicy,
        admission: RuntimeDynamics,
        metrics: MetricsDynamics,
        retirement: RetirementDynamics | None = None,
    ) -> EngineCore:
        """Assemble the layer chain: admission → contention → extra
        dynamics → retirement → metrics."""
        engine = EngineCore(
            self.system,
            self.cost,
            policy,
            driver,
            noise_sigma=self.exec_noise_sigma,
            noise_seed=self.noise_seed,
        )
        engine.add_layer(admission)
        if self._contended():
            engine.add_layer(ContentionDynamics(self.system.topology))
        for layer in build_dynamics(self.dynamics):
            engine.add_layer(layer)
        if retirement is not None:
            engine.add_layer(retirement)
        engine.add_layer(metrics)
        return engine

    def _has_aborting_dynamics(self) -> bool:
        from repro.core.dynamics import DYNAMICS_KINDS

        for item in self.dynamics:
            if isinstance(item, DynamicsSpec):
                if DYNAMICS_KINDS[item.kind].aborts:
                    return True
            elif getattr(item, "aborts", False):
                return True
        return False

    # ------------------------------------------------------------------
    def run(
        self,
        dfg: DFG,
        policy: Policy,
        arrivals: dict[int, float] | None = None,
    ) -> SimulationResult:
        """Simulate ``dfg`` under ``policy`` and return the full result.

        ``arrivals`` optionally maps kernel ids to the time they enter the
        system (default 0 — the paper's submitted-at-once stream).  A
        kernel becomes ready only once it has arrived *and* its
        predecessors completed; λ is anchored at arrival.  Static policies
        still plan on the full DFG — on streaming workloads they act as a
        clairvoyant upper baseline, which the caller should keep in mind.
        """
        if not isinstance(policy, (DynamicPolicy, StaticPolicy)):
            raise TypeError(
                f"policy must be a DynamicPolicy or StaticPolicy, got {type(policy)!r}"
            )
        dfg.validate()
        if arrivals:
            for kid, t in arrivals.items():
                if kid not in dfg:
                    raise KeyError(f"arrival for unknown kernel {kid}")
                if t < 0:
                    raise ValueError(f"arrival time must be >= 0 (kernel {kid}: {t})")
        policy.reset()
        if dfg.is_empty():
            schedule = Schedule()
            return SimulationResult(
                schedule=schedule,
                metrics=compute_metrics(schedule, self.system),
                policy_name=policy.name,
                policy_stats=policy.stats(),
                dfg_name=dfg.name,
                trace=StateTrace([]) if self.collect_trace else None,
            )

        driver: DynamicPolicy
        if isinstance(policy, StaticPolicy):
            # The plan prices assignments with the run's own cost model —
            # in particular, zero transfer costs when transfers are
            # disabled (this used to leak face-value transfer budgets into
            # transfers-disabled plans).
            plan = policy.plan(dfg, self.cost)
            plan.validate(dfg, self.system)
            driver = PlanDispatcher(plan)
        else:
            driver = policy

        return self._simulate(dfg, policy, driver, arrivals or {})

    # ------------------------------------------------------------------
    def _simulate(
        self,
        dfg: DFG,
        policy: Policy,
        driver: DynamicPolicy,
        arrivals: dict[int, float],
    ) -> SimulationResult:
        metrics_layer = MetricsDynamics(self.system, retain_schedule=True)
        engine = self._build_engine(
            policy, driver, BatchAdmission(dfg, arrivals), metrics_layer
        )
        engine.noise.update(self._noise_factors(dfg))
        engine.run_loop()

        schedule = metrics_layer.schedule
        schedule.validate(dfg)
        return SimulationResult(
            schedule=schedule,
            metrics=metrics_layer.metrics(),
            policy_name=policy.name,
            policy_stats=policy.stats(),
            dfg_name=dfg.name,
            trace=StateTrace.from_schedule(schedule, self.system)
            if self.collect_trace
            else None,
            dynamics_stats=engine.dynamics_stats(),
        )

    # ------------------------------------------------------------------
    def run_stream(
        self,
        source,
        policy: Policy,
        retain_schedule: bool = True,
    ) -> StreamResult:
        """Simulate an open-system stream of applications under ``policy``.

        ``source`` is an :class:`~repro.graphs.sources.ArrivalSource`
        (or any iterable of :class:`~repro.graphs.streams.
        ApplicationArrival` in non-decreasing time order).  Applications
        are *admitted* when their ``APP_ARRIVAL`` event fires — their
        kernels are renumbered into the same contiguous id blocks
        :meth:`~repro.graphs.streams.ApplicationStream.merged` produces —
        and every kernel's bookkeeping is *retired* once it completed and
        all its successors started, so peak resident state tracks the
        stream's concurrency, not its length.  The schedules produced are
        bit-for-bit identical to running the merged DFG through
        :meth:`run` (asserted in ``tests/test_simulator_equivalence.py``).

        Dynamic policies observe only arrived, unretired work.  A
        *static* policy cannot plan a stream it has not seen: it is run
        as the documented clairvoyant baseline — the source is
        materialized and planned whole through the merged path (peak
        resident kernels then equals the stream length).

        ``retain_schedule=False`` drops each schedule entry after feeding
        the metric accumulators — the bounded-memory mode for very long
        streams; ``metrics``/``service``/``energy`` are computed
        identically, but ``schedule`` (and any trace) is ``None``.
        """
        from repro.graphs.sources import ArrivalSource, EagerSource

        if not isinstance(policy, (DynamicPolicy, StaticPolicy)):
            raise TypeError(
                f"policy must be a DynamicPolicy or StaticPolicy, got {type(policy)!r}"
            )
        if not isinstance(source, ArrivalSource):
            from repro.graphs.streams import ApplicationStream

            if isinstance(source, ApplicationStream):
                source = EagerSource(source)
            else:
                source = EagerSource(ApplicationStream(list(source)), name="stream")

        if isinstance(policy, StaticPolicy):
            stream = source.materialize()
            merged, arrivals = stream.merged(name=source.name)
            result = self.run(merged, policy, arrivals=arrivals)
            spans = stream_app_spans(stream)
            service = compute_service_metrics(
                result.schedule, spans, dfg=merged, cost=self.cost
            )
            return StreamResult(
                schedule=result.schedule if retain_schedule else None,
                metrics=result.metrics,
                service=service,
                stream=StreamStats(
                    n_applications=len(spans),
                    n_kernels=len(merged),
                    retired_kernels=0,
                    peak_resident_kernels=len(merged),
                ),
                policy_name=result.policy_name,
                policy_stats=result.policy_stats,
                source_name=source.name,
                trace=result.trace if retain_schedule else None,
                energy=energy_from_metrics(
                    result.metrics, self.system, self.power_model
                ),
                dynamics_stats=result.dynamics_stats,
            )

        policy.reset()
        return self._simulate_stream(source, policy, policy, retain_schedule)

    # ------------------------------------------------------------------
    def _simulate_stream(
        self,
        source,
        policy: Policy,
        driver: DynamicPolicy,
        retain_schedule: bool,
    ) -> StreamResult:
        admission = StreamAdmission(source)
        # Abort-capable dynamics may re-enqueue a started kernel, which
        # must still find its predecessors' placements: retirement then
        # waits for successors to *complete* (final) instead of start.
        retirement = RetirementDynamics(
            gate="completed" if self._has_aborting_dynamics() else "started"
        )
        metrics_layer = MetricsDynamics(
            self.system, retain_schedule=retain_schedule, service=True
        )
        engine = self._build_engine(
            policy, driver, admission, metrics_layer, retirement=retirement
        )
        engine.run_loop()

        schedule = metrics_layer.schedule
        metrics = metrics_layer.metrics()
        return StreamResult(
            schedule=schedule,
            metrics=metrics,
            service=metrics_layer.service(),
            stream=StreamStats(
                n_applications=admission.n_apps,
                n_kernels=engine.n_admitted,
                retired_kernels=retirement.n_retired,
                peak_resident_kernels=engine.peak_resident,
            ),
            policy_name=policy.name,
            policy_stats=policy.stats(),
            source_name=source.name,
            trace=StateTrace.from_schedule(schedule, self.system)
            if self.collect_trace and schedule is not None
            else None,
            energy=energy_from_metrics(metrics, self.system, self.power_model),
            dynamics_stats=engine.dynamics_stats(),
        )

    # ------------------------------------------------------------------
    def _noise_factors(self, dfg: DFG) -> dict[int, float]:
        """Per-kernel noise factors drawn up-front (id-indexed) so they do
        not depend on the policy's execution order — every policy faces
        the *same* perturbed reality."""
        if self.exec_noise_sigma <= 0.0:
            return {}
        import numpy as _np

        noise_rng = _np.random.default_rng(self.noise_seed)
        return {
            k: float(_np.exp(noise_rng.normal(0.0, self.exec_noise_sigma)))
            for k in dfg.kernel_ids()
        }
