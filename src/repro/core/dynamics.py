"""Runtime-dynamics layers for the layered simulation engine.

Each class here is one :class:`~repro.core.engine.RuntimeDynamics`
plugged into :class:`~repro.core.engine.EngineCore` by
:class:`~repro.core.simulator.Simulator`:

* :class:`BatchAdmission` — the closed-system path: one pre-merged DFG,
  optionally with per-kernel arrival times (``KERNEL_READY`` events);
* :class:`StreamAdmission` — the open-system path: applications admitted
  at their ``APP_ARRIVAL`` events, renumbered into contiguous id blocks;
* :class:`ContentionDynamics` — contended transfers as first-class
  ``TRANSFER_START`` / ``TRANSFER_COMPLETE`` events over a
  :class:`~repro.core.topology.ContentionManager`;
* :class:`RetirementDynamics` — bounded-memory eviction of completed
  kernel state (the streaming path's memory guarantee);
* :class:`MetricsDynamics` — the schedule log / metric accumulators /
  per-application service spans;
* :class:`FaultDynamics` — seed-deterministic processor failure/repair
  traces (``FAULT`` / ``REPAIR`` events): in-flight kernels on a failed
  processor are aborted and re-enqueued, policies are re-consulted, and
  per-processor availability is accounted;
* :class:`PreemptionDynamics` — policy-driven preemption at event
  boundaries (``PREEMPT`` events) under a configurable context-switch
  penalty.

The first five rehome behavior that used to be interleaved in the
``Simulator`` monolith; the last two are new capabilities the monolith
could not absorb.  :class:`DynamicsSpec` is the JSON-safe declarative
form a scenario, a sweep-job cache key or a CLI flag carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

from repro.core.engine import EngineCore, RuntimeDynamics, _ResidentGraph
from repro.core.events import Event, EventKind
from repro.core.metrics import (
    MetricsAccumulator,
    ServiceAccumulator,
    ServiceMetrics,
    SimulationMetrics,
    compute_metrics,
    isolated_lower_bound_ms,
)
from repro.core.schedule import Schedule, ScheduleEntry
from repro.core.topology import ContentionManager, Topology, validate_rate

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import SystemConfig
    from repro.graphs.dfg import DFG
    from repro.graphs.sources import ArrivalSource
    from repro.policies.base import SchedulingContext


# ----------------------------------------------------------------------
# admission
# ----------------------------------------------------------------------
class BatchAdmission(RuntimeDynamics):
    """Closed-system admission: one pre-merged DFG, known up front.

    Kernels with an arrival time of 0 are resident from the start;
    later arrivals enter through ``KERNEL_READY`` events, exactly like
    the pre-split merged path.
    """

    name = "admission"
    handles = (EventKind.KERNEL_READY,)

    def __init__(self, dfg: "DFG", arrivals: Mapping[int, float]) -> None:
        self.dfg = dfg
        self.arrivals = arrivals

    def on_run_start(self) -> None:
        e = self.engine
        dfg = self.dfg
        kernel_ids = dfg.kernel_ids()
        e.graph = dfg
        # Adjacency and specs precomputed once — dfg.predecessors() /
        # .successors() sort per call, far too hot for the inner loop.
        e.specs.update((k, dfg.spec(k)) for k in kernel_ids)
        e.preds_of.update((k, dfg.predecessors(k)) for k in kernel_ids)
        e.succs_of.update((k, dfg.successors(k)) for k in kernel_ids)
        arrival_of = {k: self.arrivals.get(k, 0.0) for k in kernel_ids}
        e.arrival_of.update(arrival_of)
        e.remaining_preds.update((k, len(e.preds_of[k])) for k in kernel_ids)
        for k in dfg.entry_kernels():
            if arrival_of[k] == 0.0:
                e.ready.add(k)
                e.ready_time[k] = 0.0
        e.not_arrived = {k for k, t in arrival_of.items() if t > 0.0}
        for kid, t in arrival_of.items():
            if t > 0.0:
                e.events.push(Event(t, EventKind.KERNEL_READY, payload=(kid, None)))
        e.n_admitted = len(kernel_ids)
        e.peak_resident = len(kernel_ids)
        e.more_arrivals = False

    def on_event(self, ev: Event) -> None:
        # streaming arrival: the kernel enters the system now
        e = self.engine
        kid = ev.payload[0]
        e.not_arrived.discard(kid)
        if e.remaining_preds[kid] == 0:
            e.ready_time[kid] = e.now
            e.ready.add(kid)
            e.state_version += 1


class StreamAdmission(RuntimeDynamics):
    """Open-system admission from an :class:`~repro.graphs.sources.
    ArrivalSource`: each application's kernels are renumbered into the
    same contiguous id blocks :meth:`~repro.graphs.streams.
    ApplicationStream.merged` produces and registered when its
    ``APP_ARRIVAL`` event fires.  Execution-noise factors are drawn at
    admission in merged-id order, so the factor sequence is bit-equal to
    the closed path's up-front draw."""

    name = "admission"
    handles = (EventKind.APP_ARRIVAL,)

    def __init__(self, source: "ArrivalSource") -> None:
        self.source = source

    def on_run_start(self) -> None:
        e = self.engine
        e.graph = _ResidentGraph(self.source.name, e.specs, e.preds_of, e.succs_of)
        self.n_apps = 0
        self._next_id = 0
        self._noise_rng = (
            np.random.default_rng(e.noise_seed) if e.noise_sigma > 0.0 else None
        )

    def on_run_open(self) -> None:
        # Admission fans out to the retirement/metrics layers, so it must
        # wait for every layer's on_run_start — hence the second phase.
        e = self.engine
        source = self.source
        self._iter = (
            source.arrivals() if hasattr(source, "arrivals") else iter(source)
        )
        self._pending = next(self._iter, None)
        # applications arriving at t=0 are resident from the start, exactly
        # like the merged path's arrival_ms == 0 kernels (no events).
        while self._pending is not None and self._pending.arrival_ms == 0.0:
            self._admit(self._pending.dfg, 0.0)
            self._pending = next(self._iter, None)
        if self._pending is not None:
            e.events.push(Event(self._pending.arrival_ms, EventKind.APP_ARRIVAL))
        e.more_arrivals = self._pending is not None

    def on_event(self, ev: Event) -> None:
        # admit the pending application plus any others landing at the
        # exact same instant (they must share the batch, as their
        # KERNEL_READY events would in the merged path)
        e = self.engine
        t = ev.time
        while self._pending is not None and self._pending.arrival_ms == t:
            self._admit(self._pending.dfg, t)
            self._pending = next(self._iter, None)
        if self._pending is not None:
            e.events.push(Event(self._pending.arrival_ms, EventKind.APP_ARRIVAL))
        else:
            e.more_arrivals = False

    def _admit(self, app_dfg: "DFG", arrival_ms: float) -> None:
        """Admit one application: renumber, register, mark ready."""
        e = self.engine
        ids = app_dfg.kernel_ids()
        app_index = self.n_apps
        self.n_apps += 1
        id_map: dict[int, int] = {}
        next_id = self._next_id
        noise_rng = self._noise_rng
        for kid in ids:
            nid = next_id
            next_id += 1
            id_map[kid] = nid
            e.specs[nid] = app_dfg.spec(kid)
            e.preds_of[nid] = []
            e.succs_of[nid] = []
            e.arrival_of[nid] = arrival_ms
            e.app_index_of[nid] = app_index
            if noise_rng is not None:
                # One persistent stream consumed in admission (= merged
                # id) order: bit-for-bit the closed path's factors.
                e.noise[nid] = float(
                    np.exp(noise_rng.normal(0.0, e.noise_sigma))
                )
        self._next_id = next_id
        for u, v in app_dfg.edges():
            e.preds_of[id_map[v]].append(id_map[u])
            e.succs_of[id_map[u]].append(id_map[v])
        for kid in ids:
            nid = id_map[kid]
            e.remaining_preds[nid] = len(e.preds_of[nid])
            if e.remaining_preds[nid] == 0:
                e.ready_time[nid] = arrival_ms
                e.ready.add(nid)
        e.n_admitted += len(ids)
        e.state_version += 1
        if len(e.specs) > e.peak_resident:
            e.peak_resident = len(e.specs)
        for h in e._admit_hooks:
            h(app_index, arrival_ms, app_dfg, id_map)


# ----------------------------------------------------------------------
# contended transfers
# ----------------------------------------------------------------------
class ContentionDynamics(RuntimeDynamics):
    """Contended inbound transfers as first-class events.

    Each cross-processor predecessor placement opens one *flow* over its
    precomputed route; concurrent flows sharing a channel split its
    bandwidth equally, and shares are recomputed exactly at transfer
    start/finish (:class:`~repro.core.topology.ContentionManager`).
    Completion events are versioned; stale ones (superseded by a
    reshare) are skipped.  A kernel computes once its last flow
    finishes.  Flows belonging to an aborted kernel (fault/preemption)
    drain harmlessly and are discarded on completion.
    """

    name = "contention"
    handles = (EventKind.TRANSFER_START, EventKind.TRANSFER_COMPLETE)

    def __init__(self, topology: Topology) -> None:
        self.topology = topology

    def bind(self, engine: EngineCore) -> None:
        super().bind(engine)
        engine._contention = self  # claim the engine's contended-start seam

    def on_run_start(self) -> None:
        self.cman = ContentionManager(self.topology)
        # kid -> [flows_left, processor, exec_time, transfer_start, token]
        self.pending: dict[int, list] = {}
        # kid -> source processors whose flows have joined the manager
        self._joined: dict[int, set[str]] = {}

    def _push_estimates(self, estimates: Sequence[Any]) -> None:
        push = self.engine.events.push
        for est in estimates:
            push(
                Event(
                    est.finish_time,
                    EventKind.TRANSFER_COMPLETE,
                    payload=(est.key, est.version),
                )
            )

    def begin(
        self, kid: int, name: str, spec: Any, exec_time: float, token: int
    ) -> None:
        """Open one flow per distinct source processor for ``kid``.

        Flow keys are ``(kid, src, token)``: the engine's globally-unique
        start token makes every event this attempt schedules — the
        latency-delayed ``TRANSFER_START`` and each flow's versioned
        ``TRANSFER_COMPLETE`` — structurally unmatchable by a later
        attempt of the same kernel after an abort (fault/preemption),
        even over the same (kid, src) pair.
        """
        e = self.engine
        now = e.now
        nbytes = spec.data_size * e.cost.element_size
        sources = e.cost.transfer_flow_sources(
            e.preds_of[kid], e.assignment_of, name, nbytes
        )
        self.pending[kid] = [len(sources), name, exec_time, now, token]
        joined = self._joined[kid] = set()
        for src in sources:
            route = self.topology.route(src, name)
            if route.latency_ms > 0.0:
                e.events.push(
                    Event(
                        now + route.latency_ms,
                        EventKind.TRANSFER_START,
                        payload=((kid, src, token), nbytes),
                    )
                )
            else:
                joined.add(src)
                self._push_estimates(
                    self.cman.join((kid, src, token), route, nbytes, now)
                )

    def abandon(self, kid: int) -> None:
        """Stop an aborted kernel's in-flight transfers and release their
        bandwidth shares (surviving flows are re-estimated)."""
        pend = self.pending.pop(kid, None)
        if pend is None:
            return
        now = self.engine.now
        for src in self._joined.pop(kid, ()):
            estimates = self.cman.cancel((kid, src, pend[4]), now)
            if estimates:
                self._push_estimates(estimates)

    def on_event(self, ev: Event) -> None:
        e = self.engine
        if ev.kind is EventKind.TRANSFER_START:
            # a flow's route latency elapsed: it starts draining
            (kid, src, token), nbytes = ev.payload
            pend = self.pending.get(kid)
            if pend is None or pend[4] != token:
                return  # that start was aborted while the latency elapsed
            route = self.topology.route(src, pend[1])
            self._joined[kid].add(src)
            self._push_estimates(
                self.cman.join((kid, src, token), route, nbytes, e.now)
            )
            return
        key, version = ev.payload
        estimates = self.cman.complete(key, version, e.now)
        if estimates is None:
            return  # stale: a reshare (or an abort) superseded this event
        self._push_estimates(estimates)
        kid, _, token = key
        pend = self.pending.get(kid)
        if pend is None or pend[4] != token:
            return  # aborted: the drained flow is discarded
        self._joined[kid].discard(key[1])
        pend[0] -= 1
        if pend[0] > 0:
            return
        # last inbound flow done: the kernel computes now
        _, name, exec_time, transfer_start, token = pend
        del self.pending[kid]
        del self._joined[kid]
        st = e.procs[name]
        now = e.now
        finish = now + exec_time
        st.free_at = finish
        e.refresh_view(name)
        e.state_version += 1
        spec = e.specs[kid]
        entry = ScheduleEntry(
            kernel_id=kid,
            kernel=spec.kernel,
            data_size=spec.data_size,
            processor=name,
            ptype=e.system[name].ptype.value,
            ready_time=e.ready_time[kid],
            assign_time=e.assign_time[kid],
            transfer_start=transfer_start,
            exec_start=now,
            finish_time=finish,
            used_alternative=e.is_alternative.get(kid, False),
            arrival_time=e.arrival_of[kid],
        )
        if e._defer_entries:
            e._pending_entry[name] = entry
        else:
            e.record_entry(entry)
        e.events.push(
            Event(finish, EventKind.KERNEL_COMPLETE, payload=(kid, name, token))
        )


# ----------------------------------------------------------------------
# retirement
# ----------------------------------------------------------------------
class RetirementDynamics(RuntimeDynamics):
    """Bounded-memory eviction of completed kernel state.

    A kernel's tables are freed once nothing can query them again.  The
    default gate ("started") retires a completed kernel when every
    successor has *started* — the streaming path's original rule.  Runs
    carrying abort-capable layers (faults, preemption) use the
    "completed" gate instead: a started successor may be aborted and
    need its predecessors' placements again, so retirement waits until
    every successor has *completed* (completion is final).
    """

    name = "retirement"

    def __init__(self, gate: str = "started") -> None:
        if gate not in ("started", "completed"):
            raise ValueError(f"gate must be 'started' or 'completed', got {gate!r}")
        self.gate = gate

    def on_run_start(self) -> None:
        self.n_retired = 0
        self._open_succs: dict[int, int] = {}

    def on_admit(
        self,
        app_index: int,
        arrival_ms: float,
        app_dfg: "DFG",
        id_map: Mapping[int, int],
    ) -> None:
        succs_of = self.engine.succs_of
        for nid in id_map.values():
            self._open_succs[nid] = len(succs_of[nid])

    def on_kernel_start(self, kid: int, proc: str) -> None:
        if self.gate != "started":
            return
        e = self.engine
        # the kernel left the ready set for good: purge its memoized
        # transfer answers and release predecessors it was pinning
        memo = e.transfer_memo
        for pname in e.proc_names:
            memo.pop((kid, pname), None)
        open_succs = self._open_succs
        completed = e.completed
        for p in e.preds_of[kid]:
            open_succs[p] -= 1
            if open_succs[p] == 0 and p in completed:
                self._retire(p)

    def on_kernel_finish(self, kid: int, proc: str) -> None:
        e = self.engine
        if self.gate == "completed":
            memo = e.transfer_memo
            for pname in e.proc_names:
                memo.pop((kid, pname), None)
            open_succs = self._open_succs
            completed = e.completed
            for p in e.preds_of[kid]:
                open_succs[p] -= 1
                if open_succs[p] == 0 and p in completed:
                    self._retire(p)
        if self._open_succs[kid] == 0:
            self._retire(kid)

    def _retire(self, kid: int) -> None:
        """Free a kernel's bookkeeping once nothing can query it again."""
        e = self.engine
        del e.specs[kid]
        del e.preds_of[kid]
        del e.succs_of[kid]
        del e.arrival_of[kid]
        del e.app_index_of[kid]
        del e.remaining_preds[kid]
        del self._open_succs[kid]
        e.assignment_of.pop(kid, None)
        e.ready_time.pop(kid, None)
        e.assign_time.pop(kid, None)
        e.is_alternative.pop(kid, None)
        e.noise.pop(kid, None)
        e.completed.discard(kid)
        self.n_retired += 1


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class MetricsDynamics(RuntimeDynamics):
    """Schedule log, metric accumulators and service spans.

    ``retain_schedule=False`` feeds a
    :class:`~repro.core.metrics.MetricsAccumulator` instead of a
    :class:`~repro.core.schedule.Schedule` — the bounded-memory mode.
    ``service=True`` additionally runs per-application
    :class:`~repro.core.metrics.ServiceAccumulator` accounting
    (registered through the admission fan-out).
    """

    name = "metrics"

    def __init__(
        self,
        system: "SystemConfig",
        retain_schedule: bool = True,
        service: bool = False,
    ) -> None:
        self.system = system
        self.retain_schedule = retain_schedule
        self.with_service = service

    def on_run_start(self) -> None:
        self._sink: Callable[[ScheduleEntry], None]
        if self.retain_schedule:
            self.schedule: Schedule | None = Schedule()
            self._acc: MetricsAccumulator | None = None
            self._sink = self.schedule.add
        else:
            self.schedule = None
            self._acc = MetricsAccumulator(self.system)
            self._sink = self._acc.observe
        self._service = ServiceAccumulator() if self.with_service else None
        self.n_alt = 0

    def on_admit(
        self,
        app_index: int,
        arrival_ms: float,
        app_dfg: "DFG",
        id_map: Mapping[int, int],
    ) -> None:
        if self._service is not None:
            self._service.register_app(
                app_index,
                arrival_ms,
                len(id_map),
                isolated_lower_bound_ms(app_dfg, list(id_map), self.engine.cost),
            )

    def on_entry(self, entry: ScheduleEntry) -> None:
        if entry.used_alternative:
            self.n_alt += 1
        self._sink(entry)
        if self._service is not None:
            self._service.observe(self.engine.app_index_of[entry.kernel_id], entry)

    def metrics(self) -> SimulationMetrics:
        if self.schedule is not None:
            return compute_metrics(
                self.schedule, self.system, n_alternative_assignments=self.n_alt
            )
        assert self._acc is not None
        return self._acc.finalize(n_alternative_assignments=self.n_alt)

    def service(self) -> ServiceMetrics:
        if self._service is None:
            raise RuntimeError("service accounting was not enabled for this run")
        return self._service.finalize()


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------
class FaultDynamics(RuntimeDynamics):
    """Seed-deterministic processor failure/repair traces.

    Each targeted processor draws an alternating sequence of
    time-to-failure (mean ``mttf_ms``) and time-to-repair (mean
    ``mttr_ms``) gaps from its own exponential stream, seeded by
    ``(seed, processor index)`` — so the fault trace is identical for
    every policy, every run and every process, and independent of the
    simulation's own event interleaving.

    On ``FAULT`` the processor leaves service: its running kernel is
    aborted and re-enqueued (the policy is re-consulted — typically it
    migrates the kernel), queued kernels are flushed back to the ready
    set, and ``free_at`` reports the repair time so look-ahead policies
    price the outage.  On ``REPAIR`` the processor re-enters service and
    dispatches again.  Per-processor downtime inside the run horizon is
    accounted into availability statistics.
    """

    name = "fault"
    aborts = True
    handles = (EventKind.FAULT, EventKind.REPAIR)

    def __init__(
        self,
        mttf_ms: float,
        mttr_ms: float,
        seed: int = 0,
        processors: Sequence[str] | None = None,
    ) -> None:
        self.mttf_ms = validate_rate(float(mttf_ms), "mttf_ms")
        self.mttr_ms = validate_rate(float(mttr_ms), "mttr_ms")
        self.seed = int(seed)
        self.processors = tuple(processors) if processors is not None else None

    def on_run_start(self) -> None:
        e = self.engine
        targets = self.processors if self.processors is not None else e.proc_names
        for name in targets:
            if name not in e.procs:
                raise ValueError(f"fault profile names unknown processor {name!r}")
        self.n_faults = 0
        self.n_aborted = 0
        self.n_requeued = 0
        self._rngs: dict[str, np.random.Generator] = {}
        self._downtime = {name: 0.0 for name in targets}
        self._outage_start: dict[str, float] = {}
        for name in targets:
            rng = np.random.default_rng([self.seed, e.proc_index[name]])
            self._rngs[name] = rng
            e.events.push(
                Event(float(rng.exponential(self.mttf_ms)), EventKind.FAULT, payload=name)
            )

    def on_event(self, ev: Event) -> None:
        e = self.engine
        name = ev.payload
        st = e.procs[name]
        if ev.kind is EventKind.FAULT:
            repair_at = e.now + float(self._rngs[name].exponential(self.mttr_ms))
            self.n_faults += 1
            self._outage_start[name] = e.now
            if e.abort_running(name) is not None:
                self.n_aborted += 1
            self.n_requeued += len(e.flush_queue(name))
            st.faulted = True
            # the aborted kernel's old finish time is meaningless now:
            # free_at reports the return-to-service time (the later of
            # repair and a still-running preemption penalty)
            if st.penalized:
                if repair_at > st.free_at:
                    st.free_at = repair_at
            else:
                st.free_at = repair_at
            e.refresh_view(name)
            e.state_version += 1
            e.events.push(Event(repair_at, EventKind.REPAIR, payload=name))
            return
        # REPAIR
        st.faulted = False
        self._downtime[name] += e.now - self._outage_start.pop(name)
        # draw the next failure; the trace continues past the run horizon
        # (events beyond the last completion are simply never popped)
        e.events.push(
            Event(
                e.now + float(self._rngs[name].exponential(self.mttf_ms)),
                EventKind.FAULT,
                payload=name,
            )
        )
        if not st.blocked:
            if st.free_at > e.now:
                st.free_at = e.now
            e.refresh_view(name)
            e.state_version += 1
            e.start_if_possible(name)

    def finalize(self) -> None:
        # clip outages still open at the end of the run
        for name, t0 in self._outage_start.items():
            self._downtime[name] += max(0.0, self.engine.now - t0)
        self._outage_start.clear()

    def stats(self) -> dict[str, object]:
        horizon = self.engine.now
        availability = {
            name: (1.0 - down / horizon) if horizon > 0 else 1.0
            for name, down in self._downtime.items()
        }
        mean = (
            sum(availability.values()) / len(availability) if availability else 1.0
        )
        return {
            "mttf_ms": self.mttf_ms,
            "mttr_ms": self.mttr_ms,
            "seed": self.seed,
            "n_faults": self.n_faults,
            "n_aborted": self.n_aborted,
            "n_requeued": self.n_requeued,
            "downtime_ms": dict(self._downtime),
            "availability": availability,
            "mean_availability": mean,
        }


# ----------------------------------------------------------------------
# preemption
# ----------------------------------------------------------------------
class PreemptionDynamics(RuntimeDynamics):
    """Policy-driven preemption at event boundaries.

    At every event boundary the driving policy's
    :meth:`~repro.policies.base.DynamicPolicy.preempt` is consulted with
    the live context (``ctx.preemption`` carries the penalty).  Each
    granted request aborts the named processor's running kernel — it
    returns to the ready set and the policy re-places it, the migration
    path — and blocks the processor for ``penalty_ms`` (the
    context-switch cost), ending with a ``PREEMPT`` event.  Requests
    naming idle, already-penalized or failed processors are ignored.

    ``penalty_ms`` must be positive: a free preemption would let a
    policy preempt again at the same instant forever.
    """

    name = "preemption"
    aborts = True
    handles = (EventKind.PREEMPT,)

    def __init__(self, penalty_ms: float = 1.0) -> None:
        if not penalty_ms > 0:
            raise ValueError(f"penalty_ms must be > 0, got {penalty_ms}")
        self.penalty_ms = float(penalty_ms)

    def bind(self, engine: EngineCore) -> None:
        super().bind(engine)
        from repro.policies.base import PreemptionInfo

        engine._preempt_info = PreemptionInfo(self.penalty_ms, engine=engine)

    def on_run_start(self) -> None:
        self.n_preemptions = 0
        self.penalty_ms_total = 0.0

    def observe(self, ctx: "SchedulingContext") -> None:
        e = self.engine
        requests = list(e.driver.preempt(ctx))
        if not requests:
            return
        for name in requests:
            if name not in e.procs:
                from repro.core.engine import SchedulingError

                raise SchedulingError(
                    f"{e.policy.name}: preemption of unknown processor {name!r}"
                )
            st = e.procs[name]
            if st.blocked or st.running is None:
                continue  # nothing (or nothing preemptible) running
            e.abort_running(name)
            self.n_preemptions += 1
            self.penalty_ms_total += self.penalty_ms
            st.penalized = True
            # the evicted kernel's finish time is meaningless now: the
            # processor is free again once the penalty elapses (faulted
            # processors are skipped above, so no repair time to keep)
            until = e.now + self.penalty_ms
            st.free_at = until
            e.refresh_view(name)
            e.state_version += 1
            e.events.push(Event(until, EventKind.PREEMPT, payload=name))

    def on_event(self, ev: Event) -> None:
        e = self.engine
        name = ev.payload
        st = e.procs[name]
        st.penalized = False
        if not st.blocked:
            if st.free_at > e.now:
                st.free_at = e.now
            e.refresh_view(name)
            e.state_version += 1
            e.start_if_possible(name)

    def stats(self) -> dict[str, object]:
        return {
            "penalty_ms": self.penalty_ms,
            "n_preemptions": self.n_preemptions,
            "penalty_ms_total": self.penalty_ms_total,
        }


# ----------------------------------------------------------------------
# declarative specs
# ----------------------------------------------------------------------
#: kind name → layer constructor (JSON-safe keyword parameters only).
DYNAMICS_KINDS: Mapping[str, type] = {
    "fault": FaultDynamics,
    "preempt": PreemptionDynamics,
}


@dataclass(frozen=True)
class DynamicsSpec:
    """A runtime-dynamics layer by kind name plus constructor kwargs.

    ``params`` is a sorted tuple of (key, value) pairs so specs are
    hashable, order-insensitive and JSON-stable — the same convention as
    :class:`~repro.experiments.sweep.PolicySpec`.  The serialized form
    enters sweep-job cache keys, so two runs differing only in their
    dynamics stack never share a cache entry.
    """

    kind: str
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in DYNAMICS_KINDS:
            raise ValueError(
                f"unknown dynamics kind {self.kind!r}; "
                f"available: {sorted(DYNAMICS_KINDS)}"
            )

    @classmethod
    def of(cls, kind: str, **params: object) -> "DynamicsSpec":
        # sequence values (e.g. FaultDynamics' `processors`) are stored
        # as tuples so the spec stays hashable
        items = (
            (k, tuple(v) if isinstance(v, list) else v)
            for k, v in params.items()
        )
        return cls(kind=kind, params=tuple(sorted(items)))

    def build(self) -> RuntimeDynamics:
        return DYNAMICS_KINDS[self.kind](**dict(self.params))

    def to_dict(self) -> dict[str, object]:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "DynamicsSpec":
        return cls.of(str(data["kind"]), **dict(data.get("params") or {}))  # type: ignore[arg-type]


def build_dynamics(
    specs: "Sequence[DynamicsSpec | RuntimeDynamics] | None",
) -> list[RuntimeDynamics]:
    """Fresh layer instances for one run (specs build, instances pass through)."""
    out: list[RuntimeDynamics] = []
    for item in specs or ():
        if isinstance(item, DynamicsSpec):
            out.append(item.build())
        elif isinstance(item, RuntimeDynamics):
            out.append(item)
        else:
            raise TypeError(
                f"dynamics must be DynamicsSpec or RuntimeDynamics, got {type(item)!r}"
            )
    return out


def parse_dynamics_arg(text: str) -> tuple[DynamicsSpec, ...]:
    """Parse a CLI dynamics spec string.

    Format: semicolon-separated layers, each ``kind:key=value,key=value``
    (parameters optional).  Values are parsed as int, then float, then
    the literals ``true``/``false``, else kept as strings.

    >>> parse_dynamics_arg("fault:mttf_ms=4000,mttr_ms=250,seed=7;preempt:penalty_ms=2")
    ... # doctest: +ELLIPSIS
    (DynamicsSpec(kind='fault', ...), DynamicsSpec(kind='preempt', ...))
    """

    def parse_value(raw: str) -> object:
        for cast in (int, float):
            try:
                return cast(raw)
            except ValueError:
                continue
        if raw.lower() in ("true", "false"):
            return raw.lower() == "true"
        return raw

    specs: list[DynamicsSpec] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        kind, _, rest = chunk.partition(":")
        params: dict[str, object] = {}
        for pair in filter(None, (p.strip() for p in rest.split(","))):
            key, sep, raw = pair.partition("=")
            if not sep:
                raise ValueError(
                    f"malformed dynamics parameter {pair!r} (expected key=value)"
                )
            params[key.strip()] = parse_value(raw.strip())
        specs.append(DynamicsSpec.of(kind.strip(), **params))
    if not specs:
        raise ValueError(f"no dynamics layers in spec {text!r}")
    return tuple(specs)


__all__ = [
    "BatchAdmission",
    "ContentionDynamics",
    "DYNAMICS_KINDS",
    "DynamicsSpec",
    "FaultDynamics",
    "MetricsDynamics",
    "PreemptionDynamics",
    "RetirementDynamics",
    "StreamAdmission",
    "build_dynamics",
    "parse_dynamics_arg",
]
