"""Reference (pre-refactor) simulator inner loop.

:class:`ReferenceSimulator` preserves the straightforward
rebuild-everything event loop the repository shipped before the
incremental hot path landed in :mod:`repro.core.simulator`:

* every policy invocation rebuilds a fresh :class:`ProcessorView` for
  every processor and a fresh context;
* the ready queue is a plain list with O(n) membership and removal;
* the policy is re-invoked unconditionally on every fixpoint round.

It shares the optimized simulator's :class:`~repro.core.cost.CostModel`
(including the transfers-disabled fixes), so the two engines must produce
**bit-for-bit identical schedules** on every workload — asserted across
all policies in ``tests/test_simulator_equivalence.py`` and measured in
``benchmarks/test_bench_simulator_scale.py``.  Keep this loop dumb and
obviously correct; it is the oracle, not the product.
"""

from __future__ import annotations

from repro.core.engine import SchedulingError, _ProcState
from repro.core.events import Event, EventKind, EventQueue
from repro.core.metrics import compute_metrics
from repro.core.schedule import Schedule, ScheduleEntry
from repro.core.simulator import SimulationResult, Simulator
from repro.graphs.dfg import DFG
from repro.policies.base import (
    Assignment,
    DynamicPolicy,
    Policy,
    ProcessorView,
    SchedulingContext,
)


class ReferenceSimulator(Simulator):
    """The pre-refactor O(ready × processors) inner loop, kept as an oracle."""

    def _simulate(
        self,
        dfg: DFG,
        policy: Policy,
        driver: DynamicPolicy,
        arrivals: dict[int, float],
    ) -> SimulationResult:
        topo = self.system.topology
        if topo is not None and topo.contended and self.transfers_enabled:
            raise NotImplementedError(
                "ReferenceSimulator is the oracle for the uncontended "
                "fixed-charge transfer path; run contended topologies on "
                "Simulator (or set contention=False for route-shaped but "
                "uncontended costs)"
            )
        if self.dynamics:
            raise NotImplementedError(
                "ReferenceSimulator predates the runtime-dynamics layering; "
                "run fault/preemption dynamics on Simulator"
            )
        cost = self.cost
        procs: dict[str, _ProcState] = {p.name: _ProcState() for p in self.system}
        arrival_of = {k: arrivals.get(k, 0.0) for k in dfg.kernel_ids()}
        ready: list[int] = [k for k in dfg.entry_kernels() if arrival_of[k] == 0.0]
        ready_time: dict[int, float] = {k: 0.0 for k in ready}
        assign_time: dict[int, float] = {}
        is_alternative: dict[int, bool] = {}
        assignment_of: dict[int, str] = {}
        completed: set[int] = set()
        remaining_preds: dict[int, int] = {
            k: len(dfg.predecessors(k)) for k in dfg.kernel_ids()
        }
        exec_history: dict[str, list[float]] = {p.name: [] for p in self.system}
        events = EventQueue()
        schedule = Schedule()
        now = 0.0
        n_kernels = len(dfg)
        arrived: set[int] = {k for k, t in arrival_of.items() if t == 0.0}
        for kid, t in arrival_of.items():
            if t > 0.0:
                events.push(Event(t, EventKind.KERNEL_READY, payload=(kid, None)))
        noise = self._noise_factors(dfg)

        def make_context() -> SchedulingContext:
            views = {
                name: ProcessorView(
                    processor=self.system[name],
                    busy=st.running is not None,
                    free_at=max(now, st.free_at),
                    queue_length=len(st.queue),
                    running_kernel=st.running,
                )
                for name, st in procs.items()
            }
            return SchedulingContext(
                time=now,
                ready=tuple(ready),
                dfg=dfg,
                system=self.system,
                views=views,
                assignment_of=dict(assignment_of),
                completed=frozenset(completed),
                exec_history={k: list(v) for k, v in exec_history.items()},
                cost=cost,
            )

        def start_if_possible(name: str) -> bool:
            st = procs[name]
            if st.running is not None or not st.queue:
                return False
            kid, alternative = st.queue.popleft()
            spec = dfg.spec(kid)
            transfer = cost.inbound_transfer(dfg, kid, name, assignment_of)
            exec_time = cost.exec_time(
                spec.kernel, spec.data_size, self.system[name].ptype
            ) * noise.get(kid, 1.0)
            transfer_start = now
            exec_start = now + transfer
            finish = exec_start + exec_time
            st.running = kid
            st.free_at = finish
            exec_history[name].append(exec_time)
            schedule.add(
                ScheduleEntry(
                    kernel_id=kid,
                    kernel=spec.kernel,
                    data_size=spec.data_size,
                    processor=name,
                    ptype=self.system[name].ptype.value,
                    ready_time=ready_time[kid],
                    assign_time=assign_time[kid],
                    transfer_start=transfer_start,
                    exec_start=exec_start,
                    finish_time=finish,
                    used_alternative=is_alternative.get(kid, False),
                    arrival_time=arrival_of[kid],
                )
            )
            events.push(Event(finish, EventKind.KERNEL_COMPLETE, payload=(kid, name)))
            return True

        def apply_assignments(assignments: list[Assignment]) -> bool:
            progress = False
            for a in assignments:
                if a.kernel_id not in ready:
                    raise SchedulingError(
                        f"{policy.name}: kernel {a.kernel_id} is not ready at t={now}"
                    )
                if a.processor not in procs:
                    raise SchedulingError(
                        f"{policy.name}: unknown processor {a.processor!r}"
                    )
                st = procs[a.processor]
                if not a.queued and (st.running is not None or st.queue):
                    raise SchedulingError(
                        f"{policy.name}: non-queued assignment of kernel "
                        f"{a.kernel_id} to busy processor {a.processor} at t={now}"
                    )
                ready.remove(a.kernel_id)
                assignment_of[a.kernel_id] = a.processor
                assign_time[a.kernel_id] = now
                is_alternative[a.kernel_id] = a.alternative
                st.queue.append((a.kernel_id, a.alternative))
                progress = True
            for name in procs:
                if start_if_possible(name):
                    progress = True
            return progress

        while len(completed) < n_kernels:
            for _ in range(n_kernels * len(procs) + 2):
                assignments = driver.select(make_context()) if ready else []
                if not apply_assignments(list(assignments)):
                    break
            else:  # pragma: no cover - defensive
                raise SchedulingError(
                    f"{policy.name}: assignment loop did not converge at t={now}"
                )

            if not events:
                raise SchedulingError(
                    f"{policy.name}: deadlock at t={now} — "
                    f"{n_kernels - len(completed)} kernels unfinished, no events pending "
                    f"(ready={ready})"
                )

            for ev in events.pop_simultaneous():
                now = ev.time
                kid, name = ev.payload
                if ev.kind is EventKind.KERNEL_READY:
                    arrived.add(kid)
                    if remaining_preds[kid] == 0:
                        ready_time[kid] = now
                        ready.append(kid)
                    continue
                st = procs[name]
                if st.running != kid:  # pragma: no cover - defensive
                    raise SchedulingError(
                        f"completion event for kernel {kid} on {name}, "
                        f"but {st.running} is running"
                    )
                st.running = None
                completed.add(kid)
                for succ in dfg.successors(kid):
                    remaining_preds[succ] -= 1
                    if remaining_preds[succ] == 0 and succ in arrived:
                        ready_time[succ] = now
                        ready.append(succ)
                start_if_possible(name)

        schedule.validate(dfg)
        stats = policy.stats()
        n_alt = sum(1 for e in schedule if e.used_alternative)
        return SimulationResult(
            schedule=schedule,
            metrics=compute_metrics(schedule, self.system, n_alternative_assignments=n_alt),
            policy_name=policy.name,
            policy_stats=stats,
            dfg_name=dfg.name,
        )
