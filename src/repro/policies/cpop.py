"""CPOP — Critical-Path-on-a-Processor (Topcuoglu et al., 2002).

The companion algorithm to HEFT from the same paper the paper builds on.
Kernel priority is ``rank_u + rank_d`` (upward + downward rank, paper
eqs. (3)–(5)); the set of kernels with priority equal to the entry
kernel's is the *critical path*, and all of it is pinned to the single
processor that minimizes the path's total execution time.  Off-path
kernels are placed by insertion-based EFT like HEFT.  Costs come from
the simulator's :class:`~repro.core.cost.CostModel`.
"""

from __future__ import annotations

from repro.core.cost import CostModel
from repro.core.lookup import LookupTable
from repro.core.system import SystemConfig
from repro.graphs.dfg import DFG
from repro.policies.base import StaticPlan, StaticPolicy
from repro.policies.heft import _Slot, downward_rank, find_insertion_start, upward_rank

#: Two priorities closer than this are "equal" for CP membership.
_PRIORITY_EPS = 1e-9


def critical_path_kernels(
    dfg: DFG,
    system: SystemConfig,
    lookup: LookupTable | CostModel,
) -> list[int]:
    """The CPOP critical path: kernels whose rank_u + rank_d equals the
    entry kernel's (maximal) priority, chained entry → exit."""
    cost = CostModel.ensure(system, lookup)
    ru = upward_rank(dfg, system, cost)
    rd = downward_rank(dfg, system, cost)
    priority = {k: ru[k] + rd[k] for k in dfg.kernel_ids()}
    if not priority:
        return []
    cp_value = max(priority[k] for k in dfg.entry_kernels())
    path: list[int] = []
    current = max(
        dfg.entry_kernels(), key=lambda k: (priority[k], -k)
    )
    path.append(current)
    while dfg.successors(current):
        on_path = [
            s for s in dfg.successors(current)
            if abs(priority[s] - cp_value) <= _PRIORITY_EPS * max(1.0, cp_value)
        ]
        if not on_path:
            break
        current = on_path[0]
        path.append(current)
    return path


class CPOP(StaticPolicy):
    """Critical-Path-on-a-Processor."""

    name = "cpop"

    def plan(self, dfg: DFG, cost: CostModel) -> StaticPlan:
        system = cost.system
        ru = upward_rank(dfg, system, cost)
        rd = downward_rank(dfg, system, cost)
        priority = {k: ru[k] + rd[k] for k in dfg.kernel_ids()}

        cp = set(critical_path_kernels(dfg, system, cost))
        # The CP processor minimizes the path's total execution time.
        cp_proc = min(
            system.processors,
            key=lambda p: sum(
                cost.exec_time(dfg.spec(k).kernel, dfg.spec(k).data_size, p.ptype)
                for k in sorted(cp)
            ),
        ).name

        proc_slots: dict[str, list[_Slot]] = {p.name: [] for p in system}
        proc_of: dict[int, str] = {}
        start: dict[int, float] = {}
        finish: dict[int, float] = {}

        # Ready-list processing in decreasing priority (CPOP's queue).
        pending = {k: len(dfg.predecessors(k)) for k in dfg.kernel_ids()}
        ready = sorted(
            (k for k, n in pending.items() if n == 0),
            key=lambda k: (-priority[k], k),
        )
        while ready:
            kid = ready.pop(0)
            spec = dfg.spec(kid)
            nbytes = cost.data_bytes(spec.data_size)

            def eft_on(proc_name: str) -> tuple[float, float]:
                est = 0.0
                for pred in dfg.predecessors(kid):
                    comm = cost.transfer_time_ms(proc_of[pred], proc_name, nbytes)
                    est = max(est, finish[pred] + comm)
                w = cost.exec_time(spec.kernel, spec.data_size, system[proc_name].ptype)
                s = find_insertion_start(proc_slots[proc_name], est, w)
                return s, s + w

            if kid in cp:
                s, eft = eft_on(cp_proc)
                chosen = cp_proc
            else:
                chosen, (s, eft) = min(
                    ((p.name, eft_on(p.name)) for p in system),
                    key=lambda item: item[1][1],
                )
            proc_of[kid] = chosen
            start[kid] = s
            finish[kid] = eft
            proc_slots[chosen].append(_Slot(s, eft))
            for succ in dfg.successors(kid):
                pending[succ] -= 1
                if pending[succ] == 0:
                    ready.append(succ)
            ready.sort(key=lambda k: (-priority[k], k))

        order = {
            kid: i
            for i, kid in enumerate(
                sorted(dfg.kernel_ids(), key=lambda k: (start[k], -priority[k], k))
            )
        }
        return StaticPlan(
            processor_of=proc_of,
            priority=order,
            planned_start=start,
            planned_finish=finish,
        )
