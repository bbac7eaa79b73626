"""CPOP — Critical-Path-on-a-Processor (Topcuoglu et al., 2002).

The companion algorithm to HEFT from the same paper the paper builds on.
Kernel priority is ``rank_u + rank_d`` (upward + downward rank, paper
eqs. (3)–(5)); the set of kernels with priority equal to the entry
kernel's is the *critical path*, and all of it is pinned to the single
processor that minimizes the path's total execution time.  Off-path
kernels are placed by insertion-based EFT like HEFT: CPOP plans through
:func:`~repro.policies.heft.list_schedule`, offering a critical-path
kernel only the CP processor.  Costs come from the run's
:class:`~repro.core.cost.CostModel`.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.cost import CostModel
from repro.graphs.dfg import DFG
from repro.policies.base import StaticPlan, StaticPolicy
from repro.policies.heft import downward_rank, list_schedule, upward_rank

#: Two priorities closer than this are "equal" for CP membership.
_PRIORITY_EPS = 1e-9


def _priority(dfg: DFG, cost: CostModel) -> dict[int, float]:
    """``rank_u + rank_d`` for every kernel."""
    ru = upward_rank(dfg, cost)
    rd = downward_rank(dfg, cost)
    return {k: ru[k] + rd[k] for k in dfg.kernel_ids()}


def _critical_path(dfg: DFG, priority: Mapping[int, float]) -> list[int]:
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


def critical_path_kernels(dfg: DFG, cost: CostModel) -> list[int]:
    """The CPOP critical path: kernels whose rank_u + rank_d equals the
    entry kernel's (maximal) priority, chained entry → exit."""
    return _critical_path(dfg, _priority(dfg, cost))


class CPOP(StaticPolicy):
    """Critical-Path-on-a-Processor."""

    name = "cpop"

    def plan(self, dfg: DFG, cost: CostModel) -> StaticPlan:
        system = cost.system
        priority = _priority(dfg, cost)
        cp = set(_critical_path(dfg, priority))
        # The CP processor minimizes the path's total execution time.
        cp_proc = min(
            system.processors,
            key=lambda p: sum(
                cost.exec_time(dfg.spec(k).kernel, dfg.spec(k).data_size, p.ptype)
                for k in sorted(cp)
            ),
        )
        return list_schedule(
            dfg,
            cost,
            priority,
            lambda kid: (cp_proc,) if kid in cp else system.processors,
            lambda kid, proc, eft: eft,
        )
