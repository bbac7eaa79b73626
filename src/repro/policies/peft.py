"""PEFT — Predict Earliest Finish Time (Arabnejad & Barbosa, 2013).

PEFT is a static list scheduler like HEFT, but its look-ahead comes from a
pre-computed **Optimistic Cost Table** (paper eq. (6))::

    OCT(t_i, p_k) = max_{t_j ∈ succ(t_i)} [ min_{p_w} { OCT(t_j, p_w)
                    + w(t_j, p_w) + c̄_{i,j} } ],   c̄_{i,j} = 0 if p_w = p_k

with ``OCT(exit, ·) = 0``.  Kernel priority is the row average
``rank_oct`` (eq. (7)); processor selection minimizes the *Optimistic* EFT

    OEFT(t_i, p_k) = EFT(t_i, p_k) + OCT(t_i, p_k)

where EFT uses the same insertion policy as HEFT.  All costs come from
the simulator's :class:`~repro.core.cost.CostModel`, so a
transfers-disabled run plans with zero communication.
"""

from __future__ import annotations

from repro.core.cost import CostModel
from repro.core.lookup import LookupTable
from repro.core.system import SystemConfig
from repro.graphs.dfg import DFG
from repro.policies.base import StaticPlan, StaticPolicy
from repro.policies.heft import _Slot, _avg_comm, find_insertion_start


def optimistic_cost_table(
    dfg: DFG,
    system: SystemConfig,
    lookup: LookupTable | CostModel,
) -> dict[int, dict[str, float]]:
    """The OCT matrix: ``oct[kernel_id][processor_name]`` (eq. (6))."""
    cost = CostModel.ensure(system, lookup)
    oct_: dict[int, dict[str, float]] = {}
    procs = list(system.processors)
    for kid in reversed(dfg.topological_order()):
        succs = dfg.successors(kid)
        row: dict[str, float] = {}
        for pk in procs:
            if not succs:
                row[pk.name] = 0.0
                continue
            worst = 0.0
            for j in succs:
                spec_j = dfg.spec(j)
                cbar = _avg_comm(dfg, cost, j)
                best = min(
                    oct_[j][pw.name]
                    + cost.exec_time(spec_j.kernel, spec_j.data_size, pw.ptype)
                    + (0.0 if pw.name == pk.name else cbar)
                    for pw in procs
                )
                worst = max(worst, best)
            row[pk.name] = worst
        oct_[kid] = row
    return oct_


def rank_oct(oct_: dict[int, dict[str, float]]) -> dict[int, float]:
    """Row-average priority (eq. (7))."""
    return {kid: sum(row.values()) / len(row) for kid, row in oct_.items()}


class PEFT(StaticPolicy):
    """Predict Earliest Finish Time."""

    name = "peft"

    def plan(self, dfg: DFG, cost: CostModel) -> StaticPlan:
        system = cost.system
        oct_ = optimistic_cost_table(dfg, system, cost)
        ranks = rank_oct(oct_)

        proc_slots: dict[str, list[_Slot]] = {p.name: [] for p in system}
        proc_of: dict[int, str] = {}
        start: dict[int, float] = {}
        finish: dict[int, float] = {}

        # Ready-list order: highest rank_oct among kernels whose
        # predecessors are all planned (the PEFT paper's processing order).
        pending = {k: len(dfg.predecessors(k)) for k in dfg.kernel_ids()}
        ready = sorted(
            (k for k, n in pending.items() if n == 0), key=lambda k: (-ranks[k], k)
        )
        planned: set[int] = set()

        while ready:
            kid = ready.pop(0)
            spec = dfg.spec(kid)
            nbytes = cost.data_bytes(spec.data_size)
            best: tuple[float, float, float, str] | None = None  # (oeft, eft, s, proc)
            for proc in system:
                est = 0.0
                for pred in dfg.predecessors(kid):
                    comm = cost.transfer_time_ms(proc_of[pred], proc.name, nbytes)
                    est = max(est, finish[pred] + comm)
                w = cost.exec_time(spec.kernel, spec.data_size, proc.ptype)
                s = find_insertion_start(proc_slots[proc.name], est, w)
                eft = s + w
                oeft = eft + oct_[kid][proc.name]
                if best is None or oeft < best[0] - 1e-12:
                    best = (oeft, eft, s, proc.name)
            assert best is not None
            _, eft, s, pname = best
            proc_of[kid] = pname
            start[kid] = s
            finish[kid] = eft
            proc_slots[pname].append(_Slot(s, eft))
            planned.add(kid)
            for succ in dfg.successors(kid):
                pending[succ] -= 1
                if pending[succ] == 0:
                    ready.append(succ)
            ready.sort(key=lambda k: (-ranks[k], k))

        priority = {
            kid: i
            for i, kid in enumerate(
                sorted(dfg.kernel_ids(), key=lambda k: (start[k], -ranks[k], k))
            )
        }
        return StaticPlan(
            processor_of=proc_of,
            priority=priority,
            planned_start=start,
            planned_finish=finish,
        )
