"""PEFT — Predict Earliest Finish Time (Arabnejad & Barbosa, 2013).

PEFT is a static list scheduler like HEFT, but its look-ahead comes from a
pre-computed **Optimistic Cost Table** (paper eq. (6))::

    OCT(t_i, p_k) = max_{t_j ∈ succ(t_i)} [ min_{p_w} { OCT(t_j, p_w)
                    + w(t_j, p_w) + c̄_{i,j} } ],   c̄_{i,j} = 0 if p_w = p_k

with ``OCT(exit, ·) = 0``.  Kernel priority is the row average
``rank_oct`` (eq. (7)); processor selection minimizes the *Optimistic* EFT

    OEFT(t_i, p_k) = EFT(t_i, p_k) + OCT(t_i, p_k)

where EFT is HEFT's insertion-based one: PEFT plans through
:func:`~repro.policies.heft.list_schedule` with ``rank_oct`` as the
priority and OEFT as the placement score.  All costs come from the run's
:class:`~repro.core.cost.CostModel`, so a transfers-disabled run plans
with zero communication.
"""

from __future__ import annotations

from repro.core.cost import CostModel
from repro.graphs.dfg import DFG
from repro.policies.base import StaticPlan, StaticPolicy
from repro.policies.heft import _avg_comm, list_schedule


def optimistic_cost_table(dfg: DFG, cost: CostModel) -> dict[int, dict[str, float]]:
    """The OCT matrix: ``oct[kernel_id][processor_name]`` (eq. (6))."""
    oct_: dict[int, dict[str, float]] = {}
    procs = list(cost.system.processors)
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
        oct_ = optimistic_cost_table(dfg, cost)
        return list_schedule(
            dfg,
            cost,
            rank_oct(oct_),
            lambda kid: cost.system.processors,
            lambda kid, proc, eft: eft + oct_[kid][proc],
        )
