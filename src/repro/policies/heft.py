"""HEFT — Heterogeneous Earliest Finish Time (Topcuoglu et al., 2002).

A static list scheduler in two phases (§2.5.3, eqs. (3)–(5)):

1. **Task prioritization** — each kernel gets an *upward rank*

   .. math:: rank_u(n_i) = \\bar w_i + \\max_{n_j \\in succ(n_i)}
             (\\bar c_{i,j} + rank_u(n_j))

   with :math:`\\bar w_i` the execution time averaged over processors and
   :math:`\\bar c_{i,j}` the average communication cost of edge *(i, j)*;
   kernels are processed in decreasing ``rank_u``.

2. **Processor selection** — insertion-based earliest finish time: the
   kernel goes to the processor minimizing its EFT, allowing insertion
   into an idle gap between two already-scheduled kernels when the gap can
   accommodate it.

All costs come from a :class:`~repro.core.cost.CostModel`, so a
transfers-disabled run plans with zero communication — the same zero the
simulator will charge.  The module also exposes :func:`upward_rank` /
:func:`downward_rank` (eq. (5)) as standalone utilities; they accept
either a bare lookup table or a cost model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cost import CostModel
from repro.core.lookup import LookupTable
from repro.core.system import SystemConfig
from repro.graphs.dfg import DFG
from repro.policies.base import StaticPlan, StaticPolicy


@dataclass(frozen=True)
class _Slot:
    """A scheduled occupancy interval on one processor (plan-internal)."""

    start: float
    finish: float


def _avg_exec(dfg: DFG, cost: CostModel, kid: int) -> float:
    spec = dfg.spec(kid)
    times = [cost.exec_time(spec.kernel, spec.data_size, p.ptype) for p in cost.system]
    return sum(times) / len(times)


def _avg_comm(dfg: DFG, cost: CostModel, dst_kid: int) -> float:
    """Average communication cost of an edge into ``dst_kid``.

    Averaged over all ordered processor pairs, including the zero-cost
    same-processor pairs — the standard HEFT convention for
    :math:`\\bar c_{i,j}`.  Zero when the cost model disables transfers.
    """
    return cost.avg_comm(dfg.spec(dst_kid).data_size)


def upward_rank(
    dfg: DFG,
    system: SystemConfig,
    lookup: LookupTable | CostModel,
) -> dict[int, float]:
    """``rank_u`` for every kernel (eq. (3)); exit kernels get w̄ (eq. (4))."""
    cost = CostModel.ensure(system, lookup)
    ranks: dict[int, float] = {}
    for kid in reversed(dfg.topological_order()):
        w = _avg_exec(dfg, cost, kid)
        succs = dfg.successors(kid)
        if not succs:
            ranks[kid] = w
        else:
            ranks[kid] = w + max(_avg_comm(dfg, cost, j) + ranks[j] for j in succs)
    return ranks


def downward_rank(
    dfg: DFG,
    system: SystemConfig,
    lookup: LookupTable | CostModel,
) -> dict[int, float]:
    """``rank_d`` for every kernel (eq. (5)); entry kernels get 0."""
    cost = CostModel.ensure(system, lookup)
    ranks: dict[int, float] = {}
    for kid in dfg.topological_order():
        preds = dfg.predecessors(kid)
        if not preds:
            ranks[kid] = 0.0
        else:
            ranks[kid] = max(
                ranks[j] + _avg_exec(dfg, cost, j) + _avg_comm(dfg, cost, kid)
                for j in preds
            )
    return ranks


def find_insertion_start(slots: list[_Slot], est: float, duration: float) -> float:
    """Earliest start ≥ ``est`` on a processor with occupied ``slots``.

    Implements HEFT's insertion policy: scan the idle gaps (before the
    first slot, between slots, after the last) for the first one that can
    hold ``duration`` starting no earlier than ``est``.
    """
    if not slots:
        return est
    ordered = sorted(slots, key=lambda s: s.start)
    # gap before the first slot
    if est + duration <= ordered[0].start + 1e-12:
        return est
    for cur, nxt in zip(ordered, ordered[1:]):
        start = max(est, cur.finish)
        if start + duration <= nxt.start + 1e-12:
            return start
    return max(est, ordered[-1].finish)


class HEFT(StaticPolicy):
    """Heterogeneous Earliest Finish Time."""

    name = "heft"

    def plan(self, dfg: DFG, cost: CostModel) -> StaticPlan:
        system = cost.system
        ranks = upward_rank(dfg, system, cost)
        order = sorted(dfg.kernel_ids(), key=lambda k: (-ranks[k], k))

        proc_slots: dict[str, list[_Slot]] = {p.name: [] for p in system}
        proc_of: dict[int, str] = {}
        start: dict[int, float] = {}
        finish: dict[int, float] = {}

        for kid in order:
            spec = dfg.spec(kid)
            nbytes = cost.data_bytes(spec.data_size)
            best: tuple[float, float, str] | None = None  # (eft, est, proc)
            for proc in system:
                est = 0.0
                for pred in dfg.predecessors(kid):
                    comm = cost.transfer_time_ms(proc_of[pred], proc.name, nbytes)
                    est = max(est, finish[pred] + comm)
                w = cost.exec_time(spec.kernel, spec.data_size, proc.ptype)
                s = find_insertion_start(proc_slots[proc.name], est, w)
                eft = s + w
                if best is None or eft < best[0] - 1e-12:
                    best = (eft, s, proc.name)
            assert best is not None
            eft, s, pname = best
            proc_of[kid] = pname
            start[kid] = s
            finish[kid] = eft
            proc_slots[pname].append(_Slot(s, eft))

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
