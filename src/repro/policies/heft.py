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

Phase 2 is :func:`list_schedule`, the one insertion-based EFT list
scheduler that PEFT and CPOP plan through too, each with its own kernel
priority, candidate processors and placement score.  All costs come from
the run's :class:`~repro.core.cost.CostModel`, so a transfers-disabled
run plans with zero communication — the same zero the simulator will
charge.  The module also exposes :func:`upward_rank` /
:func:`downward_rank` (eq. (5)) as standalone utilities.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from repro.core.cost import CostModel
from repro.core.system import Processor
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


def upward_rank(dfg: DFG, cost: CostModel) -> dict[int, float]:
    """``rank_u`` for every kernel (eq. (3)); exit kernels get w̄ (eq. (4))."""
    ranks: dict[int, float] = {}
    for kid in reversed(dfg.topological_order()):
        w = _avg_exec(dfg, cost, kid)
        succs = dfg.successors(kid)
        if not succs:
            ranks[kid] = w
        else:
            ranks[kid] = w + max(_avg_comm(dfg, cost, j) + ranks[j] for j in succs)
    return ranks


def downward_rank(dfg: DFG, cost: CostModel) -> dict[int, float]:
    """``rank_d`` for every kernel (eq. (5)); entry kernels get 0."""
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


def list_schedule(
    dfg: DFG,
    cost: CostModel,
    priority: Mapping[int, float],
    candidates: Callable[[int], Iterable[Processor]],
    score: Callable[[int, str, float], float],
) -> StaticPlan:
    """Insertion-based earliest-finish-time list scheduling.

    Kernels are planned in ready-list order: the highest ``priority``
    (ties: lowest id) among kernels whose predecessors are all planned.
    On each of ``candidates(kid)`` the kernel starts at the first idle
    gap (:func:`find_insertion_start`) after every predecessor's planned
    finish plus its transfer; it goes to the candidate with the lowest
    ``score(kid, processor name, EFT)``, a later candidate winning only
    by more than 1e-12.  Dispatch priority follows the planned start
    (ties: higher ``priority``, then lower id).
    """
    slots: dict[str, list[_Slot]] = {p.name: [] for p in cost.system}
    proc_of: dict[int, str] = {}
    start: dict[int, float] = {}
    finish: dict[int, float] = {}

    pending = {k: len(dfg.predecessors(k)) for k in dfg.kernel_ids()}
    ready = [(-priority[k], k) for k, n in pending.items() if n == 0]
    heapq.heapify(ready)
    while ready:
        _, kid = heapq.heappop(ready)
        spec = dfg.spec(kid)
        nbytes = cost.data_bytes(spec.data_size)
        preds = dfg.predecessors(kid)
        best: tuple[float, float, float, str] | None = None  # (score, eft, s, proc)
        for proc in candidates(kid):
            est = 0.0
            for pred in preds:
                comm = cost.transfer_time_ms(proc_of[pred], proc.name, nbytes)
                est = max(est, finish[pred] + comm)
            w = cost.exec_time(spec.kernel, spec.data_size, proc.ptype)
            s = find_insertion_start(slots[proc.name], est, w)
            eft = s + w
            value = score(kid, proc.name, eft)
            if best is None or value < best[0] - 1e-12:
                best = (value, eft, s, proc.name)
        assert best is not None
        _, eft, s, pname = best
        proc_of[kid] = pname
        start[kid] = s
        finish[kid] = eft
        slots[pname].append(_Slot(s, eft))
        for succ in dfg.successors(kid):
            pending[succ] -= 1
            if pending[succ] == 0:
                heapq.heappush(ready, (-priority[succ], succ))

    order = sorted(dfg.kernel_ids(), key=lambda k: (start[k], -priority[k], k))
    return StaticPlan(
        processor_of=proc_of,
        priority={kid: i for i, kid in enumerate(order)},
        planned_start=start,
        planned_finish=finish,
    )


class HEFT(StaticPolicy):
    """Heterogeneous Earliest Finish Time."""

    name = "heft"

    def plan(self, dfg: DFG, cost: CostModel) -> StaticPlan:
        return list_schedule(
            dfg,
            cost,
            upward_rank(dfg, cost),
            lambda kid: cost.system.processors,
            lambda kid, proc, eft: eft,
        )
