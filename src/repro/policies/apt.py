"""APT — Alternative Processor within Threshold (the paper's contribution).

APT (Algorithm 1, §3.1) is a dynamic heuristic that adds *flexibility* to
MET.  For each ready kernel (FCFS):

1. find ``p_min``, the processor category with the minimum lookup-table
   execution time ``x`` for the kernel;
2. if an instance of ``p_min`` is available, assign the kernel there;
3. otherwise look for an *alternative* processor ``p_alt`` — an available
   processor whose ``execution time + inbound data-transfer time`` is
   within the threshold

   .. math:: threshold = \\alpha \\cdot x, \\qquad \\alpha \\ge 1

   and assign to the best-qualifying one;
4. if no alternative qualifies, the kernel waits (exactly like MET).

``α`` tunes the flexibility: α → 1 degenerates to MET (never accept a
slower processor), large α floods slow processors.  The paper finds a
"valley" with the optimum at α = 4 for its CPU/GPU/FPGA system.
"""

from __future__ import annotations

from heapq import heapify, heappop, heapreplace
from typing import Iterator, Mapping

from repro.core.cost import CostModel
from repro.core.system import ProcessorType
from repro.policies.base import Assignment, DynamicPolicy, SchedulingContext


def _candidates(ctx: SchedulingContext, avail: Mapping[str, None]) -> Iterator[int]:
    """The ready kernels APT could still place, in FCFS order.

    With the engine's candidate index this is the FCFS union of the
    buckets of the categories with a processor in ``avail``, merged by
    sequence number; a category stops contributing as soon as its last
    processor leaves ``avail``.  A kernel left out has no available
    p_min and an exec time above α·x on every available category, and
    transfers only add to that, so it could not have been placed.
    Without an index every ready kernel is a candidate.
    """
    buckets = ctx.ready_by_type
    if buckets is None:
        yield from ctx.ready
        return
    free = avail.keys()
    names_by_type = ctx.system.names_by_type
    heap = []
    for i, (ptype, bucket) in enumerate(buckets.items()):
        names = names_by_type[ptype]
        entries = iter(bucket.items())
        head = next(entries, None)
        if head is not None and not free.isdisjoint(names):
            heap.append((head[1], i, head[0], names, entries))
    heapify(heap)
    last = -1
    while heap:
        seq, i, kid, names, entries = heap[0]
        if free.isdisjoint(names):  # the category's last processor was taken
            heappop(heap)
            continue
        head = next(entries, None)
        if head is None:
            heappop(heap)
        else:
            heapreplace(heap, (head[1], i, head[0], names, entries))
        if seq != last:  # once per kernel, whatever buckets it is in
            last = seq
            yield kid


class APT(DynamicPolicy):
    """Alternative Processor within Threshold.

    Parameters
    ----------
    alpha:
        Threshold multiplier (≥ 1).  ``threshold = alpha * x`` where ``x``
        is the kernel's execution time on its best processor.
    include_transfer:
        Whether the alternative-processor test compares
        ``exec + transfer ≤ threshold`` (the paper's definition of
        ``p_alt``; default) or ``exec ≤ threshold`` alone.  Exposed as an
        ablation knob.
    """

    name = "apt"
    time_sensitive = False
    settles = True

    def __init__(self, alpha: float = 4.0, include_transfer: bool = True) -> None:
        if alpha < 1.0:
            raise ValueError(f"alpha must be >= 1 (got {alpha})")
        self.alpha = float(alpha)
        self.include_transfer = bool(include_transfer)
        self._alt_by_kernel: dict[str, int] = {}

    def reset(self) -> None:
        self._alt_by_kernel = {}

    def stats(self) -> dict[str, object]:
        """Alternative-assignment counts, as in paper Tables 15/16."""
        return {
            "alternative_assignments": sum(self._alt_by_kernel.values()),
            "alternative_by_kernel": dict(sorted(self._alt_by_kernel.items())),
            "alpha": self.alpha,
        }

    def placement_types(
        self, kernel: str, data_size: int, cost: CostModel
    ) -> tuple[ProcessorType, ...]:
        """Categories whose exec time is within α·x — p_min among them,
        since α ≥ 1.  An alternative's exec + transfer can only be
        larger, so no other category can ever take the kernel."""
        threshold = self.alpha * cost.best_processor(kernel, data_size)[1]
        return tuple(
            ptype
            for ptype in cost.system.processor_types()
            if cost.exec_time(kernel, data_size, ptype) <= threshold
        )

    def _alternative_bound(
        self, ctx: SchedulingContext, best_ptype: ProcessorType, x: float
    ) -> float:
        """An alternative's exec + transfer must also stay below this;
        APT adds no bound beyond the threshold."""
        return float("inf")

    # ------------------------------------------------------------------
    def select(self, ctx: SchedulingContext) -> list[Assignment]:
        out: list[Assignment] = []
        index = ctx.system.index_by_name
        names_by_type = ctx.system.names_by_type
        views = ctx.views
        # Available = idle and not consumed by an assignment made earlier
        # in this call.  An insertion-ordered dict keeps the scan in
        # system declaration order — the same tie-break the per-kernel
        # view checks produced — at O(available) instead of O(P) probes.
        avail: dict[str, None] = {name: None for name in index if views[name].idle}

        for kid in _candidates(ctx, avail):
            if not avail:
                # No processor can accept work: neither a p_min nor an
                # alternative exists for any remaining kernel.
                break
            # the kernel's lookup-table prices, one row per cost class
            times, best_ptype, x = ctx.cost_row(kid)
            # findBestProc: an available instance of the best category.
            p_min = next(
                (n for n in names_by_type.get(best_ptype, ()) if n in avail), None
            )
            if p_min is not None:
                del avail[p_min]
                out.append(Assignment(kernel_id=kid, processor=p_min))
                continue
            # find2ndBestProc: cheapest available processor within threshold.
            threshold = self.alpha * x
            # Inbound transfers exist only when some predecessor already ran
            # on another processor — hoisted out of the candidate scan.
            needs_transfer = self.include_transfer and any(
                ctx.assignment_of.get(p) is not None for p in ctx.predecessors(kid)
            )
            best_alt: str | None = None
            best_cost = self._alternative_bound(ctx, best_ptype, x)
            for name in avail:
                cost = times[index[name]]
                if needs_transfer:
                    cost += ctx.transfer_time(kid, name)
                if cost <= threshold and cost < best_cost:
                    best_alt, best_cost = name, cost
            if best_alt is not None:
                del avail[best_alt]
                kernel_name = ctx.spec(kid).kernel
                self._alt_by_kernel[kernel_name] = (
                    self._alt_by_kernel.get(kernel_name, 0) + 1
                )
                out.append(
                    Assignment(kernel_id=kid, processor=best_alt, alternative=True)
                )
            # else: wait for p_min, like MET.
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"APT(alpha={self.alpha}, include_transfer={self.include_transfer})"
