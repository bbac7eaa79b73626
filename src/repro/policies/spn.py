"""SPN — Shortest Process Next (Khokhar et al., 1993).

SPN "chooses a kernel from I that has the minimum execution time on any
of the processors from A" (§2.5.3) and assigns it there, repeating while
both kernels and processors are available.  It never waits — keeping the
system busy minimizes λ delay — but disregards heterogeneity: a kernel may
land on a processor orders of magnitude slower than its best one.
"""

from __future__ import annotations

from repro.policies.base import Assignment, DynamicPolicy, SchedulingContext, ready_by_times


class SPN(DynamicPolicy):
    """Shortest Process Next.

    The pick is the smallest exec time over (ready kernel, idle
    processor) pairs, ties going to the earlier kernel in FCFS order,
    then to the earlier idle processor.  Kernels with equal exec times
    tie on every pair, so only the first of each :func:`ready_by_times`
    group is scored: O(distinct rows × idle) per pick, not O(ready ×
    idle).
    """

    name = "spn"
    time_sensitive = False
    settles = True

    def select(self, ctx: SchedulingContext) -> list[Assignment]:
        out: list[Assignment] = []
        ready = ctx.ready
        groups = ready_by_times(ctx)
        index = ctx.system.index_by_name
        idle = [v.name for v in ctx.idle_processors()]
        while groups and idle:
            cols = [index[name] for name in idle]
            # (time, FCFS position of the kernel, idle position, group)
            best: tuple[float, int, int, tuple[float, ...]] | None = None
            for times, positions in groups.items():
                head = positions[0]
                for j, col in enumerate(cols):
                    t = times[col]
                    if best is None or t < best[0] or (t == best[0] and head < best[1]):
                        best = (t, head, j, times)
            assert best is not None
            _, head, j, times = best
            positions = groups[times]
            del positions[0]
            if not positions:
                del groups[times]
            out.append(Assignment(kernel_id=ready[head], processor=idle.pop(j)))
        return out
