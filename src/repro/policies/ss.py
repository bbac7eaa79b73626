"""SS — priority-rule-based Serial Scheduling (Liu & Yang, 2011).

For each ready kernel, SS computes the standard deviation of its execution
times across the *available* processors, picks the kernel with the highest
standard deviation — the one that would suffer most from a bad placement —
and assigns it to the available processor with the lowest execution time
(§2.5.3).  Like SPN it never waits: "when the best processor is busy …
SS assigns kernels to processors even if they are not the best choice."
"""

from __future__ import annotations

import math

from repro.policies.base import Assignment, DynamicPolicy, SchedulingContext, ready_by_times


def _population_stddev(values: list[float]) -> float:
    n = len(values)
    if n <= 1:
        return 0.0
    mean = sum(values) / n
    # d * d rather than d ** 2: multiplication is a single correctly
    # rounded IEEE operation on every platform.
    total = 0.0
    for v in values:
        d = v - mean
        total += d * d
    return math.sqrt(total / n)


class SS(DynamicPolicy):
    """Serial Scheduling (highest execution-time spread first).

    The highest spread wins, ties going to the earlier kernel in FCFS
    order; its processor is the fastest idle one, ties going to the
    earlier idle processor.  Kernels with equal exec times have equal
    spreads, so only the first of each :func:`ready_by_times` group is
    scored.
    """

    name = "ss"
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
            best: tuple[float, ...] = ()
            best_head = -1
            best_sd = -1.0
            for times, positions in groups.items():
                sd = _population_stddev([times[col] for col in cols])
                head = positions[0]
                if sd > best_sd or (sd == best_sd and head < best_head):
                    best, best_head, best_sd = times, head, sd
            j = min(range(len(cols)), key=lambda j: (best[cols[j]], j))
            positions = groups[best]
            del positions[0]
            if not positions:
                del groups[best]
            out.append(Assignment(kernel_id=ready[best_head], processor=idle.pop(j)))
        return out
