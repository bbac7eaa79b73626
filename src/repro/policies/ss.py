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

from repro.policies.base import Assignment, DynamicPolicy, SchedulingContext


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
    """Serial Scheduling (highest execution-time spread first)."""

    name = "ss"
    time_sensitive = False
    settles = True

    def select(self, ctx: SchedulingContext) -> list[Assignment]:
        out: list[Assignment] = []
        ready = list(ctx.ready)
        idle = [v.name for v in ctx.idle_processors()]
        while ready and idle:
            best_kid: int | None = None
            best_sd = -1.0
            for kid in ready:
                sd = _population_stddev([ctx.exec_time_on(kid, n) for n in idle])
                if sd > best_sd:
                    best_kid, best_sd = kid, sd
            assert best_kid is not None
            name = min(idle, key=lambda n: (ctx.exec_time_on(best_kid, n), idle.index(n)))
            ready.remove(best_kid)
            idle.remove(name)
            out.append(Assignment(kernel_id=best_kid, processor=name))
        return out
