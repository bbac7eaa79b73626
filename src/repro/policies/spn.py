"""SPN — Shortest Process Next (Khokhar et al., 1993).

SPN "chooses a kernel from I that has the minimum execution time on any
of the processors from A" (§2.5.3) and assigns it there, repeating while
both kernels and processors are available.  It never waits — keeping the
system busy minimizes λ delay — but disregards heterogeneity: a kernel may
land on a processor orders of magnitude slower than its best one.
"""

from __future__ import annotations

from repro.policies.base import Assignment, DynamicPolicy, SchedulingContext


class SPN(DynamicPolicy):
    """Shortest Process Next."""

    name = "spn"
    time_sensitive = False

    def select(self, ctx: SchedulingContext) -> list[Assignment]:
        out: list[Assignment] = []
        ready = list(ctx.ready)
        idle = [v.name for v in ctx.idle_processors()]
        while ready and idle:
            best: tuple[float, int, str] | None = None
            for kid in ready:
                for name in idle:
                    t = ctx.exec_time_on(kid, name)
                    if best is None or t < best[0]:
                        best = (t, kid, name)
            assert best is not None
            _, kid, name = best
            ready.remove(kid)
            idle.remove(name)
            out.append(Assignment(kernel_id=kid, processor=name))
        return out
