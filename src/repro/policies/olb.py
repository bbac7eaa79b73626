"""OLB — Opportunistic Load Balancing (Braun et al., 2001).

OLB assigns the next kernel to the next available processor without
looking at execution times at all (§2.1: it "does not consider the
execution time of each task on the given hardware platform before making
assignments").  The paper excludes it from the head-to-head comparison
for that reason, but it is the ancestor of SPN and a useful
lower-baseline, so we ship it too.
"""

from __future__ import annotations

from repro.policies.base import Assignment, DynamicPolicy, SchedulingContext


class OLB(DynamicPolicy):
    """Opportunistic Load Balancing: first ready kernel → first idle processor."""

    name = "olb"
    time_sensitive = False

    def select(self, ctx: SchedulingContext) -> list[Assignment]:
        out: list[Assignment] = []
        idle = [v.name for v in ctx.idle_processors()]
        for kid in ctx.ready:
            if not idle:
                break
            out.append(Assignment(kernel_id=kid, processor=idle.pop(0)))
        return out
