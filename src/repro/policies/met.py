"""MET — Minimum Execution Time / "best only" (Braun et al., 2001).

MET assigns each kernel to the processor with the lowest execution time
for it, *waiting* for that processor if it is busy (§2.5.3): "if the best
suited processor for the kernel is not currently available, [the] policy
decides to wait for the best processor to become available".  A processor
can therefore sit idle while suitable work waits for a different device —
the inefficiency APT's threshold removes.
"""

from __future__ import annotations

from repro.policies.base import Assignment, DynamicPolicy, SchedulingContext


class MET(DynamicPolicy):
    """Minimum Execution Time.

    Braun et al. pick kernels "in a random order from I"; this MET visits
    the ready queue first-come-first-serve (the paper's queue discipline,
    §3.1), so every schedule is deterministic.
    """

    name = "met"
    time_sensitive = False
    settles = True

    def select(self, ctx: SchedulingContext) -> list[Assignment]:
        out: list[Assignment] = []
        names_by_type = ctx.system.names_by_type
        # Idle and not yet consumed this call, in system declaration order.
        avail: dict[str, None] = {
            p.name: None for p in ctx.system if ctx.views[p.name].idle
        }
        for kid in ctx.ready:
            if not avail:
                # MET only ever targets a kernel's best category; with no
                # processor available nothing further can be assigned.
                break
            best_ptype = ctx.cost_row(kid).best_ptype
            p_min = next(
                (n for n in names_by_type.get(best_ptype, ()) if n in avail), None
            )
            if p_min is not None:
                del avail[p_min]
                out.append(Assignment(kernel_id=kid, processor=p_min))
        return out
