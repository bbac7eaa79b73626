"""MET — Minimum Execution Time / "best only" (Braun et al., 2001).

MET assigns each kernel to the processor with the lowest execution time
for it, *waiting* for that processor if it is busy (§2.5.3): "if the best
suited processor for the kernel is not currently available, [the] policy
decides to wait for the best processor to become available".  A processor
can therefore sit idle while suitable work waits for a different device —
the inefficiency APT's threshold removes.
"""

from __future__ import annotations

import numpy as np

from repro.policies.base import Assignment, DynamicPolicy, SchedulingContext


class MET(DynamicPolicy):
    """Minimum Execution Time.

    Parameters
    ----------
    rng:
        Braun et al. pick kernels "in a random order from I"; pass a seeded
        :class:`numpy.random.Generator` for that behaviour.  The default
        (``None``) visits the ready queue first-come-first-serve, which is
        deterministic and — because MET only ever waits for one specific
        processor per kernel — produces the same schedules.
    """

    name = "met"

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        self.rng = rng
        # A seeded MET draws a permutation on *every* invocation, so its
        # answers are not a pure function of the context — opt out of the
        # simulator's skip-when-unchanged guard to keep the RNG stream
        # aligned with an always-reinvoking engine.
        self.time_sensitive = rng is not None

    def select(self, ctx: SchedulingContext) -> list[Assignment]:
        out: list[Assignment] = []
        # Idle and not yet consumed this call, in system declaration order.
        avail: dict[str, None] = {
            p.name: None for p in ctx.system if ctx.views[p.name].idle
        }
        order = list(ctx.ready)
        if self.rng is not None:
            order = [order[i] for i in self.rng.permutation(len(order))]
        for kid in order:
            if not avail:
                # MET only ever targets a kernel's best category; with no
                # processor available nothing further can be assigned.
                break
            best_ptype, _ = ctx.best_processor_type(kid)
            p_min = next(
                (p.name for p in ctx.system.of_type(best_ptype) if p.name in avail),
                None,
            )
            if p_min is not None:
                del avail[p_min]
                out.append(Assignment(kernel_id=kid, processor=p_min))
        return out
