"""Random assignment — a sanity-check baseline.

Wu et al. (2012) pair Adaptive Greedy with an *Adaptive Random* policy
that assigns by weighted coin-flips (§2.5.2).  This deterministic-given-
seed variant assigns each ready kernel to a uniformly random idle
processor; it bounds how much any informed policy must win by.
"""

from __future__ import annotations

import numpy as np

from repro.policies.base import Assignment, DynamicPolicy, SchedulingContext


class RandomPolicy(DynamicPolicy):
    """Uniform-random kernel→idle-processor assignment (seeded)."""

    name = "random"
    time_sensitive = False
    settles = True

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def reset(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    def select(self, ctx: SchedulingContext) -> list[Assignment]:
        out: list[Assignment] = []
        idle = [v.name for v in ctx.idle_processors()]
        for kid in ctx.ready:
            if not idle:
                break
            pick = int(self._rng.integers(len(idle)))
            out.append(Assignment(kernel_id=kid, processor=idle.pop(pick)))
        return out
