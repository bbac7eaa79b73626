"""Batch-mode heuristics from Braun et al. (2001): Min-Min, Max-Min, Sufferage.

The paper evaluates two of Braun's eleven heuristics (MET and, via
lineage, OLB); these three are the other classics from the same study and
round out the dynamic baseline pool.  All three rate each ready kernel by
its *completion* cost on the currently idle processors
(execution + inbound transfer) and differ only in which kernel they place
first:

* **Min-Min** — the kernel with the smallest best-case completion
  (finish the quick stuff, keep queues short);
* **Max-Min** — the kernel with the *largest* best-case completion
  (get the long poles started early);
* **Sufferage** — the kernel that would *suffer* most if denied its best
  processor (largest gap between its best and second-best completion).

Like SPN/SS they never leave a processor idle while work is ready, so
they inherit the same failure mode on high-heterogeneity systems: a
kernel may land on a catastrophically slow device.
"""

from __future__ import annotations

from repro.policies.base import Assignment, DynamicPolicy, SchedulingContext


def _completion(ctx: SchedulingContext, kid: int, proc_name: str) -> float:
    return ctx.exec_time_on(kid, proc_name) + ctx.transfer_time(kid, proc_name)


class _BatchModePolicy(DynamicPolicy):
    """Shared select() loop; subclasses supply the kernel-choice rule."""

    #: Completion costs depend only on the ready set and idle processors.
    time_sensitive = False
    settles = True

    def _score(self, best: float, second: float) -> float:
        raise NotImplementedError

    def select(self, ctx: SchedulingContext) -> list[Assignment]:
        out: list[Assignment] = []
        ready = list(ctx.ready)
        idle = [v.name for v in ctx.idle_processors()]
        while ready and idle:
            best_kid: int | None = None
            best_score = -float("inf")
            best_proc = idle[0]
            for kid in ready:
                costs = sorted(_completion(ctx, kid, name) for name in idle)
                second = costs[1] if len(costs) > 1 else costs[0]
                score = self._score(costs[0], second)
                if score > best_score:
                    best_kid, best_score = kid, score
                    best_proc = min(idle, key=lambda n: _completion(ctx, kid, n))
            assert best_kid is not None
            ready.remove(best_kid)
            idle.remove(best_proc)
            out.append(Assignment(kernel_id=best_kid, processor=best_proc))
        return out


class MinMin(_BatchModePolicy):
    """Min-Min: smallest best-case completion first."""

    name = "minmin"

    def _score(self, best: float, second: float) -> float:
        return -best


class MaxMin(_BatchModePolicy):
    """Max-Min: largest best-case completion first."""

    name = "maxmin"

    def _score(self, best: float, second: float) -> float:
        return best


class Sufferage(_BatchModePolicy):
    """Sufferage: largest (second-best − best) completion gap first."""

    name = "sufferage"

    def _score(self, best: float, second: float) -> float:
        return second - best
