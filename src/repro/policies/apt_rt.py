"""APT-RT — APT with remaining-time awareness (the paper's future work).

The conclusion sketches the next step: "In the future, we will consider
the remaining execution time in the optimal processor before deciding
whether to assign to an alternative processor."  APT-RT implements that:
an alternative processor is used only when it is *both*

1. within the APT threshold (``exec + transfer ≤ α·x``), and
2. actually faster than waiting — its completion time beats the estimated
   completion on the busy best processor
   (``free_at(p_min) − now + x``, i.e. remaining busy time plus the
   kernel's own best-case execution).

Condition 2 removes APT's main failure mode at large α (diverting a
kernel to a much slower device when the best one was about to free up),
flattening the right side of the α-valley.

**Preemptive mode** (``preemptive=True``) arms the same remaining-time
reasoning with a real-time lever on runs carrying a
:class:`~repro.core.dynamics.PreemptionDynamics` layer: when a ready
kernel is stuck — its best processor is busy for longer than the APT
threshold and no idle alternative qualifies — and evicting the occupant
pays (best-case restart beats the remaining wait by ``preempt_factor``),
APT-RT requests a preemption of the busy best instance.  The evicted
kernel returns to the ready set and is re-placed; the processor pays the
configured context-switch penalty.  Each ready kernel spends at most one
preemption credit per run, so the policy can never thrash.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.system import ProcessorType
from repro.policies.apt import APT
from repro.policies.base import SchedulingContext


class APT_RT(APT):
    """APT + remaining-time check on the optimal processor.

    Parameters (beyond :class:`~repro.policies.apt.APT`)
    ----------------------------------------------------
    preemptive:
        Enable the preemption request logic (only effective when the run
        carries a preemption dynamics layer; inert otherwise).
    preempt_factor:
        Safety margin on the eviction economics: preempt only when the
        gain (``remaining − penalty − x``) exceeds ``preempt_factor ×``
        the loss (the victim's elapsed work + penalty + re-serving the
        evictor's ``x``).
    """

    name = "apt_rt"
    # The remaining-time check compares busy processors' free_at against
    # the current clock, so answers can flip on pure time advance.
    time_sensitive = True
    # Nor does one call settle: the bound reads p_min's view before this
    # call's own p_min assignment is applied, so it is x and no
    # alternative beats it; after the apply it grows, and a re-ask may
    # place the waiting kernel on an alternative.
    settles = False

    def __init__(
        self,
        alpha: float = 4.0,
        include_transfer: bool = True,
        preemptive: bool = False,
        preempt_factor: float = 1.5,
    ) -> None:
        super().__init__(alpha=alpha, include_transfer=include_transfer)
        if preempt_factor < 1.0:
            raise ValueError(f"preempt_factor must be >= 1 (got {preempt_factor})")
        self.preemptive = bool(preemptive)
        self.preempt_factor = float(preempt_factor)
        self._preempt_spent: set[int] = set()
        self._n_preempt_requests = 0

    def reset(self) -> None:
        super().reset()
        self._preempt_spent = set()
        self._n_preempt_requests = 0

    def stats(self) -> dict[str, object]:
        out = super().stats()
        if self.preemptive:
            out["preempt_requests"] = self._n_preempt_requests
        return out

    def preempt(self, ctx: SchedulingContext) -> Sequence[str]:
        if not self.preemptive or ctx.preemption is None:
            return ()
        penalty = ctx.preemption.penalty_ms
        requests: list[str] = []
        claimed: set[str] = set()
        for kid in ctx.ready:
            if kid in self._preempt_spent:
                continue
            best_ptype, x = ctx.best_processor_type(kid)
            instances = ctx.system.names_by_type.get(best_ptype, ())
            if any(ctx.views[name].idle for name in instances):
                continue  # select() will place it normally
            threshold = self.alpha * x
            # an idle alternative within the threshold also unblocks it
            alt_ok = False
            for proc in ctx.system:
                if not ctx.views[proc.name].idle:
                    continue
                cost = ctx.exec_time(kid, proc.ptype)
                if self.include_transfer:
                    cost += ctx.transfer_time(kid, proc.name)
                if cost <= threshold:
                    alt_ok = True
                    break
            if alt_ok:
                continue
            # earliest-free, in-service, occupied best instance
            candidates = [
                name
                for name in instances
                if ctx.views[name].available
                and ctx.views[name].running_kernel is not None
                and name not in claimed
            ]
            if not candidates:
                continue
            target = min(candidates, key=ctx.free_at)
            remaining = ctx.free_at(target) - ctx.time
            if remaining <= threshold:
                continue  # waiting is within the APT tolerance
            # Eviction economics (SRPT-flavored): this kernel gains
            # (remaining − penalty − x); the system pays the victim's lost
            # elapsed work, the penalty, and re-serving the evictor ahead
            # of the victim (x).  Preempt only when the gain clears that
            # loss by preempt_factor.
            elapsed = ctx.preemption.elapsed_ms(target) or 0.0
            loss = elapsed + penalty + x
            if remaining - (penalty + x) <= self.preempt_factor * loss:
                continue  # eviction would not pay
            claimed.add(target)
            self._preempt_spent.add(kid)
            self._n_preempt_requests += 1
            requests.append(target)
        return requests

    def _alternative_bound(
        self, ctx: SchedulingContext, best_ptype: ProcessorType, x: float
    ) -> float:
        # Estimated completion if we wait for the earliest-free best
        # instance: its remaining busy time plus x.
        return (
            min(map(ctx.free_at, ctx.system.names_by_type.get(best_ptype, ())))
            - ctx.time
            + x
        )
