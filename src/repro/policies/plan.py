"""Static-plan execution driver.

A :class:`~repro.policies.base.StaticPolicy` produces a full
:class:`~repro.policies.base.StaticPlan` up front; the simulator then
needs a *dynamic* driver that dispatches the plan against live system
state.  That driver is :class:`PlanDispatcher` — it is a
:class:`~repro.policies.base.DynamicPolicy` like any other, not engine
internals, which is why it lives here rather than in
:mod:`repro.core.simulator`.
"""

from __future__ import annotations

from repro.policies.base import (
    Assignment,
    DynamicPolicy,
    SchedulingContext,
    StaticPlan,
)


class PlanDispatcher(DynamicPolicy):
    """Driver executing a :class:`~repro.policies.base.StaticPlan`.

    Each processor runs its planned kernels strictly in plan-priority
    order; a kernel is dispatched once it is ready, its processor is idle,
    and every earlier-priority kernel planned to that processor has been
    dispatched.  Kernels aborted by fault-injection or preemption
    dynamics (reported through :meth:`on_abort`) are re-dispatched to
    their planned processor ahead of the remaining plan order.
    """

    name = "_plan"
    time_sensitive = False
    settles = True

    def __init__(self, plan: StaticPlan) -> None:
        self._plan = plan
        # per-processor dispatch order
        self._order: dict[str, list[int]] = {}
        for kid, proc in plan.processor_of.items():
            self._order.setdefault(proc, []).append(kid)
        for proc in self._order:
            self._order[proc].sort(key=lambda k: plan.priority[k])
        # per-processor cursor into _order: everything before it dispatched.
        self._cursor: dict[str, int] = {proc: 0 for proc in self._order}
        # aborted kernels awaiting re-dispatch, FIFO per processor
        self._redo: dict[str, list[int]] = {}

    def reset(self) -> None:
        self._cursor = {proc: 0 for proc in self._order}
        self._redo = {}

    def on_abort(self, kid: int) -> None:
        proc = self._plan.processor_of.get(kid)
        if proc is not None:
            self._redo.setdefault(proc, []).append(kid)

    def select(self, ctx: SchedulingContext) -> list[Assignment]:
        out: list[Assignment] = []
        ready = set(ctx.ready)
        for proc_name, order in self._order.items():
            view = ctx.views[proc_name]
            if not view.idle:
                continue
            redo = self._redo.get(proc_name)
            if redo:
                if redo[0] in ready:
                    out.append(Assignment(kernel_id=redo.pop(0), processor=proc_name))
                continue
            i = self._cursor[proc_name]
            if i < len(order) and order[i] in ready:
                self._cursor[proc_name] = i + 1
                out.append(Assignment(kernel_id=order[i], processor=proc_name))
        return out
