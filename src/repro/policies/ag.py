"""AG — Adaptive Greedy (Wu, Shi & Hong, 2012), generalized to CPU/GPU/FPGA.

AG maintains a queue per processor and assigns each arriving kernel to the
device with the lowest estimated *waiting* time (paper eqs. (1)–(2))::

    τ_g   = τ_g^q + τ_g^d          total waiting time on device g
    τ_g^q = N_g · τ_g^k            queueing delay
    τ_g^d                          inbound data-transfer delay

where ``N_g`` counts kernel calls queued on ``g`` (including the one
running) and ``τ_g^k`` is the average execution time of the last *k*
kernel calls on ``g``.  Crucially the *kernel's own execution time on g*
is **not** part of the metric — AG optimizes data movement and queueing,
not compute placement, which is why it collapses on workloads with large
compute heterogeneity (paper Tables 8–10).
"""

from __future__ import annotations

from repro.policies.base import Assignment, DynamicPolicy, SchedulingContext


class AG(DynamicPolicy):
    """Adaptive Greedy.

    Parameters
    ----------
    history_window:
        *k* in τ_g^k — how many recent kernel calls on a device feed its
        average execution-time estimate (Wu et al. use a small sliding
        window; default 5).
    """

    name = "ag"
    time_sensitive = False
    settles = True

    def __init__(self, history_window: int = 5) -> None:
        if history_window < 1:
            raise ValueError("history_window must be >= 1")
        self.history_window = int(history_window)

    def select(self, ctx: SchedulingContext) -> list[Assignment]:
        out: list[Assignment] = []
        # Kernels queued by this call also occupy queue slots.
        extra_queue: dict[str, int] = {p.name: 0 for p in ctx.system}
        for kid in ctx.ready:
            best_name: str | None = None
            best_tau = float("inf")
            for proc in ctx.system:
                view = ctx.views[proc.name]
                n_g = (
                    view.queue_length
                    + (1 if view.running_kernel is not None else 0)
                    + extra_queue[proc.name]
                )
                history = ctx.exec_history.get(proc.name, ())
                window = history[-self.history_window :]
                if window:
                    tau_k = sum(window) / len(window)
                else:
                    # No history yet: estimate with this kernel's own time.
                    tau_k = ctx.exec_time(kid, proc.ptype)
                tau = n_g * tau_k + ctx.transfer_time(kid, proc.name)
                if tau < best_tau:
                    best_name, best_tau = proc.name, tau
            assert best_name is not None
            extra_queue[best_name] += 1
            out.append(Assignment(kernel_id=kid, processor=best_name, queued=True))
        return out
