"""Ablation studies of APT's design choices (ours, beyond the paper).

Three knobs docs/architecture.md flags as load-bearing:

1. **Transfer term in the threshold test** — the paper defines p_alt over
   ``exec + transfer ≤ α·x``; dropping the transfer term (comparing exec
   alone) admits more alternatives on dependency-heavy Type-2 graphs.
2. **Queue discipline** — APT visits ready kernels first-come-first-serve;
   a longest-best-case-first variant prioritizes expensive kernels.
3. **Remaining-time check** — the future-work APT-RT variant
   (:class:`~repro.policies.apt_rt.APT_RT`) only diverts when the
   alternative actually finishes before the busy best processor would.

All studies run through :func:`~repro.experiments.scenarios.
run_scenarios` on a shared :class:`~repro.experiments.sweep.SweepEngine`,
so they inherit its result cache and worker pool.  The longest-first
variant is registered under ``"apt_longest_first"`` with this module as
its :class:`~repro.experiments.sweep.PolicySpec` provider, which is what
lets sweep worker processes reconstruct it.
"""

from __future__ import annotations

from repro.experiments.report import TableResult
from repro.experiments.runner import PAPER_ALPHAS, mean, paper_spec
from repro.experiments.scenarios import run_scenarios
from repro.experiments.sweep import PolicySpec, SweepEngine
from repro.experiments.workloads import DEFAULT_SEED
from repro.policies.apt import APT
from repro.policies.base import Assignment, SchedulingContext
from repro.policies.registry import available_policies, register_policy


class APTLongestFirst(APT):
    """APT visiting ready kernels by descending best-case execution time.

    The intuition: placing long kernels first leaves short ones to fill
    whatever processors remain, reducing the damage of a bad alternative
    assignment.
    """

    name = "apt_longest_first"

    def select(self, ctx: SchedulingContext) -> list[Assignment]:
        reordered = sorted(
            ctx.ready, key=lambda kid: (-ctx.best_processor_type(kid)[1], kid)
        )
        return super().select(ctx.with_ready(reordered))


if "apt_longest_first" not in available_policies():  # idempotent on re-import
    register_policy("apt_longest_first", APTLongestFirst)

#: Provider module for specs whose policies live here, not in the registry
#: by default — worker processes import it before construction.
_PROVIDER = __name__


def _mean_makespans(
    engine: SweepEngine | None,
    policies: list[PolicySpec],
    seed: int,
    rate_gbps: float,
) -> dict[int, list[float]]:
    """Per DFG type, the suite-mean makespan of each policy (one batch)."""
    outcomes = run_scenarios(
        [paper_spec(dfg_type, policies, seed, rate_gbps) for dfg_type in (1, 2)],
        engine,
    )
    return {
        dfg_type: [mean([r.makespan for r in recs]) for recs in outcome.by_policy()]
        for dfg_type, outcome in zip((1, 2), outcomes)
    }


def ablate_transfer_term(
    engine: SweepEngine | None = None,
    seed: int = DEFAULT_SEED,
    alphas: tuple[float, ...] = PAPER_ALPHAS,
    rate_gbps: float = 4.0,
) -> TableResult:
    """With vs without the transfer term in APT's threshold test."""
    # note: no explicit include_transfer=True — defaulted params would
    # change the content hash and miss the cache entries the paper
    # tables already produced for the identical simulation.
    policies = [
        spec
        for alpha in alphas
        for spec in (
            PolicySpec.of("apt", alpha=alpha),
            PolicySpec.of("apt", alpha=alpha, include_transfer=False),
        )
    ]
    means = _mean_makespans(engine, policies, seed, rate_gbps)
    rows = []
    for dfg_type in (1, 2):
        for pos, alpha in enumerate(alphas):
            with_t, without_t = means[dfg_type][2 * pos : 2 * pos + 2]
            rows.append((f"Type-{dfg_type}", alpha, with_t, without_t,
                         (without_t - with_t) / with_t * 100.0))
    return TableResult(
        title="Ablation — transfer term in the APT threshold test",
        headers=("DFG", "alpha", "mean makespan (with)", "mean makespan (without)",
                 "delta %"),
        rows=tuple(rows),
        notes="Positive delta: dropping the transfer term hurts.",
    )


def ablate_queue_discipline(
    engine: SweepEngine | None = None,
    seed: int = DEFAULT_SEED,
    alpha: float = 4.0,
    rate_gbps: float = 4.0,
) -> TableResult:
    """FCFS (the paper) vs longest-best-case-first ready-queue order."""
    policies = [
        PolicySpec.of("apt", alpha=alpha),
        PolicySpec.of("apt_longest_first", alpha=alpha, provider=_PROVIDER),
    ]
    means = _mean_makespans(engine, policies, seed, rate_gbps)
    rows = []
    for dfg_type in (1, 2):
        fcfs, longest = means[dfg_type]
        rows.append((f"Type-{dfg_type}", alpha, fcfs, longest,
                     (longest - fcfs) / fcfs * 100.0))
    return TableResult(
        title="Ablation — APT ready-queue discipline (FCFS vs longest-first)",
        headers=("DFG", "alpha", "mean makespan (FCFS)",
                 "mean makespan (longest-first)", "delta %"),
        rows=tuple(rows),
        notes="Negative delta: longest-first wins.",
    )


def ablate_remaining_time(
    engine: SweepEngine | None = None,
    seed: int = DEFAULT_SEED,
    alphas: tuple[float, ...] = PAPER_ALPHAS,
    rate_gbps: float = 4.0,
) -> TableResult:
    """APT vs APT-RT (the paper's future-work extension) across α."""
    policies = [
        spec
        for alpha in alphas
        for spec in (PolicySpec.of("apt", alpha=alpha), PolicySpec.of("apt_rt", alpha=alpha))
    ]
    means = _mean_makespans(engine, policies, seed, rate_gbps)
    rows = []
    for dfg_type in (1, 2):
        for pos, alpha in enumerate(alphas):
            apt, apt_rt = means[dfg_type][2 * pos : 2 * pos + 2]
            rows.append((f"Type-{dfg_type}", alpha, apt, apt_rt,
                         (apt - apt_rt) / apt * 100.0))
    return TableResult(
        title="Ablation — remaining-time check (APT vs APT-RT)",
        headers=("DFG", "alpha", "mean makespan (APT)", "mean makespan (APT-RT)",
                 "APT-RT improvement %"),
        rows=tuple(rows),
        notes=(
            "APT-RT only diverts to an alternative that beats waiting for the "
            "busy best processor; expected to flatten the right side of the "
            "α-valley."
        ),
    )
