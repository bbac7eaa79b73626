"""Reproducers for the paper's evaluation figures (Figures 5–12).

Each returns a :class:`~repro.experiments.report.FigureResult` (numeric
series; rendering is the caller's business) except
:func:`figure5_schedule_example`, which reproduces the published schedule
traces verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.simulator import SimulationResult, Simulator
from repro.core.system import CPU_GPU_FPGA
from repro.core.trace import StateTrace
from repro.data.paper_tables import FIGURE5_KERNELS, figure5_lookup_table
from repro.experiments.report import FigureResult
from repro.experiments.runner import PAPER_ALPHAS, PAPER_RATES_GBPS, mean, paper_spec
from repro.experiments.scenarios import run_scenarios
from repro.experiments.sweep import PolicySpec, SweepEngine
from repro.experiments.workloads import DEFAULT_SEED
from repro.graphs.dfg import DFG
from repro.policies.apt import APT
from repro.policies.met import MET

#: The four best policies of Figures 6/8.
TOP4_POLICIES = ("apt", "met", "heft", "peft")


@dataclass(frozen=True)
class ScheduleExample:
    """Figure 5: MET vs APT(α=8) on the published 5-kernel workload."""

    met: SimulationResult
    apt: SimulationResult
    met_trace: str
    apt_trace: str

    @property
    def met_end_time(self) -> float:
        return self.met.makespan

    @property
    def apt_end_time(self) -> float:
        return self.apt.makespan


def figure5_schedule_example(alpha: float = 8.0) -> ScheduleExample:
    """Reproduce the Figure 5 example exactly.

    The paper publishes the full inputs (Table 7 kernels, no transfers,
    α = 8), so this is the one experiment where absolute numbers must
    match: MET ends at 318.093 ms, APT at 212.093 ms.
    """
    system = CPU_GPU_FPGA()
    sim = Simulator(system, figure5_lookup_table(), transfers_enabled=False)
    dfg = DFG.from_kernels(FIGURE5_KERNELS, name="figure5")
    met = sim.run(dfg, MET())
    apt = sim.run(dfg, APT(alpha=alpha))
    return ScheduleExample(
        met=met,
        apt=apt,
        met_trace=StateTrace.from_schedule(met.schedule, system).format(system),
        apt_trace=StateTrace.from_schedule(apt.schedule, system).format(system),
    )


def _top4_figure(
    title: str,
    dfg_type: int,
    engine: SweepEngine | None,
    seed: int,
    apt_alpha: float,
    rate_gbps: float,
) -> FigureResult:
    policies = [PolicySpec.at_alpha(name, apt_alpha) for name in TOP4_POLICIES]
    [outcome] = run_scenarios([paper_spec(dfg_type, policies, seed, rate_gbps)], engine)
    means = {
        name.upper(): (mean([r.makespan for r in recs]),)
        for name, recs in zip(TOP4_POLICIES, outcome.by_policy())
    }
    return FigureResult(
        title=title,
        x_label="policy-average",
        x_values=("mean over 10 graphs",),
        series=means,
        notes=f"DFG Type-{dfg_type}, α={apt_alpha}, {rate_gbps} GB/s. Milliseconds.",
    )


def figure6(
    engine: SweepEngine | None = None,
    seed: int = DEFAULT_SEED,
    rate_gbps: float = 4.0,
) -> FigureResult:
    """Figure 6: mean makespan of the top-4 policies, DFG Type-1, α=1.5."""
    return _top4_figure(
        "Figure 6 — Avg execution time, top-4 policies, DFG Type-1 (α=1.5)",
        dfg_type=1,
        engine=engine,
        seed=seed,
        apt_alpha=1.5,
        rate_gbps=rate_gbps,
    )


def figure8_top4(
    engine: SweepEngine | None = None,
    seed: int = DEFAULT_SEED,
    rate_gbps: float = 4.0,
) -> FigureResult:
    """Figure 8 (bar chart): mean makespan of top-4, DFG Type-2, α=1.5."""
    return _top4_figure(
        "Figure 8 — Avg execution time, top-4 policies, DFG Type-2 (α=1.5)",
        dfg_type=2,
        engine=engine,
        seed=seed,
        apt_alpha=1.5,
        rate_gbps=rate_gbps,
    )


def _alpha_rate_figure(
    title: str,
    dfg_type: int,
    metric: str,
    engine: SweepEngine | None,
    seed: int,
    alphas: tuple[float, ...],
    rates: tuple[float, ...],
) -> FigureResult:
    apts = [PolicySpec.of("apt", alpha=alpha) for alpha in alphas]
    outcomes = run_scenarios(
        [paper_spec(dfg_type, apts, seed, rate) for rate in rates], engine
    )
    series = {
        f"{rate:g} GBps": tuple(
            mean([getattr(r, metric) for r in recs]) for recs in outcome.by_policy()
        )
        for rate, outcome in zip(rates, outcomes)
    }
    return FigureResult(
        title=title,
        x_label="alpha",
        x_values=alphas,
        series=series,
        notes=f"DFG Type-{dfg_type}; mean over 10 graphs, milliseconds.",
    )


def figure7(
    engine: SweepEngine | None = None,
    seed: int = DEFAULT_SEED,
    alphas: tuple[float, ...] = PAPER_ALPHAS,
    rates: tuple[float, ...] = PAPER_RATES_GBPS,
) -> FigureResult:
    """Figure 7: APT mean makespan vs α and transfer rate, DFG Type-1."""
    return _alpha_rate_figure(
        "Figure 7 — APT avg execution time vs α and transfer rate, DFG Type-1",
        dfg_type=1,
        metric="makespan",
        engine=engine,
        seed=seed,
        alphas=alphas,
        rates=rates,
    )


def figure9(
    engine: SweepEngine | None = None,
    seed: int = DEFAULT_SEED,
    alphas: tuple[float, ...] = PAPER_ALPHAS,
    rates: tuple[float, ...] = PAPER_RATES_GBPS,
) -> FigureResult:
    """Figure 9: APT mean makespan vs α and transfer rate, DFG Type-2."""
    return _alpha_rate_figure(
        "Figure 9 — APT avg execution time vs α and transfer rate, DFG Type-2",
        dfg_type=2,
        metric="makespan",
        engine=engine,
        seed=seed,
        alphas=alphas,
        rates=rates,
    )


def figure10_apt_vs_met(
    dfg_type: int = 2,
    alpha: float = 4.0,
    engine: SweepEngine | None = None,
    seed: int = DEFAULT_SEED,
    rate_gbps: float = 4.0,
) -> FigureResult:
    """Figures 8/10 (per-experiment): APT(α=4) vs MET makespans per graph."""
    policies = [PolicySpec.of("apt", alpha=alpha), PolicySpec.of("met")]
    [outcome] = run_scenarios([paper_spec(dfg_type, policies, seed, rate_gbps)], engine)
    apt, met = outcome.by_policy()
    return FigureResult(
        title=(
            f"Figure 10 — Execution time per experiment, MET vs APT (α={alpha}), "
            f"DFG Type-{dfg_type}"
        ),
        x_label="experiment",
        x_values=tuple(range(1, len(apt) + 1)),
        series={
            "APT": tuple(r.makespan for r in apt),
            "MET": tuple(r.makespan for r in met),
        },
        notes=f"{rate_gbps} GB/s links, milliseconds.",
    )


def figure11(
    engine: SweepEngine | None = None,
    seed: int = DEFAULT_SEED,
    alphas: tuple[float, ...] = PAPER_ALPHAS,
    rates: tuple[float, ...] = PAPER_RATES_GBPS,
) -> FigureResult:
    """Figure 11: APT mean total λ delay vs α and rate, DFG Type-1."""
    return _alpha_rate_figure(
        "Figure 11 — APT avg λ delay vs α and transfer rate, DFG Type-1",
        dfg_type=1,
        metric="total_lambda",
        engine=engine,
        seed=seed,
        alphas=alphas,
        rates=rates,
    )


def figure12(
    engine: SweepEngine | None = None,
    seed: int = DEFAULT_SEED,
    alphas: tuple[float, ...] = PAPER_ALPHAS,
    rates: tuple[float, ...] = PAPER_RATES_GBPS,
) -> FigureResult:
    """Figure 12: APT mean total λ delay vs α and rate, DFG Type-2."""
    return _alpha_rate_figure(
        "Figure 12 — APT avg λ delay vs α and transfer rate, DFG Type-2",
        dfg_type=2,
        metric="total_lambda",
        engine=engine,
        seed=seed,
        alphas=alphas,
        rates=rates,
    )
