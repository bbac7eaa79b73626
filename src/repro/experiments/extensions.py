"""Extension experiments beyond the paper's evaluation.

Three studies the paper motivates but does not run:

1. **Streaming (online) workloads** — §3.2 frames the input as a stream
   of applications with "no specific number of instances or order"; here
   applications actually arrive over time (Poisson) and we sweep the
   offered load.  Static policies are excluded: they would plan on
   arrivals they cannot know.
2. **Extended policy pool** — the other classic heuristics from the
   papers the paper cites: Min-Min, Max-Min, Sufferage (Braun et al.)
   and CPOP (Topcuoglu et al.), compared on the paper's own suites.
3. **Energy** — §1 motivates heterogeneous systems with power
   efficiency; this study integrates the Table 6 devices' power envelopes
   over each policy's schedules.

Every study (and the heterogeneity and estimation-error studies below)
describes its grid as scenario specs on the flat platform and runs them
through :func:`~repro.experiments.scenarios.run_scenarios` as one engine
batch — one batch per β for the heterogeneity sweep, since each β prices
the suite with its own table — so they parallelize across workers and
memoize in the result cache like the paper tables do.
"""

from __future__ import annotations

from repro.core.lookup import scale_heterogeneity
from repro.data.paper_tables import paper_lookup_table
from repro.experiments.report import TableResult
from repro.experiments.runner import flat_spec, mean, paper_spec
from repro.experiments.scenarios import WorkloadSpec, run_scenarios
from repro.experiments.sweep import PolicySpec, SimSettings, SweepEngine
from repro.experiments.workloads import DEFAULT_SEED

#: Dynamic policies eligible for online (streaming) scheduling.
STREAMING_POLICIES = ("apt", "met", "spn", "ss", "ag", "minmin", "maxmin", "sufferage")
#: The full comparison pool for the extended-policy study.
EXTENDED_POLICIES = ("apt", "met", "minmin", "maxmin", "sufferage", "cpop", "heft", "peft")


def streaming_load_sweep(
    engine: SweepEngine | None = None,
    seed: int = DEFAULT_SEED,
    rate_gbps: float = 4.0,
    n_applications: int = 25,
    mean_interarrivals_ms: tuple[float, ...] = (4000.0, 1000.0, 250.0),
    apt_alpha: float = 4.0,
) -> TableResult:
    """Mean makespan of dynamic policies under rising offered load.

    Each column is one Poisson stream intensity (smaller inter-arrival =
    heavier load) of small fork-join applications (the
    ``fork_join_stream`` workload); rows are policies.  At light load
    every sane policy tracks the arrival process; under saturation the
    placement quality separates them — the regime the paper's threshold
    targets.
    """
    policies = [PolicySpec.at_alpha(name, apt_alpha) for name in STREAMING_POLICIES]
    outcomes = run_scenarios(
        [
            flat_spec(
                f"fork_join_stream_ia{mean_ia:g}",
                WorkloadSpec.of(
                    "fork_join_stream",
                    n_applications=n_applications,
                    mean_interarrival_ms=mean_ia,
                    seed=seed,
                ),
                policies,
                rate_gbps,
            )
            for mean_ia in mean_interarrivals_ms
        ],
        engine,
    )
    rows = [
        (name.upper(), *(outcome.by_policy()[pos][0].makespan for outcome in outcomes))
        for pos, name in enumerate(STREAMING_POLICIES)
    ]
    return TableResult(
        title="Extension — streaming (online) load sweep, dynamic policies",
        headers=("Policy",)
        + tuple(f"IA={ia:g} ms" for ia in mean_interarrivals_ms),
        rows=tuple(rows),
        notes=(
            f"{n_applications} Poisson-arriving fork-join apps; makespan in ms. "
            f"Static policies excluded (they would need future knowledge)."
        ),
    )


def extended_policy_comparison(
    engine: SweepEngine | None = None,
    seed: int = DEFAULT_SEED,
    rate_gbps: float = 4.0,
    apt_alpha: float = 4.0,
) -> TableResult:
    """Mean makespan of the extended policy pool on both paper suites."""
    policies = [PolicySpec.at_alpha(name, apt_alpha) for name in EXTENDED_POLICIES]
    grids = [
        outcome.by_policy()
        for outcome in run_scenarios(
            [paper_spec(dfg_type, policies, seed, rate_gbps) for dfg_type in (1, 2)],
            engine,
        )
    ]
    rows = [
        (name.upper(), *(mean([r.makespan for r in grid[pos]]) for grid in grids))
        for pos, name in enumerate(EXTENDED_POLICIES)
    ]
    return TableResult(
        title="Extension — extended policy pool (mean makespan, ms)",
        headers=("Policy", "DFG Type-1", "DFG Type-2"),
        rows=tuple(rows),
        notes=f"{rate_gbps} GB/s links, α={apt_alpha} for APT, seed {seed}.",
    )


def heterogeneity_sweep(
    seed: int = DEFAULT_SEED,
    rate_gbps: float = 4.0,
    betas: tuple[float, ...] = (0.0, 0.25, 0.5, 1.0, 1.5),
    alphas: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0),
    n_graphs: int = 5,
) -> TableResult:
    """How APT's gain and best α move with the degree of heterogeneity.

    The paper's tuning claim in one table: cross-platform spreads are
    rescaled by :func:`~repro.core.lookup.scale_heterogeneity` (β = 0:
    homogeneous, β = 1: the measured Table 14, β > 1: exaggerated) and for
    each β we report APT's best α and its improvement over MET.

    Measured shape (and the mechanism behind "α and the degree of
    heterogeneity go hand-in-hand", §4.2.1): the *more* homogeneous the
    system, the cheaper alternatives are and the more MET's
    wait-for-the-favourite discipline loses — APT's gain is largest at
    β → 0 and its useful α range is wide.  As spreads grow, diverting
    gets expensive: the best α shrinks toward 1 and at extreme
    heterogeneity (β = 1.5) waiting is simply optimal, so APT's best move
    is to mimic MET.
    """
    policies = [PolicySpec.of("met"), *(PolicySpec.of("apt", alpha=a) for a in alphas)]
    spec = paper_spec(2, policies, seed, rate_gbps, n_graphs=n_graphs)
    rows = []
    for beta in betas:
        # one batch per β: each cell prices the suite with its own table
        [outcome] = run_scenarios(
            [spec], lookup=scale_heterogeneity(paper_lookup_table(), beta)
        )
        met_records, *apt_records = outcome.by_policy()
        met = mean([r.makespan for r in met_records])
        by_alpha = {
            alpha: mean([r.makespan for r in records])
            for alpha, records in zip(alphas, apt_records)
        }
        best_alpha = min(by_alpha, key=lambda a: by_alpha[a])
        rows.append(
            (
                beta,
                best_alpha,
                (met - by_alpha[best_alpha]) / met * 100.0,
                (met - by_alpha[4.0]) / met * 100.0,
            )
        )
    return TableResult(
        title="Extension — APT gain vs degree of heterogeneity",
        headers=("beta", "best alpha", "improvement@best %", "improvement@alpha4 %"),
        rows=tuple(rows),
        notes=(
            "beta rescales every lookup row's cross-platform spread "
            "(0 = homogeneous, 1 = Table 14). Improvements vs MET, "
            f"{n_graphs} Type-2 graphs."
        ),
    )


def estimation_error_robustness(
    seed: int = DEFAULT_SEED,
    rate_gbps: float = 4.0,
    sigmas: tuple[float, ...] = (0.0, 0.1, 0.3, 0.6),
    apt_alpha: float = 4.0,
    n_graphs: int = 5,
    n_noise_seeds: int = 3,
    engine: SweepEngine | None = None,
) -> TableResult:
    """APT-vs-MET improvement when actual runtimes deviate from the table.

    Policies decide on the clean Table 14 estimates while the simulator
    perturbs actual execution times with multiplicative log-normal noise
    of parameter σ.  Both policies face identical perturbed kernels, so
    the comparison isolates decision quality under estimation error.
    """
    policies = [PolicySpec.of("apt", alpha=apt_alpha), PolicySpec.of("met")]
    cells = [
        (sigma, noise_seed)
        for sigma in sigmas
        for noise_seed in range(n_noise_seeds)
    ]
    outcomes = run_scenarios(
        [
            paper_spec(
                2,
                policies,
                seed,
                rate_gbps,
                n_graphs=n_graphs,
                settings=SimSettings(exec_noise_sigma=sigma, noise_seed=noise_seed),
            )
            for sigma, noise_seed in cells
        ],
        engine,
    )
    rows = []
    for sigma in sigmas:
        apt_total, met_total = 0.0, 0.0
        for (s, _), outcome in zip(cells, outcomes):
            apt, met = outcome.by_policy()
            if s != sigma:
                continue
            apt_total += sum(r.makespan for r in apt)
            met_total += sum(r.makespan for r in met)
        rows.append(
            (
                sigma,
                met_total / (n_graphs * n_noise_seeds),
                apt_total / (n_graphs * n_noise_seeds),
                (met_total - apt_total) / met_total * 100.0,
            )
        )
    return TableResult(
        title="Extension — robustness to execution-time estimation error",
        headers=("sigma", "MET mean (ms)", "APT mean (ms)", "APT improvement %"),
        rows=tuple(rows),
        notes=(
            f"log-normal noise on actual runtimes; α={apt_alpha}; "
            f"{n_graphs} Type-2 graphs × {n_noise_seeds} noise seeds."
        ),
    )


def energy_comparison(
    engine: SweepEngine | None = None,
    seed: int = DEFAULT_SEED,
    rate_gbps: float = 4.0,
    dfg_type: int = 2,
    apt_alpha: float = 4.0,
    policies: tuple[str, ...] = ("apt", "met", "spn", "heft", "peft"),
) -> TableResult:
    """Total energy and energy-delay product per policy over a suite."""
    specs = [PolicySpec.at_alpha(name, apt_alpha) for name in policies]
    [outcome] = run_scenarios([paper_spec(dfg_type, specs, seed, rate_gbps)], engine)
    rows = []
    for name, chunk in zip(policies, outcome.by_policy()):
        n = len(chunk)
        rows.append(
            (
                name.upper(),
                sum(r.makespan for r in chunk) / n,
                sum(r.energy_joules for r in chunk) / n,
                sum(r.energy_delay_product for r in chunk) / n,
            )
        )
    return TableResult(
        title=f"Extension — energy comparison, DFG Type-{dfg_type}",
        headers=("Policy", "mean makespan (ms)", "mean energy (J)", "mean EDP (J·s)"),
        rows=tuple(rows),
        notes=(
            "Table 6 device power envelopes (i7-2600 / Tesla K20 / Virtex-7); "
            "whole system powered for the run duration."
        ),
    )
