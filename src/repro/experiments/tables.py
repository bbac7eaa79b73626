"""Reproducers for the paper's evaluation tables (Tables 8–13, 15, 16).

Every function returns a :class:`~repro.experiments.report.TableResult`
with the same rows/columns as the paper.  Absolute milliseconds differ
from the published numbers because the ten random graphs are regenerated
(see docs/architecture.md); the benchmark harness asserts the *shape* instead.

All functions accept a shared :class:`~repro.experiments.sweep.
SweepEngine`, whose memo serves a simulation that several tables share
(MET appears in Tables 8–13) once.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.stats import improvement_percent
from repro.experiments.report import TableResult
from repro.experiments.runner import PAPER_ALPHAS, paper_spec
from repro.experiments.scenarios import run_scenarios
from repro.experiments.sweep import JobResult, PolicySpec, SweepEngine
from repro.experiments.workloads import DEFAULT_SEED

#: Column order of the paper's makespan/λ tables.
TABLE_POLICIES = ("apt", "met", "spn", "ss", "ag", "heft", "peft")
#: The paper's improvement baseline pool: dynamic policies only (§4.4).
DYNAMIC_POOL = ("met", "spn", "ss", "ag")


def _policy_table(
    title: str,
    dfg_type: int,
    apt_alpha: float,
    metric: str,
    engine: SweepEngine | None,
    seed: int,
    rate_gbps: float,
) -> TableResult:
    policies = [PolicySpec.at_alpha(name, apt_alpha) for name in TABLE_POLICIES]
    [outcome] = run_scenarios([paper_spec(dfg_type, policies, seed, rate_gbps)], engine)
    rows = [
        (i, *(getattr(rec, metric) for rec in graph))
        for i, graph in enumerate(zip(*outcome.by_policy()), start=1)
    ]
    return TableResult(
        title=title,
        headers=("Graph",) + tuple(p.upper() for p in TABLE_POLICIES),
        rows=tuple(rows),
        notes=(
            f"DFG Type-{dfg_type}, {rate_gbps} GB/s links, α={apt_alpha} for APT. "
            f"Values in milliseconds."
        ),
    )


def table8(
    engine: SweepEngine | None = None,
    seed: int = DEFAULT_SEED,
    rate_gbps: float = 4.0,
) -> TableResult:
    """Table 8: total computation time, DFG Type-1, α = 1.5."""
    return _policy_table(
        "Table 8 — Total computation time (ms), DFG Type-1, all policies (α=1.5)",
        dfg_type=1,
        apt_alpha=1.5,
        metric="makespan",
        engine=engine,
        seed=seed,
        rate_gbps=rate_gbps,
    )


def table9(
    engine: SweepEngine | None = None,
    seed: int = DEFAULT_SEED,
    rate_gbps: float = 4.0,
) -> TableResult:
    """Table 9: total computation time, DFG Type-2, α = 1.5."""
    return _policy_table(
        "Table 9 — Total computation time (ms), DFG Type-2, all policies (α=1.5)",
        dfg_type=2,
        apt_alpha=1.5,
        metric="makespan",
        engine=engine,
        seed=seed,
        rate_gbps=rate_gbps,
    )


def table10(
    engine: SweepEngine | None = None,
    seed: int = DEFAULT_SEED,
    rate_gbps: float = 4.0,
) -> TableResult:
    """Table 10: total computation time, DFG Type-2, α = 4."""
    return _policy_table(
        "Table 10 — Total computation time (ms), DFG Type-2, all policies (α=4)",
        dfg_type=2,
        apt_alpha=4.0,
        metric="makespan",
        engine=engine,
        seed=seed,
        rate_gbps=rate_gbps,
    )


def table11(
    engine: SweepEngine | None = None,
    seed: int = DEFAULT_SEED,
    rate_gbps: float = 4.0,
) -> TableResult:
    """Table 11: total λ delay, DFG Type-1, α = 4."""
    return _policy_table(
        "Table 11 — Total λ delay (ms), DFG Type-1, all policies (α=4)",
        dfg_type=1,
        apt_alpha=4.0,
        metric="total_lambda",
        engine=engine,
        seed=seed,
        rate_gbps=rate_gbps,
    )


def table12(
    engine: SweepEngine | None = None,
    seed: int = DEFAULT_SEED,
    rate_gbps: float = 4.0,
) -> TableResult:
    """Table 12: total λ delay, DFG Type-2, α = 4."""
    return _policy_table(
        "Table 12 — Total λ delay (ms), DFG Type-2, all policies (α=4)",
        dfg_type=2,
        apt_alpha=4.0,
        metric="total_lambda",
        engine=engine,
        seed=seed,
        rate_gbps=rate_gbps,
    )


def table13(
    engine: SweepEngine | None = None,
    seed: int = DEFAULT_SEED,
    rate_gbps: float = 4.0,
    alphas: Sequence[float] = PAPER_ALPHAS,
) -> TableResult:
    """Table 13: % improvement of APT vs the 2nd-best *dynamic* policy.

    Columns: Improvement_exec and Improvement_λ for DFG Type-1 and Type-2
    (eqs. (13)–(14)); negative means the baseline won at that α.

    The second-best dynamic policy is determined by mean makespan over
    the suite (it is MET on both suites, as in the paper), and that same
    policy anchors both the exec and λ columns — matching the paper's
    presentation where MET is the runner-up throughout Tables 8–12.
    """
    pool = [PolicySpec.of(name) for name in DYNAMIC_POOL]
    apts = [PolicySpec.of("apt", alpha=alpha) for alpha in alphas]
    outcomes = run_scenarios(
        [paper_spec(dfg_type, pool + apts, seed, rate_gbps) for dfg_type in (1, 2)],
        engine,
    )
    baselines: dict[int, list[JobResult]] = {}
    by_alpha: dict[int, list[list[JobResult]]] = {}
    second_best: dict[int, str] = {}
    for dfg_type, outcome in zip((1, 2), outcomes):
        grid = outcome.by_policy()
        pool_records = dict(zip(DYNAMIC_POOL, grid[: len(pool)]))
        second_best[dfg_type] = min(
            pool_records,
            key=lambda n: sum(r.makespan for r in pool_records[n]),
        )
        baselines[dfg_type] = pool_records[second_best[dfg_type]]
        by_alpha[dfg_type] = grid[len(pool) :]
    rows = []
    for pos, alpha in enumerate(alphas):
        row: list[object] = [alpha]
        for dfg_type in (1, 2):
            base = baselines[dfg_type]
            apt = by_alpha[dfg_type][pos]
            base_exec = sum(r.makespan for r in base) / len(base)
            base_lam = sum(r.total_lambda for r in base) / len(base)
            apt_exec = sum(r.makespan for r in apt) / len(apt)
            apt_lam = sum(r.total_lambda for r in apt) / len(apt)
            row += [
                improvement_percent(base_exec, apt_exec),
                improvement_percent(base_lam, apt_lam),
            ]
        rows.append(tuple(row))
    return TableResult(
        title="Table 13 — Improvement metrics for APT (%, vs 2nd-best dynamic policy)",
        headers=(
            "alpha",
            "T1 Improvement_exec",
            "T1 Improvement_lambda",
            "T2 Improvement_exec",
            "T2 Improvement_lambda",
        ),
        rows=tuple(rows),
        notes=(
            f"{rate_gbps} GB/s links; baseline pool: {', '.join(DYNAMIC_POOL)}; "
            f"runner-up by mean makespan: "
            f"T1={second_best[1].upper()}, T2={second_best[2].upper()}."
        ),
    )


def _allocation_table(
    title: str,
    dfg_type: int,
    alpha: float,
    engine: SweepEngine | None,
    seed: int,
    rate_gbps: float,
) -> TableResult:
    apt = [PolicySpec.of("apt", alpha=alpha)]
    [outcome] = run_scenarios([paper_spec(dfg_type, apt, seed, rate_gbps)], engine)
    rows = []
    for i, rec in enumerate(outcome.results):
        breakdown = ", ".join(
            f"{count}-{kernel}" for kernel, count in sorted(rec.alternative_by_kernel.items())
        )
        rows.append((i + 1, rec.n_kernels, rec.n_alternative, breakdown or "0"))
    return TableResult(
        title=title,
        headers=("Experiment", "Total kernels", "Alt assignments", "By kernel"),
        rows=tuple(rows),
        notes=f"α={alpha}, {rate_gbps} GB/s links.",
    )


def table15(
    alpha: float = 4.0,
    engine: SweepEngine | None = None,
    seed: int = DEFAULT_SEED,
    rate_gbps: float = 4.0,
) -> TableResult:
    """Table 15: APT alternative-assignment analysis, DFG Type-1 graphs."""
    return _allocation_table(
        f"Table 15 — APT kernel allocation analysis, DFG Type-1 (α={alpha})",
        dfg_type=1,
        alpha=alpha,
        engine=engine,
        seed=seed,
        rate_gbps=rate_gbps,
    )


def table16(
    alpha: float = 4.0,
    engine: SweepEngine | None = None,
    seed: int = DEFAULT_SEED,
    rate_gbps: float = 4.0,
) -> TableResult:
    """Table 16: APT alternative-assignment analysis, DFG Type-2 graphs."""
    return _allocation_table(
        f"Table 16 — APT kernel allocation analysis, DFG Type-2 (α={alpha})",
        dfg_type=2,
        alpha=alpha,
        engine=engine,
        seed=seed,
        rate_gbps=rate_gbps,
    )
