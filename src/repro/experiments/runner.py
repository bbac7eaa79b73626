"""The paper's platform and grid axes as scenario specs.

Every table, figure, ablation and extension study describes its
simulations as a list of :class:`~repro.experiments.scenarios.
ScenarioSpec` items on the paper's flat ``CPU_GPU_FPGA(rate)`` platform
(:func:`flat_spec`, :func:`paper_spec`): one spec per transfer rate,
β or noise cell, with APT at each α just more policies of the same
spec.  :func:`~repro.experiments.scenarios.run_scenarios` runs them as
one :class:`~repro.experiments.sweep.SweepEngine` batch, so a
multi-worker engine parallelizes a whole artifact while staying
bit-identical to a serial run (the simulator's determinism guarantee;
asserted in ``tests/test_sweep.py``).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.system import CPU_GPU_FPGA
from repro.experiments.scenarios import ScenarioSpec, WorkloadSpec
from repro.experiments.sweep import PolicySpec, SimSettings, system_to_dict
from repro.experiments.workloads import DEFAULT_SEED

#: Transfer rates of the evaluation: PCIe 2.0 ×8 and ×16 (§3.2).
PAPER_RATES_GBPS = (4.0, 8.0)
#: α values swept in Figures 7/9/11/12 and Table 13.
PAPER_ALPHAS = (1.5, 2.0, 4.0, 8.0, 16.0)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0 for an empty sequence."""
    return sum(values) / len(values) if values else 0.0


def flat_spec(
    name: str,
    workload: WorkloadSpec,
    policies: Iterable[PolicySpec],
    rate_gbps: float = 4.0,
    settings: SimSettings = SimSettings(),
) -> ScenarioSpec:
    """``workload`` under ``policies`` on the paper's flat CPU+GPU+FPGA
    platform with ``rate_gbps`` links."""
    return ScenarioSpec(
        name=name,
        description=(
            f"{workload.kind} on the flat CPU+GPU+FPGA platform, "
            f"{rate_gbps:g} GB/s links"
        ),
        system=system_to_dict(CPU_GPU_FPGA(transfer_rate_gbps=rate_gbps)),
        workload=workload,
        policies=tuple(policies),
        settings=settings,
    )


def paper_spec(
    dfg_type: int,
    policies: Iterable[PolicySpec],
    seed: int = DEFAULT_SEED,
    rate_gbps: float = 4.0,
    n_graphs: int | None = None,
    settings: SimSettings = SimSettings(),
) -> ScenarioSpec:
    """The seeded Type-``dfg_type`` evaluation suite (optionally its first
    ``n_graphs`` graphs) on the flat platform."""
    params: dict[str, object] = {"dfg_type": dfg_type, "seed": seed}
    if n_graphs is not None:
        params["n_graphs"] = n_graphs
    return flat_spec(
        f"paper_type{dfg_type}_{rate_gbps:g}gbps",
        WorkloadSpec.of("paper_suite", **params),
        policies,
        rate_gbps,
        settings,
    )
