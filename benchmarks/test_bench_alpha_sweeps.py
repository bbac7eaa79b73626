"""Figures 7 and 9 — APT makespan vs α and transfer rate (the "valley").

Asserts the paper's central tuning claim: mean makespan falls from
α = 1.5 to the break threshold α = 4, then rises again, for both DFG
types and both PCIe rates.
"""

import pytest

from benchmarks.conftest import write_artifact
from repro.core.simulator import Simulator
from repro.core.system import CPU_GPU_FPGA
from repro.data.paper_tables import paper_lookup_table
from repro.experiments import figures
from repro.experiments.report import render_figure
from repro.experiments.workloads import paper_suite
from repro.policies.apt import APT


@pytest.mark.parametrize(
    "dfg_type,figure_fn,name",
    [(1, figures.figure7, "figure7"), (2, figures.figure9, "figure9")],
)
def test_bench_alpha_valley(benchmark, engine, results_dir, dfg_type, figure_fn, name):
    suite = paper_suite(dfg_type)
    sim = Simulator(CPU_GPU_FPGA(transfer_rate_gbps=4.0), paper_lookup_table())
    benchmark(lambda: sim.run(suite[0], APT(alpha=4.0)))

    fig = figure_fn(engine=engine)
    for rate_series in fig.series.values():
        at = dict(zip(fig.x_values, rate_series))
        assert at[4.0] < at[1.5], "left slope of the valley"
        assert at[4.0] < at[16.0], "right slope of the valley"
        assert at[4.0] == min(at.values()), "paper: threshold_brk at α=4"
    write_artifact(results_dir, f"{name}.txt", render_figure(fig))
    benchmark.extra_info["mean_makespan_alpha4_4gbps"] = dict(
        zip(fig.x_values, fig.series["4 GBps"])
    )[4.0]
