"""Tables 8–10 and Figures 6/8/10 — makespan comparisons of all policies.

Regenerates the paper's total-computation-time tables on the seeded
10-graph suites and asserts the published relationships: APT(α=1.5) ≈ MET,
APT(α=4) wins ≥9/10 Type-2 graphs, and the naive dynamic policies trail
by large factors.
"""

import pytest

from benchmarks.conftest import write_artifact
from repro.core.simulator import Simulator
from repro.core.system import CPU_GPU_FPGA
from repro.data.paper_tables import paper_lookup_table
from repro.experiments import figures, tables
from repro.experiments.report import render_figure, render_table
from repro.experiments.workloads import paper_type1_suite, paper_type2_suite
from repro.policies.met import MET


def test_bench_table8_type1_alpha15(benchmark, engine, results_dir):
    suite = paper_type1_suite()
    sim = Simulator(CPU_GPU_FPGA(transfer_rate_gbps=4.0), paper_lookup_table())
    benchmark(lambda: sim.run(suite[0], MET()))

    t = tables.table8(engine=engine)
    apt, met = t.column("APT"), t.column("MET")
    assert all(abs(a - m) / m < 0.02 for a, m in zip(apt, met)), \
        "APT(1.5) must mimic MET (paper §4.2.1)"
    write_artifact(results_dir, "table8.txt", render_table(t))


def test_bench_table9_type2_alpha15(benchmark, engine, results_dir):
    suite = paper_type2_suite()
    sim = Simulator(CPU_GPU_FPGA(transfer_rate_gbps=4.0), paper_lookup_table())
    benchmark(lambda: sim.run(suite[0], MET()))

    t = tables.table9(engine=engine)
    apt, met = t.column("APT"), t.column("MET")
    assert all(abs(a - m) / m < 0.02 for a, m in zip(apt, met))
    # SPN/SS/AG trail by large factors on dependency-carrying graphs.
    for name in ("SPN", "SS", "AG"):
        assert sum(t.column(name)) > 1.5 * sum(met)
    write_artifact(results_dir, "table9.txt", render_table(t))


def test_bench_table10_type2_alpha4(benchmark, engine, results_dir):
    from repro.policies.apt import APT

    suite = paper_type2_suite()
    sim = Simulator(CPU_GPU_FPGA(transfer_rate_gbps=4.0), paper_lookup_table())
    benchmark(lambda: sim.run(suite[0], APT(alpha=4.0)))

    t = tables.table10(engine=engine)
    wins = sum(1 for a, m in zip(t.column("APT"), t.column("MET")) if a < m - 1e-9)
    assert wins >= 9, "paper Table 10: APT(α=4) wins 9/10 graphs"
    write_artifact(results_dir, "table10.txt", render_table(t))


def test_bench_figure6_top4_type1(benchmark, engine, results_dir):
    f6 = None

    def regenerate():
        nonlocal f6
        f6 = figures.figure6(engine=engine)
        return f6

    benchmark(regenerate)
    assert f6.series["APT"][0] == pytest.approx(f6.series["MET"][0], rel=0.01)
    write_artifact(results_dir, "figure6.txt", render_figure(f6))


def test_bench_figure8_top4_type2(benchmark, engine, results_dir):
    f8 = None

    def regenerate():
        nonlocal f8
        f8 = figures.figure8_top4(engine=engine)
        return f8

    benchmark(regenerate)
    assert f8.series["APT"][0] == pytest.approx(f8.series["MET"][0], rel=0.01)
    write_artifact(results_dir, "figure8.txt", render_figure(f8))


@pytest.mark.parametrize("dfg_type", [1, 2])
def test_bench_figure10_apt_vs_met_per_experiment(
    benchmark, engine, results_dir, dfg_type
):
    fig = None

    def regenerate():
        nonlocal fig
        fig = figures.figure10_apt_vs_met(dfg_type=dfg_type, engine=engine)
        return fig

    benchmark(regenerate)
    wins = sum(1 for a, m in zip(fig.series["APT"], fig.series["MET"]) if a < m)
    assert wins >= 9
    benchmark.extra_info["apt_wins"] = wins
    write_artifact(results_dir, f"figure10_type{dfg_type}.txt", render_figure(fig))
