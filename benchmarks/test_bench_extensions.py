"""Extension benches: streaming load, extended policy pool, energy.

Studies the paper motivates (online streams §3.2, power efficiency §1)
but does not run — see docs/architecture.md "Reproduction notes".
"""

import pytest

from benchmarks.conftest import write_artifact
from repro.experiments.extensions import (
    energy_comparison,
    extended_policy_comparison,
    streaming_load_sweep,
)
from repro.experiments.report import render_table


def test_bench_streaming_load_sweep(benchmark, engine, results_dir):
    t = None

    def regenerate():
        nonlocal t
        t = streaming_load_sweep(engine=engine, n_applications=20)
        return t

    benchmark(regenerate)
    apt = next(r for r in t.rows if r[0] == "APT")
    met = next(r for r in t.rows if r[0] == "MET")
    # Under saturation (last column) APT must at least match MET online.
    assert apt[-1] <= met[-1] * 1.01
    write_artifact(results_dir, "extension_streaming.txt", render_table(t))


def test_bench_extended_policy_pool(benchmark, engine, results_dir):
    t = None

    def regenerate():
        nonlocal t
        t = extended_policy_comparison(engine=engine)
        return t

    benchmark(regenerate)
    values = {r[0]: (r[1], r[2]) for r in t.rows}
    for name in ("MINMIN", "MAXMIN", "SUFFERAGE"):
        assert values["APT"][0] < values[name][0]
        assert values["APT"][1] < values[name][1]
    write_artifact(results_dir, "extension_policies.txt", render_table(t))


def test_bench_heterogeneity_sweep(benchmark, results_dir):
    from repro.experiments.extensions import heterogeneity_sweep

    t = None

    def regenerate():
        nonlocal t
        t = heterogeneity_sweep()
        return t

    benchmark(regenerate)
    rows = {r[0]: r for r in t.rows}
    # APT's edge over MET is largest on (near-)homogeneous systems and
    # vanishes at exaggerated heterogeneity, where waiting is optimal.
    assert rows[0.0][2] > rows[1.0][2] >= 0.0
    assert rows[1.5][2] <= rows[1.0][2] + 1e-9
    write_artifact(results_dir, "extension_heterogeneity.txt", render_table(t))


def test_bench_estimation_error(benchmark, results_dir):
    from repro.experiments.extensions import estimation_error_robustness

    t = None

    def regenerate():
        nonlocal t
        t = estimation_error_robustness()
        return t

    benchmark(regenerate)
    for row in t.rows:
        assert row[3] > 0.0, "APT must stay ahead of MET under noise"
    write_artifact(results_dir, "extension_estimation_error.txt", render_table(t))


@pytest.mark.parametrize("dfg_type", [1, 2])
def test_bench_energy(benchmark, engine, results_dir, dfg_type):
    t = None

    def regenerate():
        nonlocal t
        t = energy_comparison(engine=engine, dfg_type=dfg_type)
        return t

    benchmark(regenerate)
    values = {r[0]: r for r in t.rows}
    assert values["APT"][3] < values["MET"][3]  # EDP
    benchmark.extra_info["apt_edp"] = values["APT"][3]
    write_artifact(results_dir, f"extension_energy_type{dfg_type}.txt", render_table(t))
