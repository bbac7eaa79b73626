"""Table 13 — improvement metrics for APT vs the 2nd-best dynamic policy.

The paper's headline table: % improvement in mean makespan and mean λ
for α ∈ {1.5, 2, 4, 8, 16} on both DFG types.  Shape assertions: α = 4 is
the best column and is solidly positive; the α ≤ 2 rows are ≈ 0 (slightly
negative in the paper too).
"""

from benchmarks.conftest import write_artifact
from repro.experiments import tables
from repro.experiments.report import render_table


def test_bench_table13_improvements(benchmark, engine, results_dir):
    t13 = None

    def regenerate():
        nonlocal t13
        t13 = tables.table13(engine=engine)
        return t13

    benchmark(regenerate)

    rows = {row[0]: row for row in t13.rows}
    # α=4: positive exec improvement on both types (paper: 18.2 / 15.8).
    assert rows[4.0][1] > 5.0
    assert rows[4.0][3] > 5.0
    # α=4 is the best exec column for both types.
    for col in (1, 3):
        assert rows[4.0][col] == max(r[col] for r in t13.rows)
    # α ≤ 2 is within noise of MET (paper: -0.1 to -0.3).
    for alpha in (1.5, 2.0):
        assert abs(rows[alpha][1]) < 2.0
        assert abs(rows[alpha][3]) < 2.0

    benchmark.extra_info["t1_exec_improvement_alpha4_pct"] = rows[4.0][1]
    benchmark.extra_info["t2_exec_improvement_alpha4_pct"] = rows[4.0][3]
    write_artifact(results_dir, "table13.txt", render_table(t13))
