"""Tables 15/16 — APT kernel-allocation analyses across α.

The appendix tables: how many kernels each experiment diverted to an
alternative processor, broken down by kernel type.  Shape assertions:
α = 1.5 produces (almost) no alternative assignments; counts grow sharply
by α = 4, mirroring the paper's appendix B.
"""

import pytest

from benchmarks.conftest import write_artifact
from repro.experiments import tables
from repro.experiments.report import render_table

ALPHAS = (1.5, 2.0, 4.0, 8.0, 16.0)


@pytest.mark.parametrize(
    "table_fn,name", [(tables.table15, "table15"), (tables.table16, "table16")]
)
def test_bench_allocation_analysis(benchmark, engine, results_dir, table_fn, name):
    per_alpha = {}

    def regenerate():
        for alpha in ALPHAS:
            per_alpha[alpha] = table_fn(alpha=alpha, engine=engine)
        return per_alpha

    benchmark(regenerate)

    totals = {
        alpha: sum(t.column("Alt assignments")) for alpha, t in per_alpha.items()
    }
    assert totals[1.5] <= totals[4.0]
    assert totals[1.5] < 20, "α=1.5 all-but-mimics MET (paper Table 15)"
    assert totals[4.0] >= 10, "α=4 diverts substantially (paper appendix B)"
    benchmark.extra_info["alt_assignments_by_alpha"] = totals

    artifact = "\n\n".join(
        f"α = {alpha}\n{render_table(t)}" for alpha, t in per_alpha.items()
    )
    write_artifact(results_dir, f"{name}.txt", artifact)
