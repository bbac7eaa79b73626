"""Tests for the table/figure reproducers (structure + key invariants).

One module-scoped engine memoizes all simulations, so the whole module
costs roughly one pass over the two 10-graph suites.
"""

import pytest

from repro.experiments import figures, tables
from repro.experiments.sweep import SweepEngine


@pytest.fixture(scope="module")
def engine():
    return SweepEngine()


class TestMakespanTables:
    def test_table8_shape(self, engine):
        t = tables.table8(engine=engine)
        assert t.headers == ("Graph", "APT", "MET", "SPN", "SS", "AG", "HEFT", "PEFT")
        assert len(t.rows) == 10
        assert t.column("Graph") == list(range(1, 11))

    def test_table8_apt_equals_met_at_alpha_small(self, engine):
        t = tables.table8(engine=engine)
        assert all(
            abs(a - m) / m < 0.02
            for a, m in zip(t.column("APT"), t.column("MET"))
        )

    def test_table9_structure_and_positive_values(self, engine):
        t = tables.table9(engine=engine)
        assert len(t.rows) == 10
        for name in ("APT", "MET", "SPN", "SS", "AG", "HEFT", "PEFT"):
            assert all(v > 0 for v in t.column(name))

    def test_table10_apt_beats_met(self, engine):
        t = tables.table10(engine=engine)
        wins = sum(
            1 for a, m in zip(t.column("APT"), t.column("MET")) if a < m - 1e-9
        )
        assert wins >= 9

    def test_table10_notes_mention_alpha4(self, engine):
        assert "α=4" in tables.table10(engine=engine).notes


class TestLambdaTables:
    def test_table11_and_12_shapes(self, engine):
        for fn in (tables.table11, tables.table12):
            t = fn(engine=engine)
            assert len(t.rows) == 10
            assert len(t.headers) == 8

    def test_table12_apt_lambda_below_met(self, engine):
        t = tables.table12(engine=engine)
        apt = sum(t.column("APT"))
        met = sum(t.column("MET"))
        assert apt < met


class TestImprovementTable:
    def test_table13_covers_all_alphas(self, engine):
        t = tables.table13(engine=engine)
        assert t.column("alpha") == [1.5, 2.0, 4.0, 8.0, 16.0]

    def test_table13_alpha4_positive_both_types(self, engine):
        t = tables.table13(engine=engine)
        row4 = next(r for r in t.rows if r[0] == 4.0)
        assert row4[1] > 0  # Type-1 exec improvement
        assert row4[3] > 0  # Type-2 exec improvement

    def test_table13_alpha_small_near_zero(self, engine):
        t = tables.table13(engine=engine)
        row = next(r for r in t.rows if r[0] == 1.5)
        assert abs(row[1]) < 2.0  # paper: -0.1


class TestAllocationTables:
    def test_table15_structure(self, engine):
        t = tables.table15(engine=engine)
        assert len(t.rows) == 10
        assert t.column("Total kernels") == [46, 58, 50, 73, 69, 81, 125, 93, 132, 157]

    def test_table15_alpha_effect(self, engine):
        low = sum(tables.table15(alpha=1.5, engine=engine).column("Alt assignments"))
        high = sum(tables.table15(alpha=4.0, engine=engine).column("Alt assignments"))
        assert low < high

    def test_table16_breakdown_sums(self, engine):
        t = tables.table16(engine=engine)
        for row in t.rows:
            total, breakdown = row[2], row[3]
            if total == 0:
                assert breakdown == "0"
            else:
                counted = sum(
                    int(part.split("-")[0]) for part in breakdown.split(", ")
                )
                assert counted == total


class TestFigures:
    def test_figure5_exact_end_times(self):
        ex = figures.figure5_schedule_example()
        assert ex.met_end_time == pytest.approx(318.093)
        assert ex.apt_end_time == pytest.approx(212.093)

    def test_figure5_traces_render(self):
        ex = figures.figure5_schedule_example()
        assert "0-nw" in ex.met_trace
        assert "2-bfs" in ex.apt_trace

    def test_figure6_top4_policies(self, engine):
        f = figures.figure6(engine=engine)
        assert set(f.series) == {"APT", "MET", "HEFT", "PEFT"}
        assert all(len(v) == 1 for v in f.series.values())

    def test_figure6_apt_equals_met(self, engine):
        f = figures.figure6(engine=engine)
        assert f.series["APT"][0] == pytest.approx(f.series["MET"][0], rel=0.01)

    def test_figure7_valley(self, engine):
        f = figures.figure7(engine=engine)
        series = f.series["4 GBps"]
        alphas = list(f.x_values)
        at = dict(zip(alphas, series))
        assert at[4.0] < at[1.5]
        assert at[4.0] < at[16.0]

    def test_figure9_valley(self, engine):
        f = figures.figure9(engine=engine)
        at = dict(zip(f.x_values, f.series["4 GBps"]))
        assert at[4.0] < at[1.5] and at[4.0] < at[16.0]

    def test_figure7_has_both_rates(self, engine):
        f = figures.figure7(engine=engine)
        assert set(f.series) == {"4 GBps", "8 GBps"}

    def test_figure10_per_experiment_series(self, engine):
        f = figures.figure10_apt_vs_met(engine=engine)
        assert f.x_values == tuple(range(1, 11))
        wins = sum(1 for a, m in zip(f.series["APT"], f.series["MET"]) if a < m)
        assert wins >= 9

    def test_figure11_12_lambda_series_positive(self, engine):
        for fn in (figures.figure11, figures.figure12):
            f = fn(engine=engine, rates=(4.0,))
            assert all(v > 0 for v in f.series["4 GBps"])

    def test_figure12_lambda_valley(self, engine):
        f = figures.figure12(engine=engine)
        at = dict(zip(f.x_values, f.series["4 GBps"]))
        assert at[4.0] < at[1.5] and at[4.0] < at[16.0]
