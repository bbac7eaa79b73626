"""Tests for the evaluation suites and the experiment runner."""

import pytest

from repro.data.paper_tables import PAPER_GRAPH_SIZES
from repro.experiments.runner import ExperimentRunner, paper_spec
from repro.experiments.sweep import PolicySpec
from repro.experiments.workloads import (
    paper_suite,
    paper_type1_suite,
    paper_type2_suite,
)


class TestSuites:
    def test_type1_suite_sizes_match_tables(self):
        suite = paper_type1_suite()
        assert [len(g) for g in suite] == list(PAPER_GRAPH_SIZES)

    def test_type2_suite_sizes_match_tables(self):
        suite = paper_type2_suite()
        assert [len(g) for g in suite] == list(PAPER_GRAPH_SIZES)

    def test_suites_are_deterministic(self):
        a, b = paper_type1_suite(), paper_type1_suite()
        for ga, gb in zip(a, b):
            assert [ga.spec(i) for i in ga] == [gb.spec(i) for i in gb]

    def test_different_seed_changes_contents(self):
        a = paper_type1_suite(seed=1)
        b = paper_type1_suite(seed=2)
        assert any(
            [ga.spec(i) for i in ga] != [gb.spec(i) for i in gb]
            for ga, gb in zip(a, b)
        )

    def test_both_types_share_kernel_streams(self):
        # Same seeds feed both suites (the paper fits one kernel series
        # into either graph model).
        t1 = paper_type1_suite()[0]
        t2 = paper_type2_suite()[0]
        assert [t1.spec(i) for i in t1] == [t2.spec(i) for i in t2]

    def test_selector(self):
        assert len(paper_suite(1)) == 10
        assert len(paper_suite(2)) == 10
        with pytest.raises(ValueError):
            paper_suite(3)

    def test_graphs_validate(self):
        for g in paper_type2_suite():
            g.validate()


class TestRunner:
    @pytest.fixture(scope="class")
    def runner(self):
        return ExperimentRunner()

    @staticmethod
    def records(runner, *policies, rates=(4.0,)):
        """One grid per rate over the first two Type-1 graphs."""
        return runner.run(
            [paper_spec(1, policies, rate_gbps=rate, n_graphs=2) for rate in rates]
        )

    def test_run_one_record_fields(self, runner):
        [[[rec, _]]] = self.records(runner, PolicySpec.of("met"))
        assert rec.policy == "met"
        assert rec.makespan > 0
        assert rec.n_kernels == len(paper_type1_suite()[0])
        assert rec.alpha is None

    def test_memoization_returns_identical_record(self, runner):
        a = self.records(runner, PolicySpec.of("met"))[0][0][0]
        b = self.records(runner, PolicySpec.of("met"))[0][0][0]
        assert a is b

    def test_alpha_distinguishes_cache_entries(self, runner):
        [[a, b]] = self.records(
            runner, PolicySpec.of("apt", alpha=1.5), PolicySpec.of("apt", alpha=16.0)
        )
        assert a[0] is not b[0]

    def test_run_suite_order(self, runner):
        [[recs]] = self.records(runner, PolicySpec.of("met"))
        assert [r.graph_index for r in recs] == [0, 1]

    def test_compare_policies_passes_alpha_to_apt_only(self, runner):
        [[apt, met]] = self.records(
            runner, PolicySpec.at_alpha("apt", 2.0), PolicySpec.at_alpha("met", 2.0)
        )
        assert all(r.alpha == 2.0 for r in apt)
        assert all(r.alpha is None for r in met)

    def test_alpha_sweep_covers_grid(self, runner):
        alphas, rates = (1.5, 4.0), (4.0, 8.0)
        apts = [PolicySpec.of("apt", alpha=alpha) for alpha in alphas]
        grids = self.records(runner, *apts, rates=rates)
        sweep = {
            (rec.alpha, rec.rate_gbps)
            for grid in grids
            for records in grid
            for rec in records
        }
        assert sweep == {(1.5, 4.0), (1.5, 8.0), (4.0, 4.0), (4.0, 8.0)}

    def test_apt_records_alternative_breakdown(self, runner):
        [[recs]] = self.records(runner, PolicySpec.of("apt", alpha=16.0))
        rec = recs[0]
        assert rec.n_alternative == sum(rec.alternative_by_kernel.values())

    def test_static_overhead_knob(self):
        plain = ExperimentRunner()
        charged = ExperimentRunner(static_planning_overhead_per_kernel_ms=10.0)
        a = self.records(plain, PolicySpec.of("heft"))[0][0][0]
        b = self.records(charged, PolicySpec.of("heft"))[0][0][0]
        assert b.makespan == pytest.approx(a.makespan + 10.0 * len(paper_type1_suite()[0]))
        # dynamic policies are never charged
        c = self.records(charged, PolicySpec.of("met"))[0][0][0]
        d = self.records(plain, PolicySpec.of("met"))[0][0][0]
        assert c.makespan == pytest.approx(d.makespan)
