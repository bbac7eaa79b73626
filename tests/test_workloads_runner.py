"""Tests for the evaluation suites and running them as scenario grids."""

import pytest

from repro.data.paper_tables import PAPER_GRAPH_SIZES
from repro.experiments.runner import paper_spec
from repro.experiments.scenarios import run_scenarios
from repro.experiments.sweep import PolicySpec, SweepEngine
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
    def engine(self):
        return SweepEngine()

    @staticmethod
    def records(engine, *policies, rates=(4.0,)):
        """One outcome per rate over the first two Type-1 graphs."""
        return run_scenarios(
            [paper_spec(1, policies, rate_gbps=rate, n_graphs=2) for rate in rates],
            engine,
        )

    def test_run_one_record_fields(self, engine):
        [outcome] = self.records(engine, PolicySpec.of("met"))
        rec = outcome.results[0]
        assert rec.policy_name == "met"
        assert rec.makespan > 0
        assert rec.n_kernels == len(paper_type1_suite()[0])
        assert outcome.spec.policies[0].alpha is None

    def test_alpha_distinguishes_cache_entries(self, engine):
        [outcome] = self.records(
            engine, PolicySpec.of("apt", alpha=1.5), PolicySpec.of("apt", alpha=16.0)
        )
        a, b = outcome.by_policy()
        assert a[0].job_hash != b[0].job_hash

    def test_run_suite_order(self, engine):
        [outcome] = self.records(engine, PolicySpec.of("met"))
        assert [r.dfg_name for r in outcome.results] == [
            g.name for g in paper_type1_suite()[:2]
        ]

    def test_compare_policies_passes_alpha_to_apt_only(self, engine):
        [outcome] = self.records(
            engine, PolicySpec.at_alpha("apt", 2.0), PolicySpec.at_alpha("met", 2.0)
        )
        assert [p.alpha for p in outcome.spec.policies] == [2.0, None]
        apt, met = outcome.by_policy()
        [plain_met] = self.records(engine, PolicySpec.of("met"))
        assert [r.job_hash for r in met] == [r.job_hash for r in plain_met.results]
        assert all(r.policy_name == "apt" for r in apt)

    def test_alpha_sweep_covers_grid(self, engine):
        alphas, rates = (1.5, 4.0), (4.0, 8.0)
        apts = [PolicySpec.of("apt", alpha=alpha) for alpha in alphas]
        outcomes = self.records(engine, *apts, rates=rates)
        sweep = {
            (policy.alpha, outcome.spec.system["rate_gbps"])
            for outcome in outcomes
            for policy, results in zip(outcome.spec.policies, outcome.by_policy())
            if results
        }
        assert sweep == {(1.5, 4.0), (1.5, 8.0), (4.0, 4.0), (4.0, 8.0)}
        hashes = {r.job_hash for outcome in outcomes for r in outcome.results}
        assert len(hashes) == len(alphas) * len(rates) * 2

    def test_apt_records_alternative_breakdown(self, engine):
        [outcome] = self.records(engine, PolicySpec.of("apt", alpha=16.0))
        rec = outcome.results[0]
        assert rec.n_alternative == sum(rec.alternative_by_kernel.values())
