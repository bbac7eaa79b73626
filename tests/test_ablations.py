"""Tests for the ablation studies."""

import pytest

from repro.experiments import ablations
from repro.experiments.ablations import APTLongestFirst
from repro.experiments.sweep import SweepEngine
from tests.test_simulator import dfg_of


@pytest.fixture(scope="module")
def engine():
    return SweepEngine()


class TestAPTLongestFirst:
    def test_prioritizes_expensive_kernel(self, synth_sim_no_transfer):
        # uniform (20 best) arrives before fast_gpu (10 best); with only
        # the GPU contended the order matters for who gets diverted.
        dfg = dfg_of("fast_gpu", "uniform", "fast_gpu")
        result = synth_sim_no_transfer.run(dfg, APTLongestFirst(alpha=16.0))
        result.schedule.validate(dfg)

    def test_feasible_on_suite_graph(self, synth_sim, synth_population, rng):
        from repro.graphs.generators import make_type2_dfg

        dfg = make_type2_dfg(25, rng=rng, population=synth_population)
        result = synth_sim.run(dfg, APTLongestFirst(alpha=4.0))
        result.schedule.validate(dfg)


class TestAblationTables:
    def test_transfer_term_table_shape(self, engine):
        t = ablations.ablate_transfer_term(engine=engine, alphas=(4.0,))
        assert len(t.rows) == 2  # Type-1 and Type-2 at one alpha
        assert all(row[2] > 0 and row[3] > 0 for row in t.rows)

    def test_queue_discipline_table(self, engine):
        t = ablations.ablate_queue_discipline(engine=engine)
        assert len(t.rows) == 2
        assert {row[0] for row in t.rows} == {"Type-1", "Type-2"}

    def test_remaining_time_never_hurts_at_huge_alpha(self, engine):
        t = ablations.ablate_remaining_time(engine=engine, alphas=(16.0,))
        # APT-RT's guard prevents the pathological diversions plain APT
        # makes at large alpha, so its makespan is no worse on average.
        for row in t.rows:
            apt, apt_rt = row[2], row[3]
            assert apt_rt <= apt * 1.02
