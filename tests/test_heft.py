"""Unit tests for HEFT: ranks (hand-computed), insertion, plan feasibility.

Hand-computed example (synthetic lookup, 1 M-element kernels, 4 GB/s):

* transfer of one kernel's data between distinct processors = 1 ms, so the
  HEFT average communication cost c̄ (mean over all 9 ordered processor
  pairs, 6 of which move data) = 2/3 ms;
* ``fast_cpu`` = (10, 100, 50) and ``fast_gpu`` = (100, 10, 50) both have
  w̄ = 160/3.
"""

import pytest

from repro.policies.heft import (
    HEFT,
    _Slot,
    downward_rank,
    find_insertion_start,
    upward_rank,
)
from repro.policies.met import MET
from repro.core.cost import CostModel
from tests.conftest import make_synth_population
from tests.test_simulator import dfg_of

CBAR = 2.0 / 3.0
WBAR = 160.0 / 3.0


@pytest.fixture
def chain_dfg():
    return dfg_of("fast_cpu", "fast_gpu", deps=[(0, 1)])


@pytest.fixture
def cost(system, synth_lookup):
    return CostModel(system, synth_lookup)


class TestRanks:
    def test_upward_rank_exit_is_mean_exec(self, chain_dfg, cost):
        ranks = upward_rank(chain_dfg, cost)
        assert ranks[1] == pytest.approx(WBAR)

    def test_upward_rank_recurrence(self, chain_dfg, cost):
        ranks = upward_rank(chain_dfg, cost)
        assert ranks[0] == pytest.approx(WBAR + CBAR + WBAR)

    def test_downward_rank_entry_is_zero(self, chain_dfg, cost):
        ranks = downward_rank(chain_dfg, cost)
        assert ranks[0] == 0.0

    def test_downward_rank_recurrence(self, chain_dfg, cost):
        ranks = downward_rank(chain_dfg, cost)
        assert ranks[1] == pytest.approx(WBAR + CBAR)

    def test_upward_rank_decreases_along_paths(self, cost, rng):
        from repro.graphs.generators import make_type2_dfg

        dfg = make_type2_dfg(20, rng=rng, population=make_synth_population())
        ranks = upward_rank(dfg, cost)
        for u, v in dfg.edges():
            assert ranks[u] > ranks[v]


class TestInsertion:
    def test_empty_processor_starts_at_est(self):
        assert find_insertion_start([], est=5.0, duration=10.0) == 5.0

    def test_gap_before_first_slot(self):
        slots = [_Slot(20.0, 30.0)]
        assert find_insertion_start(slots, est=0.0, duration=10.0) == 0.0

    def test_gap_between_slots(self):
        slots = [_Slot(0.0, 10.0), _Slot(25.0, 40.0)]
        assert find_insertion_start(slots, est=0.0, duration=10.0) == 10.0

    def test_gap_too_small_falls_through(self):
        slots = [_Slot(0.0, 10.0), _Slot(15.0, 40.0)]
        assert find_insertion_start(slots, est=0.0, duration=10.0) == 40.0

    def test_est_inside_gap(self):
        slots = [_Slot(0.0, 10.0), _Slot(30.0, 40.0)]
        assert find_insertion_start(slots, est=12.0, duration=5.0) == 12.0

    def test_after_last_slot(self):
        slots = [_Slot(0.0, 50.0)]
        assert find_insertion_start(slots, est=0.0, duration=10.0) == 50.0

    def test_gaps_tolerate_only_1e_12(self):
        before = [_Slot(10.0, 20.0)]
        assert find_insertion_start(before, est=0.0, duration=10.0 + 1e-13) == 0.0
        assert find_insertion_start(before, est=0.0, duration=10.0 + 1e-9) == 20.0
        between = [_Slot(0.0, 10.0), _Slot(20.0, 30.0)]
        assert find_insertion_start(between, est=0.0, duration=10.0 + 1e-13) == 10.0
        assert find_insertion_start(between, est=0.0, duration=10.0 + 1e-9) == 30.0


class TestPlanning:
    def test_chain_placement(self, chain_dfg, system, synth_lookup):
        plan = HEFT().plan(chain_dfg, CostModel(system, synth_lookup))
        assert plan.processor_of[0] == "cpu0"
        assert plan.processor_of[1] == "gpu0"
        assert plan.planned_start[1] == pytest.approx(11.0)  # 10 exec + 1 comm
        assert plan.planned_finish[1] == pytest.approx(21.0)

    def test_plan_covers_all_kernels_uniquely(self, system, synth_lookup, rng):
        from repro.graphs.generators import make_type1_dfg

        dfg = make_type1_dfg(25, rng=rng, population=make_synth_population())
        plan = HEFT().plan(dfg, CostModel(system, synth_lookup))
        plan.validate(dfg, system)

    def test_simulated_schedule_is_feasible(self, synth_sim, rng):
        from repro.graphs.generators import make_type2_dfg

        dfg = make_type2_dfg(30, rng=rng, population=make_synth_population())
        result = synth_sim.run(dfg, HEFT())
        result.schedule.validate(dfg)

    def test_beats_or_matches_met_on_mixed_independent_load(self, synth_sim):
        # A bag of kernels each fastest on a distinct processor: both MET
        # and HEFT should achieve the perfectly-parallel placement.
        dfg = dfg_of("fast_cpu", "fast_gpu", "fast_fpga")
        heft = synth_sim.run(dfg, HEFT()).makespan
        met = synth_sim.run(dfg, MET()).makespan
        assert heft == pytest.approx(met) == pytest.approx(10.0)

    def test_spreads_contended_kernels(self, synth_sim_no_transfer):
        # Six fast_gpu kernels: queueing the 6th on the GPU would finish at
        # 60 ms, so HEFT's EFT logic spills it to the FPGA (50 ms).
        dfg = dfg_of(*["fast_gpu"] * 6)
        result = synth_sim_no_transfer.run(dfg, HEFT())
        assert len({e.processor for e in result.schedule}) > 1

    def test_static_policy_flag(self):
        assert not HEFT().is_dynamic
