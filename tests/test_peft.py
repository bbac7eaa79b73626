"""Unit tests for PEFT: OCT values (hand-computed), ranks, planning.

Hand-computed OCT for the chain fast_cpu → fast_gpu (see test_heft for
the c̄ = 2/3 ms derivation); w(fast_gpu) = (100, 10, 50):

* OCT(exit, ·) = 0
* OCT(0, cpu)  = min(100, 10 + 2/3, 50 + 2/3) = 10 + 2/3
* OCT(0, gpu)  = min(100 + 2/3, 10, 50 + 2/3) = 10
* OCT(0, fpga) = min(100 + 2/3, 10 + 2/3, 50) = 10 + 2/3
* rank_oct(0)  = (10 + 2/3 + 10 + 10 + 2/3)/3 = 10 + 4/9
"""

import pytest

from repro.policies.met import MET
from repro.policies.peft import PEFT, optimistic_cost_table, rank_oct
from repro.core.cost import CostModel
from tests.conftest import make_synth_population
from tests.test_simulator import dfg_of

CBAR = 2.0 / 3.0


@pytest.fixture
def chain_dfg():
    return dfg_of("fast_cpu", "fast_gpu", deps=[(0, 1)])


@pytest.fixture
def cost(system, synth_lookup):
    return CostModel(system, synth_lookup)


class TestOCT:
    def test_exit_row_is_zero(self, chain_dfg, cost):
        oct_ = optimistic_cost_table(chain_dfg, cost)
        assert all(v == 0.0 for v in oct_[1].values())

    def test_hand_computed_entry_row(self, chain_dfg, cost):
        oct_ = optimistic_cost_table(chain_dfg, cost)
        assert oct_[0]["cpu0"] == pytest.approx(10 + CBAR)
        assert oct_[0]["gpu0"] == pytest.approx(10.0)
        assert oct_[0]["fpga0"] == pytest.approx(10 + CBAR)

    def test_rank_oct_is_row_average(self, chain_dfg, cost):
        oct_ = optimistic_cost_table(chain_dfg, cost)
        ranks = rank_oct(oct_)
        assert ranks[0] == pytest.approx((10 + CBAR + 10 + 10 + CBAR) / 3)
        assert ranks[1] == 0.0

    def test_oct_nonnegative_everywhere(self, cost, rng):
        from repro.graphs.generators import make_type2_dfg

        dfg = make_type2_dfg(25, rng=rng, population=make_synth_population())
        oct_ = optimistic_cost_table(dfg, cost)
        assert all(v >= 0.0 for row in oct_.values() for v in row.values())


class TestPlanning:
    def test_chain_placement_minimizes_oeft(self, chain_dfg, system, synth_lookup):
        plan = PEFT().plan(chain_dfg, CostModel(system, synth_lookup))
        # kernel 0: OEFT cpu = 10 + 10.67 ≈ 20.67 beats gpu (110), fpga (60.67)
        assert plan.processor_of[0] == "cpu0"
        assert plan.processor_of[1] == "gpu0"

    def test_plan_is_complete_and_valid(self, system, synth_lookup, rng):
        from repro.graphs.generators import make_type1_dfg

        dfg = make_type1_dfg(25, rng=rng, population=make_synth_population())
        plan = PEFT().plan(dfg, CostModel(system, synth_lookup))
        plan.validate(dfg, system)

    def test_simulated_schedule_is_feasible(self, synth_sim, rng):
        from repro.graphs.generators import make_type2_dfg

        dfg = make_type2_dfg(30, rng=rng, population=make_synth_population())
        result = synth_sim.run(dfg, PEFT())
        result.schedule.validate(dfg)

    def test_matches_met_on_perfectly_separable_load(self, synth_sim):
        dfg = dfg_of("fast_cpu", "fast_gpu", "fast_fpga")
        peft = synth_sim.run(dfg, PEFT()).makespan
        met = synth_sim.run(dfg, MET()).makespan
        assert peft == pytest.approx(met) == pytest.approx(10.0)

    def test_static_policy_flag(self):
        assert not PEFT().is_dynamic
