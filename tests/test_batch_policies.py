"""Behavioural tests for Min-Min, Max-Min, Sufferage and CPOP."""

from repro.core.cost import CostModel
from repro.policies.batch_mode import MaxMin, MinMin, Sufferage
from repro.policies.cpop import CPOP, critical_path_kernels
from repro.policies.met import MET
from tests.test_simulator import dfg_of


class TestMinMin:
    def test_shortest_completion_first(self, synth_sim_no_transfer):
        # fast_gpu completes in 10 on the GPU; uniform needs 20 anywhere.
        dfg = dfg_of("uniform", "fast_gpu")
        result = synth_sim_no_transfer.run(dfg, MinMin())
        assert result.schedule[1].processor == "gpu0"
        assert result.schedule[1].exec_start == 0.0

    def test_never_idles_processors(self, synth_sim_no_transfer):
        dfg = dfg_of("fast_gpu", "fast_gpu", "fast_gpu")
        result = synth_sim_no_transfer.run(dfg, MinMin())
        assert {e.processor for e in result.schedule} == {"cpu0", "gpu0", "fpga0"}

    def test_transfer_included_in_completion_cost(self, synth_sim):
        # Producer on cpu0; the consumer's completion estimate must charge
        # the 1 ms inbound transfer on non-CPU devices, keeping the tie on
        # the CPU.
        dfg = dfg_of("uniform", "uniform", deps=[(0, 1)])
        result = synth_sim.run(dfg, MinMin())
        assert result.schedule[1].processor == result.schedule[0].processor


class TestMaxMin:
    def test_longest_kernel_claims_best_processor_first(
        self, synth_sim_no_transfer
    ):
        # uniform's best completion (20) exceeds fast_gpu's (10): Max-Min
        # places uniform first (on the CPU by tie-break), leaving the GPU
        # free for fast_gpu — both start at 0.
        dfg = dfg_of("fast_gpu", "uniform")
        result = synth_sim_no_transfer.run(dfg, MaxMin())
        assert result.schedule[0].exec_start == 0.0
        assert result.schedule[1].exec_start == 0.0
        assert result.schedule[1].processor == "cpu0"

    def test_differs_from_minmin_on_contended_load(self, synth_sim_no_transfer):
        dfg = dfg_of("fast_gpu", "uniform", "fast_gpu", "uniform")
        a = synth_sim_no_transfer.run(dfg, MinMin())
        b = synth_sim_no_transfer.run(dfg, MaxMin())
        pa = sorted((e.kernel_id, e.processor) for e in a.schedule)
        pb = sorted((e.kernel_id, e.processor) for e in b.schedule)
        assert pa != pb


class TestSufferage:
    def test_high_spread_kernel_wins_contention(self, synth_sim_no_transfer):
        # On {cpu, gpu}: fast_gpu suffers 90 if denied the GPU; uniform
        # suffers 0.  Sufferage must give the GPU to fast_gpu.
        from repro.core.simulator import Simulator
        from repro.core.system import CPU_GPU_FPGA

        system = CPU_GPU_FPGA(n_fpga=0)
        sim = Simulator(system, synth_sim_no_transfer.lookup, transfers_enabled=False)
        dfg = dfg_of("uniform", "fast_gpu")
        result = sim.run(dfg, Sufferage())
        assert result.schedule[1].processor == "gpu0"
        assert result.schedule[0].processor == "cpu0"

    def test_single_idle_processor_zero_sufferage(self, synth_sim_no_transfer):
        dfg = dfg_of("fast_gpu", "fast_gpu", "fast_gpu", "fast_gpu")
        result = synth_sim_no_transfer.run(dfg, Sufferage())
        result.schedule.validate(dfg)


class TestCPOP:
    def test_critical_path_on_chain_is_whole_chain(self, system, synth_lookup):
        dfg = dfg_of("fast_cpu", "fast_cpu", "fast_cpu", deps=[(0, 1), (1, 2)])
        assert critical_path_kernels(dfg, CostModel(system, synth_lookup)) == [0, 1, 2]

    def test_critical_path_kernels_share_one_processor(
        self, synth_sim, system, synth_lookup
    ):
        dfg = dfg_of(
            "fast_cpu", "fast_cpu", "fast_gpu", "fast_cpu",
            deps=[(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        cp = critical_path_kernels(dfg, CostModel(system, synth_lookup))
        result = synth_sim.run(dfg, CPOP())
        procs = {result.schedule[k].processor for k in cp}
        assert len(procs) == 1

    def test_cp_processor_minimizes_path_time(self, synth_sim):
        # An all-fast_cpu chain: the CPU minimizes the CP total.
        dfg = dfg_of("fast_cpu", "fast_cpu", deps=[(0, 1)])
        result = synth_sim.run(dfg, CPOP())
        assert all(e.processor == "cpu0" for e in result.schedule)

    def test_plan_valid_on_suite_graph(self, synth_sim, synth_population, rng):
        from repro.graphs.generators import make_type2_dfg

        dfg = make_type2_dfg(25, rng=rng, population=synth_population)
        result = synth_sim.run(dfg, CPOP())
        result.schedule.validate(dfg)

    def test_static_flag_and_registry(self):
        from repro.policies.registry import get_policy

        assert not CPOP().is_dynamic
        assert get_policy("cpop").name == "cpop"
        assert get_policy("minmin").name == "minmin"
        assert get_policy("maxmin").name == "maxmin"
        assert get_policy("sufferage").name == "sufferage"

    def test_competitive_with_met_on_separable_load(self, synth_sim):
        dfg = dfg_of("fast_cpu", "fast_gpu", "fast_fpga")
        cpop = synth_sim.run(dfg, CPOP()).makespan
        met = synth_sim.run(dfg, MET()).makespan
        assert cpop <= met * 1.5
