"""Behavioural tests for the dynamic baselines: MET, SPN, SS, AG, OLB, Random."""

import pytest

from repro.core.simulator import Simulator
from repro.core.system import CPU_GPU_FPGA
from repro.policies.ag import AG
from repro.policies.met import MET
from repro.policies.olb import OLB
from repro.policies.random_policy import RandomPolicy
from repro.policies.spn import SPN
from repro.policies.ss import SS
from tests.test_simulator import dfg_of


class TestMET:
    def test_always_best_processor(self, synth_sim):
        dfg = dfg_of("fast_cpu", "fast_gpu", "fast_fpga")
        result = synth_sim.run(dfg, MET())
        by_kernel = {e.kernel: e.processor for e in result.schedule}
        assert by_kernel == {
            "fast_cpu": "cpu0",
            "fast_gpu": "gpu0",
            "fast_fpga": "fpga0",
        }

    def test_waits_rather_than_divert(self, synth_sim):
        result = synth_sim.run(dfg_of("fast_fpga", "fast_fpga"), MET())
        assert all(e.processor == "fpga0" for e in result.schedule)
        assert result.makespan == pytest.approx(20.0)


class TestSPN:
    def test_picks_globally_shortest_pair_first(self, synth_sim_no_transfer):
        # fast_gpu (min 10 on gpu) beats uniform (20 anywhere): the GPU
        # pairing is claimed first.
        dfg = dfg_of("uniform", "fast_gpu")
        result = synth_sim_no_transfer.run(dfg, SPN())
        assert result.schedule[1].processor == "gpu0"
        assert result.schedule[1].exec_start == 0.0

    def test_never_waits_when_processor_free(self, synth_sim_no_transfer):
        # Three fast_gpu kernels: MET waits for the GPU each time, SPN
        # spills to CPU/FPGA immediately.
        dfg = dfg_of("fast_gpu", "fast_gpu", "fast_gpu")
        result = synth_sim_no_transfer.run(dfg, SPN())
        assert {e.processor for e in result.schedule} == {"cpu0", "gpu0", "fpga0"}
        # All three start at t=0: zero lambda delay.
        assert result.metrics.lambda_stats.total == 0.0

    def test_spilling_can_cost_makespan(self, synth_sim_no_transfer):
        dfg = dfg_of("fast_gpu", "fast_gpu", "fast_gpu")
        spn = synth_sim_no_transfer.run(dfg, SPN()).makespan
        met = synth_sim_no_transfer.run(dfg, MET()).makespan
        # SPN put a 100ms CPU run in place of waiting 10+10 on the GPU.
        assert spn == pytest.approx(100.0)
        assert met == pytest.approx(30.0)


class TestSS:
    def test_highest_stddev_kernel_claims_its_best_processor(
        self, synth_sim_no_transfer
    ):
        # fast_gpu times (100,10,50): stddev ≈ 36.8; uniform: stddev 0.
        # SS must place fast_gpu on the GPU and uniform elsewhere.
        dfg = dfg_of("uniform", "fast_gpu")
        result = synth_sim_no_transfer.run(dfg, SS())
        assert result.schedule[1].processor == "gpu0"

    def test_assigns_even_to_bad_processors(self, synth_sim_no_transfer):
        dfg = dfg_of("fast_gpu", "fast_gpu", "fast_gpu")
        result = synth_sim_no_transfer.run(dfg, SS())
        assert {e.processor for e in result.schedule} == {"cpu0", "gpu0", "fpga0"}

    def test_single_idle_processor_degenerates_to_fcfs(self, synth_lookup):
        system = CPU_GPU_FPGA(n_cpu=1, n_gpu=0, n_fpga=0)
        sim = Simulator(system, synth_lookup)
        dfg = dfg_of("fast_gpu", "fast_cpu")
        result = sim.run(dfg, SS())
        assert result.schedule[0].exec_start == 0.0  # kernel 0 first


class TestAG:
    def test_queues_onto_busy_processors(self, synth_sim_no_transfer):
        # AG assigns every ready kernel immediately; with empty history the
        # estimate is the kernel's own exec time, so queue lengths drive
        # the spread.
        dfg = dfg_of("uniform", "uniform", "uniform", "uniform")
        result = synth_sim_no_transfer.run(dfg, AG())
        assert len(result.schedule) == 4
        result.schedule.validate(dfg_of("uniform", "uniform", "uniform", "uniform"))

    def test_prefers_empty_queue(self, synth_sim_no_transfer):
        dfg = dfg_of("uniform", "uniform", "uniform")
        result = synth_sim_no_transfer.run(dfg, AG())
        # Three kernels, three empty queues: all start at t=0.
        assert all(e.exec_start == 0.0 for e in result.schedule)

    def test_transfer_affinity(self, system, synth_lookup):
        # A chain of uniform kernels: queueing to the same processor
        # avoids the 1 ms transfer, so AG keeps the chain on one device.
        sim = Simulator(system, synth_lookup)
        dfg = dfg_of("uniform", "uniform", deps=[(0, 1)])
        result = sim.run(dfg, AG())
        assert result.schedule[0].processor == result.schedule[1].processor

    def test_history_window_validation(self):
        with pytest.raises(ValueError):
            AG(history_window=0)

    def test_ignores_kernel_exec_time_once_history_exists(
        self, synth_sim_no_transfer
    ):
        # After history builds up, AG's metric is queue-based only — a
        # fast_gpu kernel can land on a non-GPU device.  (This is AG's
        # designed failure mode on heterogeneous compute; paper §2.5.3.)
        dfg = dfg_of(*["fast_gpu"] * 6)
        result = synth_sim_no_transfer.run(dfg, AG())
        assert any(e.processor != "gpu0" for e in result.schedule)


class TestOLB:
    def test_round_robin_over_idle_processors(self, synth_sim_no_transfer):
        dfg = dfg_of("fast_gpu", "fast_gpu", "fast_gpu")
        result = synth_sim_no_transfer.run(dfg, OLB())
        assert [e.processor for e in result.schedule] == ["cpu0", "gpu0", "fpga0"]

    def test_ignores_execution_times_entirely(self, synth_sim_no_transfer):
        # First ready kernel goes to the first idle processor even if it
        # is the worst choice (fast_gpu on cpu0: 100 ms vs 10 ms).
        result = synth_sim_no_transfer.run(dfg_of("fast_gpu"), OLB())
        assert result.schedule[0].processor == "cpu0"


class TestRandomPolicy:
    def test_deterministic_given_seed(self, synth_sim_no_transfer):
        dfg = dfg_of("fast_cpu", "fast_gpu", "uniform")
        a = synth_sim_no_transfer.run(dfg, RandomPolicy(seed=9))
        b = synth_sim_no_transfer.run(dfg, RandomPolicy(seed=9))
        assert [(e.kernel_id, e.processor) for e in a.schedule] == [
            (e.kernel_id, e.processor) for e in b.schedule
        ]

    def test_different_seeds_can_differ(self, synth_sim_no_transfer):
        dfg = dfg_of(*["uniform"] * 6)
        placements = {
            tuple(
                sorted((e.kernel_id, e.processor) for e in
                       synth_sim_no_transfer.run(dfg, RandomPolicy(seed=s)).schedule)
            )
            for s in range(8)
        }
        assert len(placements) > 1

    def test_schedule_is_feasible(self, synth_sim_no_transfer):
        dfg = dfg_of("uniform", "uniform", "uniform", deps=[(0, 2)])
        result = synth_sim_no_transfer.run(dfg, RandomPolicy(seed=1))
        result.schedule.validate(dfg)
