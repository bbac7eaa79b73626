"""Unit and behavioural tests for the discrete-event simulator."""

import pytest

from repro.core.simulator import SchedulingError, Simulator
from repro.core.system import CPU_GPU_FPGA
from repro.graphs.dfg import DFG
from repro.policies.apt import APT
from repro.policies.base import Assignment, DynamicPolicy
from repro.policies.met import MET
from repro.policies.olb import OLB
from tests.conftest import spec


def dfg_of(*kernels: str, deps=()) -> DFG:
    return DFG.from_kernels([spec(k) for k in kernels], dependencies=deps)


class TestSingleKernel:
    def test_runs_on_best_processor(self, synth_sim):
        result = synth_sim.run(dfg_of("fast_gpu"), MET())
        e = result.schedule[0]
        assert e.processor == "gpu0"
        assert e.exec_start == 0.0
        assert e.finish_time == pytest.approx(10.0)
        assert result.makespan == pytest.approx(10.0)

    def test_entry_kernel_has_no_transfer(self, synth_sim):
        result = synth_sim.run(dfg_of("fast_cpu"), MET())
        assert result.schedule[0].transfer_time == 0.0

    def test_empty_dfg(self, synth_sim):
        result = synth_sim.run(DFG(), MET())
        assert result.makespan == 0.0
        assert len(result.schedule) == 0


class TestDependenciesAndTransfers:
    def test_chain_respects_dependency(self, synth_sim):
        result = synth_sim.run(dfg_of("fast_cpu", "fast_cpu", deps=[(0, 1)]), MET())
        e0, e1 = result.schedule[0], result.schedule[1]
        assert e1.transfer_start >= e0.finish_time
        assert e1.ready_time == pytest.approx(e0.finish_time)

    def test_same_processor_chain_has_no_transfer(self, synth_sim):
        result = synth_sim.run(dfg_of("fast_cpu", "fast_cpu", deps=[(0, 1)]), MET())
        assert result.schedule[1].transfer_time == 0.0

    def test_cross_processor_transfer_charged(self, synth_sim):
        # fast_cpu on cpu0, then fast_gpu on gpu0: 1e6 elements × 4 B at
        # 4 GB/s = exactly 1 ms of transfer.
        result = synth_sim.run(dfg_of("fast_cpu", "fast_gpu", deps=[(0, 1)]), MET())
        e1 = result.schedule[1]
        assert e1.processor == "gpu0"
        assert e1.transfer_time == pytest.approx(1.0)
        assert result.makespan == pytest.approx(10.0 + 1.0 + 10.0)

    def test_transfers_disabled(self, synth_sim_no_transfer):
        result = synth_sim_no_transfer.run(
            dfg_of("fast_cpu", "fast_gpu", deps=[(0, 1)]), MET()
        )
        assert result.schedule[1].transfer_time == 0.0
        assert result.makespan == pytest.approx(20.0)

    def test_single_mode_takes_max_over_cross_predecessors(self, system, synth_lookup):
        # Diamond: two predecessors on two different processors; the
        # kernel pays one inbound transfer (the max), not the sum.
        sim = Simulator(system, synth_lookup)
        dfg = dfg_of("fast_cpu", "fast_gpu", "fast_fpga", deps=[(0, 2), (1, 2)])
        result = sim.run(dfg, MET())
        assert result.schedule[2].transfer_time == pytest.approx(1.0)

    def test_faster_links_shrink_transfer(self, synth_lookup):
        sim = Simulator(CPU_GPU_FPGA(transfer_rate_gbps=8.0), synth_lookup)
        result = sim.run(dfg_of("fast_cpu", "fast_gpu", deps=[(0, 1)]), MET())
        assert result.schedule[1].transfer_time == pytest.approx(0.5)


class TestParallelExecution:
    def test_independent_kernels_run_concurrently(self, synth_sim):
        dfg = dfg_of("fast_cpu", "fast_gpu", "fast_fpga")
        result = synth_sim.run(dfg, MET())
        assert result.makespan == pytest.approx(10.0)
        assert {e.processor for e in result.schedule} == {"cpu0", "gpu0", "fpga0"}

    def test_met_waits_for_best_processor(self, synth_sim):
        # Three fast_gpu kernels: MET serializes them all on the GPU.
        result = synth_sim.run(dfg_of("fast_gpu", "fast_gpu", "fast_gpu"), MET())
        assert all(e.processor == "gpu0" for e in result.schedule)
        assert result.makespan == pytest.approx(30.0)

    def test_lambda_counts_waiting(self, synth_sim):
        result = synth_sim.run(dfg_of("fast_gpu", "fast_gpu"), MET())
        lam = result.metrics.lambda_stats
        assert lam.count == 1  # second kernel waited
        assert lam.total == pytest.approx(10.0)


class TestValidationAndErrors:
    def test_policy_assigning_unready_kernel_rejected(self, synth_sim):
        class Premature(DynamicPolicy):
            name = "premature"

            def select(self, ctx):
                return [Assignment(kernel_id=99, processor="cpu0")]

        with pytest.raises(SchedulingError, match="not ready"):
            synth_sim.run(dfg_of("fast_cpu"), Premature())

    def test_policy_assigning_to_unknown_processor_rejected(self, synth_sim):
        class Ghost(DynamicPolicy):
            name = "ghost"

            def select(self, ctx):
                return [Assignment(kernel_id=ctx.ready[0], processor="tpu0")]

        with pytest.raises(SchedulingError, match="unknown processor"):
            synth_sim.run(dfg_of("fast_cpu"), Ghost())

    def test_nonqueued_assignment_to_busy_processor_rejected(self, synth_sim):
        class DoubleBook(DynamicPolicy):
            name = "doublebook"

            def select(self, ctx):
                return [Assignment(kernel_id=k, processor="cpu0") for k in ctx.ready]

        with pytest.raises(SchedulingError, match="busy processor"):
            synth_sim.run(dfg_of("fast_cpu", "fast_cpu"), DoubleBook())

    def test_deadlocking_policy_detected(self, synth_sim):
        class Lazy(DynamicPolicy):
            name = "lazy"

            def select(self, ctx):
                return []

        with pytest.raises(SchedulingError, match="deadlock"):
            synth_sim.run(dfg_of("fast_cpu"), Lazy())

    def test_unsupported_policy_type(self, synth_sim):
        with pytest.raises(TypeError):
            synth_sim.run(dfg_of("fast_cpu"), object())


class TestDeterminismAndResults:
    def test_rerun_is_bitwise_identical(self, synth_sim):
        dfg = dfg_of("fast_cpu", "fast_gpu", "fast_fpga", "uniform", deps=[(0, 3)])
        a = synth_sim.run(dfg, APT(alpha=4.0))
        b = synth_sim.run(dfg, APT(alpha=4.0))
        assert [(e.kernel_id, e.processor, e.exec_start) for e in a.schedule] == [
            (e.kernel_id, e.processor, e.exec_start) for e in b.schedule
        ]

    def test_schedule_validates_against_dfg(self, synth_sim):
        dfg = dfg_of("fast_cpu", "fast_gpu", "uniform", deps=[(0, 2), (1, 2)])
        result = synth_sim.run(dfg, OLB())
        result.schedule.validate(dfg)  # must not raise

    def test_result_carries_policy_metadata(self, synth_sim):
        result = synth_sim.run(dfg_of("fast_cpu"), APT(alpha=2.0))
        assert result.policy_name == "apt"
        assert result.policy_stats["alpha"] == 2.0
