"""End-to-end integration tests over the public API surface."""

import numpy as np
import pytest

import repro
from repro import (
    APT,
    CPU_GPU_FPGA,
    DFG,
    HEFT,
    MET,
    KernelSpec,
    Simulator,
    make_type1_dfg,
    make_type2_dfg,
    paper_lookup_table,
)


class TestPublicAPI:
    def test_quickstart_flow(self):
        """The README quickstart, verbatim in spirit."""
        system = CPU_GPU_FPGA(transfer_rate_gbps=4.0)
        lookup = paper_lookup_table()
        dfg = make_type1_dfg(n_kernels=20, rng=np.random.default_rng(0))
        sim = Simulator(system, lookup)
        result_apt = sim.run(dfg, APT(alpha=4.0))
        result_met = sim.run(dfg, MET())
        assert result_apt.makespan <= result_met.makespan + 1e-9

    def test_all_documented_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_string(self):
        assert repro.__version__.count(".") == 2


class TestCustomHardware:
    def test_multi_gpu_system(self):
        """Two GPUs let MET run two GPU-favourite kernels in parallel."""
        system = CPU_GPU_FPGA(n_gpu=2)
        lookup = paper_lookup_table()
        dfg = DFG.from_kernels([KernelSpec("srad", 134_217_728)] * 2)
        result = Simulator(system, lookup).run(dfg, MET())
        assert {e.processor for e in result.schedule} == {"gpu0", "gpu1"}
        assert result.makespan == pytest.approx(1600.0)

    def test_single_processor_system_serializes_everything(self):
        system = CPU_GPU_FPGA(n_cpu=1, n_gpu=0, n_fpga=0)
        lookup = paper_lookup_table()
        dfg = DFG.from_kernels([KernelSpec("nw", 16_777_216)] * 3)
        result = Simulator(system, lookup).run(dfg, APT(alpha=4.0))
        assert result.makespan == pytest.approx(3 * 112.0)

    def test_heterogeneous_link_overrides(self):
        from repro.core.system import Processor, ProcessorType, SystemConfig
        from repro.core.topology import TopoLink, Topology

        system = SystemConfig(
            [
                Processor("cpu0", ProcessorType.CPU),
                Processor("gpu0", ProcessorType.GPU),
            ],
            # a per-pair rate is a topology edge; this one is pathologically slow
            topology=Topology([TopoLink("cpu0", "gpu0", 0.004)]),
        )
        lookup = paper_lookup_table()
        dfg = DFG.from_kernels(
            [KernelSpec("nw", 16_777_216), KernelSpec("srad", 134_217_728)],
            dependencies=[(0, 1)],
        )
        result = Simulator(system, lookup).run(dfg, MET())
        # srad's inbound transfer over the slow link dominates its runtime
        assert result.schedule[1].transfer_time > 10_000


class TestMixedWorkflow:
    def test_type2_stream_through_all_policy_kinds(self):
        system = CPU_GPU_FPGA()
        lookup = paper_lookup_table()
        dfg = make_type2_dfg(30, rng=np.random.default_rng(3))
        sim = Simulator(system, lookup)
        results = {
            "apt": sim.run(dfg, APT(alpha=4.0)),
            "met": sim.run(dfg, MET()),
            "heft": sim.run(dfg, HEFT()),
        }
        for result in results.values():
            result.schedule.validate(dfg)
        # all policies executed the same kernels
        spans = {name: r.makespan for name, r in results.items()}
        assert all(v > 0 for v in spans.values())

    def test_calibrated_table_end_to_end(self):
        from repro.kernels.calibration import Calibrator

        table = Calibrator(repeats=1, warmup=0).calibrate(
            {"matmul": [64 * 64], "cholesky": [64 * 64]}
        )
        dfg = DFG.from_kernels(
            [KernelSpec("matmul", 64 * 64), KernelSpec("cholesky", 64 * 64)]
        )
        result = Simulator(CPU_GPU_FPGA(), table).run(dfg, APT(alpha=4.0))
        assert result.makespan > 0

    def test_metrics_are_self_consistent(self):
        system = CPU_GPU_FPGA()
        lookup = paper_lookup_table()
        dfg = make_type1_dfg(15, rng=np.random.default_rng(9))
        result = Simulator(system, lookup).run(dfg, APT(alpha=4.0))
        m = result.metrics
        for usage in m.usage.values():
            assert usage.busy_time + usage.idle_time == pytest.approx(m.makespan)
        assert m.total_compute_time == pytest.approx(
            sum(e.exec_time for e in result.schedule)
        )
