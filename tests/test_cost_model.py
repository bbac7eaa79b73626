"""The unified CostModel, and regressions for the two cost-leak bugs.

Historically the ``transfers_enabled=False`` mode (the Figure 5 setting)
leaked face-value transfer costs into two places:

* ``Simulator.run`` passed only a ``transfer_mode`` to static planners,
  so HEFT/PEFT/CPOP budgeted transfers the run then zeroed;
* ``SchedulingContext.transfer_time`` ignored the switch entirely, so
  APT's ``exec + transfer ≤ α·x`` test charged phantom transfers.

Both are now answered by the simulator's single CostModel; these tests
pin the fixed behavior.
"""

from __future__ import annotations

import pytest

from repro.core.cost import ELEMENT_SIZE, CostModel
from repro.core.simulator import Simulator
from repro.core.system import CPU_GPU_FPGA, Processor, ProcessorType, SystemConfig
from repro.core.topology import TopoLink, Topology
from repro.data.paper_tables import figure5_lookup_table
from repro.graphs.dfg import DFG, KernelSpec
from repro.policies.apt import APT
from repro.policies.base import ProcessorView, SchedulingContext
from repro.policies.cpop import CPOP
from repro.policies.heft import HEFT
from repro.policies.met import MET
from repro.policies.peft import PEFT
from tests.conftest import SYNTH_SIZE, make_synthetic_lookup


@pytest.fixture
def cost(system, synth_lookup) -> CostModel:
    return CostModel(system, synth_lookup)


@pytest.fixture
def cost_disabled(system, synth_lookup) -> CostModel:
    return CostModel(system, synth_lookup, transfers_enabled=False)


class TestCostModel:
    def test_exec_time_matches_lookup(self, cost, synth_lookup):
        assert cost.exec_time("fast_cpu", SYNTH_SIZE, ProcessorType.CPU) == (
            synth_lookup.time("fast_cpu", SYNTH_SIZE, ProcessorType.CPU)
        )

    def test_exec_time_memo_is_bit_identical(self, cost):
        a = cost.exec_time("fast_gpu", SYNTH_SIZE, ProcessorType.FPGA)
        b = cost.exec_time("fast_gpu", SYNTH_SIZE, ProcessorType.FPGA)
        assert a == b == 50.0

    def test_best_processor(self, cost):
        ptype, x = cost.best_processor("fast_fpga", SYNTH_SIZE)
        assert ptype is ProcessorType.FPGA and x == 10.0

    def test_transfer_time_matches_system(self, cost, system):
        nbytes = SYNTH_SIZE * 4
        assert cost.transfer_time_ms("cpu0", "gpu0", nbytes) == (
            system.transfer_time_ms("cpu0", "gpu0", nbytes)
        )

    def test_transfers_disabled_zeroes_everything(self, cost_disabled):
        nbytes = SYNTH_SIZE * 4
        assert cost_disabled.transfer_time_ms("cpu0", "gpu0", nbytes) == 0.0
        assert cost_disabled.avg_comm(SYNTH_SIZE) == 0.0

    def test_inbound_transfer_disabled_is_zero(self, cost_disabled):
        dfg = DFG.from_kernels(
            [KernelSpec("fast_cpu", SYNTH_SIZE), KernelSpec("fast_gpu", SYNTH_SIZE)],
            dependencies=[(0, 1)],
        )
        assert cost_disabled.inbound_transfer(dfg, 1, "gpu0", {0: "cpu0"}) == 0.0

    def test_data_bytes_counts_single_precision_elements(self, cost):
        assert ELEMENT_SIZE == 4
        assert cost.data_bytes(SYNTH_SIZE) == SYNTH_SIZE * 4

    def test_inbound_transfer_takes_slowest_cross_predecessor(self, synth_lookup):
        # gpu0 <-> fpga0 at 2 GB/s, cpu0 <-> fpga0 at 1 GB/s: the kernel on
        # fpga0 pays the 4 ms cpu0 transfer, neither the 2 ms one nor the sum.
        system = SystemConfig(
            [
                Processor("cpu0", ProcessorType.CPU),
                Processor("gpu0", ProcessorType.GPU),
                Processor("fpga0", ProcessorType.FPGA),
            ],
            topology=Topology(
                [
                    TopoLink("cpu0", "fpga0", 1.0),
                    TopoLink("gpu0", "fpga0", 2.0),
                    TopoLink("cpu0", "gpu0", 4.0),
                ]
            ),
        )
        cost = CostModel(system, synth_lookup)
        dfg = DFG.from_kernels(
            [
                KernelSpec("fast_cpu", SYNTH_SIZE),
                KernelSpec("fast_gpu", SYNTH_SIZE),
                KernelSpec("fast_fpga", SYNTH_SIZE),
            ],
            dependencies=[(0, 2), (1, 2)],
        )
        placed = {0: "cpu0", 1: "gpu0"}
        assert cost.inbound_transfer(dfg, 2, "fpga0", placed) == pytest.approx(4.0)
        # a same-processor predecessor is free: only gpu0's 1 ms remains
        assert cost.inbound_transfer(dfg, 2, "cpu0", placed) == pytest.approx(1.0)

    def test_avg_comm_matches_manual_average(self, cost, system):
        nbytes = SYNTH_SIZE * 4
        procs = system.processors
        manual = sum(
            system.transfer_time_ms(a.name, b.name, nbytes)
            for a in procs
            for b in procs
        ) / len(procs) ** 2
        assert cost.avg_comm(SYNTH_SIZE) == manual


def _transfer_heavy_dfg() -> DFG:
    """A chain whose stages prefer different processors — placement is
    transfer-sensitive, so plans with and without transfer budgeting
    genuinely differ."""
    specs = [
        KernelSpec("fast_cpu", SYNTH_SIZE),
        KernelSpec("fast_gpu", SYNTH_SIZE),
        KernelSpec("fast_fpga", SYNTH_SIZE),
        KernelSpec("fast_gpu", SYNTH_SIZE),
        KernelSpec("fast_cpu", SYNTH_SIZE),
    ]
    return DFG.from_kernels(specs, dependencies=[(i, i + 1) for i in range(4)])


class TestStaticPlansSeeZeroTransfersWhenDisabled:
    """Regression: ``Simulator.run`` used to hand static policies a bare
    ``transfer_mode`` while ``transfers_enabled=False``, so plans budgeted
    transfers the run would zero.  A transfers-disabled plan must equal the
    plan for a (practically) infinitely fast interconnect."""

    @pytest.mark.parametrize("policy_cls", [HEFT, PEFT, CPOP])
    def test_disabled_equals_zero_rate_link(self, policy_cls, system, synth_lookup):
        dfg = _transfer_heavy_dfg()
        disabled = policy_cls().plan(
            dfg, CostModel(system, synth_lookup, transfers_enabled=False)
        )
        free_links = CPU_GPU_FPGA(transfer_rate_gbps=1e18)
        zero_rate = policy_cls().plan(dfg, CostModel(free_links, synth_lookup))
        assert dict(disabled.processor_of) == dict(zero_rate.processor_of)
        assert dict(disabled.priority) == dict(zero_rate.priority)
        for kid in dfg.kernel_ids():
            assert disabled.planned_start[kid] == pytest.approx(
                zero_rate.planned_start[kid], abs=1e-6
            )

    @pytest.mark.parametrize("policy_cls", [HEFT, PEFT, CPOP])
    def test_simulator_threads_the_switch_into_plans(
        self, policy_cls, system, synth_lookup
    ):
        """End to end: a transfers-disabled run schedules exactly like the
        zero-rate-link plan dictates (same processors for every kernel)."""
        dfg = _transfer_heavy_dfg()
        sim = Simulator(system, synth_lookup, transfers_enabled=False)
        result = sim.run(dfg, policy_cls())
        expected = policy_cls().plan(
            dfg, CostModel(system, synth_lookup, transfers_enabled=False)
        )
        for entry in result.schedule:
            assert entry.processor == expected.processor_of[entry.kernel_id]

    def test_enabled_plan_differs_on_transfer_heavy_chain(self, system, synth_lookup):
        """Sanity: the knob matters — with real 4 GB/s links the HEFT plan
        is not the transfers-disabled plan for this chain."""
        dfg = _transfer_heavy_dfg()
        with_t = HEFT().plan(dfg, CostModel(system, synth_lookup))
        without_t = HEFT().plan(
            dfg, CostModel(system, synth_lookup, transfers_enabled=False)
        )
        assert dict(with_t.planned_finish) != dict(without_t.planned_finish)


class TestContextTransferTimeHonorsTheSwitch:
    """Regression: ``SchedulingContext.transfer_time`` claimed to mirror the
    simulator's transfer model but ignored ``transfers_enabled``."""

    def _context(self, system, synth_lookup, transfers_enabled: bool):
        dfg = DFG.from_kernels(
            [KernelSpec("fast_cpu", SYNTH_SIZE), KernelSpec("fast_gpu", SYNTH_SIZE)],
            dependencies=[(0, 1)],
        )
        views = {
            p.name: ProcessorView(
                processor=p,
                busy=(p.name == "gpu0"),
                free_at=100.0 if p.name == "gpu0" else 10.0,
                queue_length=0,
                running_kernel=99 if p.name == "gpu0" else None,
            )
            for p in system
        }
        return SchedulingContext(
            time=10.0,
            ready=(1,),
            dfg=dfg,
            system=system,
            cost=CostModel(system, synth_lookup, transfers_enabled=transfers_enabled),
            views=views,
            assignment_of={0: "cpu0"},
            completed=frozenset({0}),
            exec_history={p.name: [] for p in system},
        )

    def test_transfer_time_zero_when_disabled(self, system, synth_lookup):
        ctx = self._context(system, synth_lookup, transfers_enabled=False)
        assert ctx.transfer_time(1, "fpga0") == 0.0

    def test_transfer_time_charged_when_enabled(self, system, synth_lookup):
        ctx = self._context(system, synth_lookup, transfers_enabled=True)
        # 1 000 000 elements × 4 B at 4 GB/s = 1 ms from cpu0.
        assert ctx.transfer_time(1, "fpga0") == pytest.approx(1.0)

    def test_apt_alternative_no_longer_pays_phantom_transfer(
        self, system, synth_lookup
    ):
        """fast_gpu on FPGA costs 50; with α·x = 50.5 the FPGA alternative
        qualifies on execution alone but not with the 1 ms transfer.  A
        transfers-disabled run must take the alternative (the old code
        charged the phantom 1 ms and waited)."""
        apt = APT(alpha=5.05)
        ctx_off = self._context(system, synth_lookup, transfers_enabled=False)
        decisions = apt.select(ctx_off)
        assert [(a.kernel_id, a.processor, a.alternative) for a in decisions] == [
            (1, "fpga0", True)
        ]
        apt.reset()
        ctx_on = self._context(system, synth_lookup, transfers_enabled=True)
        assert apt.select(ctx_on) == []


class TestFigure5EndTimesStillExact:
    """The satellite's acceptance: the published Figure 5 end times hold
    after the phantom-transfer fix (the Figure 5 workload has no edges, so
    its numbers must be untouched by transfer accounting)."""

    def test_met_and_apt_end_times(self):
        system = CPU_GPU_FPGA()
        sim = Simulator(system, figure5_lookup_table(), transfers_enabled=False)
        from repro.data.paper_tables import FIGURE5_KERNELS

        dfg = DFG.from_kernels(FIGURE5_KERNELS, name="figure5")
        assert sim.run(dfg, MET()).makespan == pytest.approx(318.093)
        assert sim.run(dfg, APT(alpha=8.0)).makespan == pytest.approx(212.093)


def test_make_synthetic_lookup_helper_unchanged():
    """Guard the fixture the regression arithmetic above depends on."""
    lookup = make_synthetic_lookup()
    assert lookup.time("fast_gpu", SYNTH_SIZE, ProcessorType.FPGA) == 50.0
    assert lookup.time("fast_gpu", SYNTH_SIZE, ProcessorType.GPU) == 10.0
