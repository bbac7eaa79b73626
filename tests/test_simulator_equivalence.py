"""Bit-for-bit equivalence of the incremental and reference inner loops.

The optimized :class:`~repro.core.simulator.Simulator` must reproduce the
pre-refactor :class:`~repro.core.reference.ReferenceSimulator` *exactly* —
every :class:`~repro.core.schedule.ScheduleEntry` field of every kernel —
across all registered policies, both paper DFG shapes, streaming
arrivals, and execution noise.  Both engines share the policies and the
CostModel; only the event-loop bookkeeping differs, so any divergence is
a hot-path bug.
"""

from __future__ import annotations

import pytest

from repro.core.reference import ReferenceSimulator
from repro.core.simulator import Simulator
from repro.core.system import CPU_GPU_FPGA, Processor, SystemConfig
from repro.core.topology import bus_topology, star_topology
from repro.data.paper_tables import (
    FIGURE5_KERNELS,
    figure5_lookup_table,
    paper_lookup_table,
)
from repro.graphs.dfg import DFG
from repro.policies.apt import APT
from repro.policies.met import MET
from repro.experiments.workloads import (
    paper_suite,
    scale_system,
    streaming_scale_workload,
)
from repro.policies.registry import available_policies, get_policy

ALL_POLICIES = available_policies()


def star_twin(flat: SystemConfig, contention: bool = False) -> SystemConfig:
    """The star-topology expression of a flat uniform-rate system."""
    procs = [Processor(p.name, p.ptype) for p in flat]
    return SystemConfig(
        procs,
        topology=star_topology(
            [p.name for p in procs],
            rate_gbps=flat.default_rate_gbps,
            contention=contention,
        ),
    )


@pytest.fixture(scope="module")
def lookup():
    return paper_lookup_table()


@pytest.fixture(scope="module")
def system():
    return CPU_GPU_FPGA(transfer_rate_gbps=4.0)


def assert_identical_runs(sim_kwargs, dfg, policy_name, arrivals=None):
    system = sim_kwargs.pop("system")
    lookup = sim_kwargs.pop("lookup")
    fast = Simulator(system, lookup, **sim_kwargs).run(
        dfg, get_policy(policy_name), arrivals=arrivals
    )
    slow = ReferenceSimulator(system, lookup, **sim_kwargs).run(
        dfg, get_policy(policy_name), arrivals=arrivals
    )
    # ScheduleEntry is a frozen dataclass: == compares every field.
    assert list(fast.schedule) == list(slow.schedule), (
        f"schedule divergence: {policy_name} on {dfg.name}"
    )
    assert fast.metrics == slow.metrics
    assert fast.policy_stats == slow.policy_stats


class TestFullPaperSuite:
    """The acceptance matrix: every policy × every graph of both suites."""

    @pytest.mark.parametrize("policy_name", ALL_POLICIES)
    @pytest.mark.parametrize("dfg_type", [1, 2])
    def test_policy_on_full_suite(self, policy_name, dfg_type, system, lookup):
        for dfg in paper_suite(dfg_type):
            assert_identical_runs(
                {"system": system, "lookup": lookup}, dfg, policy_name
            )


class TestTransfersDisabled:
    @pytest.mark.parametrize("policy_name", ALL_POLICIES)
    def test_disabled_transfers_equivalence(self, policy_name, system, lookup):
        # one mid-size graph per suite keeps this matrix quick
        for dfg_type in (1, 2):
            dfg = paper_suite(dfg_type)[3]
            assert_identical_runs(
                {"system": system, "lookup": lookup, "transfers_enabled": False},
                dfg,
                policy_name,
            )


class TestExecutionNoise:
    @pytest.mark.parametrize("policy_name", ALL_POLICIES)
    def test_noise_equivalence(self, policy_name, system, lookup):
        dfg = paper_suite(1)[2]
        assert_identical_runs(
            {
                "system": system,
                "lookup": lookup,
                "exec_noise_sigma": 0.25,
                "noise_seed": 7,
            },
            dfg,
            policy_name,
        )


class TestStarTopologyEquivalence:
    """A uniform star topology must reproduce the flat link table exactly."""

    @pytest.mark.parametrize("policy_name", ALL_POLICIES)
    def test_star_equals_flat_bit_for_bit(self, policy_name, system, lookup):
        dfg = paper_suite(1)[1]
        star = star_twin(system)
        flat_run = Simulator(system, lookup).run(dfg, get_policy(policy_name))
        star_run = Simulator(star, lookup).run(dfg, get_policy(policy_name))
        assert list(flat_run.schedule) == list(star_run.schedule)
        assert flat_run.metrics == star_run.metrics

    @pytest.mark.parametrize("policy_name", ["apt", "met", "heft", "ag"])
    def test_star_fast_vs_reference(self, policy_name, system, lookup):
        dfg = paper_suite(2)[1]
        assert_identical_runs(
            {"system": star_twin(system), "lookup": lookup}, dfg, policy_name
        )

    def test_figure5_end_times_on_star_topology(self):
        # The one fully-published experiment: the star-topology platform
        # must land on the paper's exact end times too.
        star = star_twin(CPU_GPU_FPGA())
        sim = Simulator(star, figure5_lookup_table(), transfers_enabled=False)
        dfg = DFG.from_kernels(FIGURE5_KERNELS, name="figure5")
        assert sim.run(dfg, MET()).makespan == pytest.approx(318.093, abs=1e-3)
        assert sim.run(dfg, APT(alpha=8.0)).makespan == pytest.approx(212.093, abs=1e-3)


class TestContendedVsUncontended:
    """The contended event path vs the fixed-charge path.

    When no two flows ever overlap on a shared channel, the contended
    path must charge *exactly* the uncontended route times; when flows do
    overlap, the shared channel's equal-share discipline stretches them
    by the precise flow count.
    """

    def _bus_system(self, contention: bool) -> SystemConfig:
        flat = CPU_GPU_FPGA(transfer_rate_gbps=4.0)
        procs = [Processor(p.name, p.ptype) for p in flat]
        return SystemConfig(
            procs,
            topology=bus_topology(
                [p.name for p in procs], bus_gbps=4.0, contention=contention
            ),
        )

    def test_serial_transfers_identical_bit_for_bit(self, lookup):
        # A pipeline chain never has two transfers in flight at once, so
        # contention must change nothing — including every float.
        from repro.graphs.generators import make_pipeline_dfg
        import numpy as np

        dfg = make_pipeline_dfg(
            30, rng=np.random.default_rng(5), stage_width=1, name="chain"
        )
        for policy_name in ("met", "apt", "heft"):
            on = Simulator(self._bus_system(True), lookup).run(
                dfg, get_policy(policy_name)
            )
            off = Simulator(self._bus_system(False), lookup).run(
                dfg, get_policy(policy_name)
            )
            key = lambda e: e.kernel_id  # noqa: E731 - contended entries log at exec start
            assert sorted(on.schedule, key=key) == sorted(off.schedule, key=key)
            assert on.metrics == off.metrics

    def test_join_kernel_flows_share_the_bus_exactly(self, lookup):
        # Two predecessors pinned to different processors feed one join
        # kernel on a third: its two inbound flows drain concurrently on
        # the shared bus, so each gets half the bandwidth — exactly 2x
        # the uncontended (max) transfer time; upstream is untouched.
        from repro.graphs.dfg import KernelSpec
        from repro.policies.base import Assignment, DynamicPolicy

        dfg = DFG("join")
        a = dfg.add_kernel(KernelSpec("matmul", 250_000))
        b = dfg.add_kernel(KernelSpec("bfs", 250_000))
        c = dfg.add_kernel(KernelSpec("srad", 250_000))
        dfg.add_dependencies([(a, c), (b, c)])
        pin = {a: "gpu0", b: "fpga0", c: "cpu0"}

        class Pinned(DynamicPolicy):
            name = "pinned"

            def select(self, ctx):
                return [
                    Assignment(kernel_id=k, processor=pin[k])
                    for k in ctx.ready
                    if ctx.views[pin[k]].idle
                ]

        on = Simulator(self._bus_system(True), lookup).run(dfg, Pinned())
        off = Simulator(self._bus_system(False), lookup).run(dfg, Pinned())
        entry_on = {e.kernel_id: e for e in on.schedule}
        entry_off = {e.kernel_id: e for e in off.schedule}
        # uncontended: max(two 1e6-byte transfers at 4 GB/s) = 0.25 ms
        assert entry_off[c].transfer_time == pytest.approx(0.25)
        assert entry_on[c].transfer_time == pytest.approx(
            2.0 * entry_off[c].transfer_time
        )
        for kid in (a, b):
            assert entry_on[kid] == entry_off[kid]


class TestStreamingArrivals:
    @pytest.mark.parametrize("policy_name", ALL_POLICIES)
    def test_streaming_equivalence(self, policy_name, lookup):
        dfg, arrivals = streaming_scale_workload(
            n_kernels=250, seed=11, mean_interarrival_ms=2000.0
        )
        assert_identical_runs(
            {"system": scale_system(n_cpu=2, n_gpu=2, n_fpga=2), "lookup": lookup},
            dfg,
            policy_name,
            arrivals=arrivals,
        )

    @pytest.mark.parametrize("policy_name", ["apt", "apt_rt", "met", "ag", "heft"])
    def test_streaming_with_noise_equivalence(self, policy_name, lookup):
        dfg, arrivals = streaming_scale_workload(
            n_kernels=200, seed=3, mean_interarrival_ms=1500.0
        )
        assert_identical_runs(
            {
                "system": scale_system(n_cpu=2, n_gpu=2, n_fpga=2),
                "lookup": lookup,
                "exec_noise_sigma": 0.3,
                "noise_seed": 42,
            },
            dfg,
            policy_name,
            arrivals=arrivals,
        )


class TestEventDrivenArrivalPath:
    """``Simulator.run_stream`` (event-driven admission + retirement) must
    reproduce the merged-DFG path bit for bit: every ScheduleEntry field
    of every kernel, for every policy, on the paper suites, the streaming
    extension, and the published Figure 5 anchors."""

    def assert_stream_equivalent(self, sim_kwargs, stream, policy_name, name="stream"):
        from repro.graphs.sources import EagerSource

        system = sim_kwargs.pop("system")
        lookup = sim_kwargs.pop("lookup")
        sim = Simulator(system, lookup, **sim_kwargs)
        merged, arrivals = stream.merged(name=name)
        ref = sim.run(merged, get_policy(policy_name), arrivals=arrivals)
        out = sim.run_stream(EagerSource(stream, name=name), get_policy(policy_name))
        assert list(out.schedule) == list(ref.schedule), (
            f"stream/merged divergence: {policy_name} on {name}"
        )
        assert out.metrics == ref.metrics
        assert out.policy_stats == ref.policy_stats

    @pytest.mark.parametrize("policy_name", ALL_POLICIES)
    @pytest.mark.parametrize("dfg_type", [1, 2])
    def test_paper_suites_as_single_application_streams(
        self, policy_name, dfg_type, system, lookup
    ):
        from repro.graphs.streams import ApplicationArrival, ApplicationStream

        for dfg in paper_suite(dfg_type)[:4]:
            stream = ApplicationStream([ApplicationArrival(dfg, 0.0)])
            self.assert_stream_equivalent(
                {"system": system, "lookup": lookup}, stream, policy_name, name=dfg.name
            )

    @pytest.mark.parametrize("policy_name", ALL_POLICIES)
    def test_streaming_extension_equivalence(self, policy_name, lookup):
        from repro.experiments.workloads import streaming_scale_stream

        stream = streaming_scale_stream(
            n_kernels=250, seed=11, mean_interarrival_ms=2000.0
        )
        self.assert_stream_equivalent(
            {"system": scale_system(n_cpu=2, n_gpu=2, n_fpga=2), "lookup": lookup},
            stream,
            policy_name,
        )

    @pytest.mark.parametrize("policy_name", ["apt", "apt_rt", "met", "ag", "heft"])
    def test_streaming_with_noise_equivalence(self, policy_name, lookup):
        from repro.experiments.workloads import streaming_scale_stream

        stream = streaming_scale_stream(
            n_kernels=200, seed=3, mean_interarrival_ms=1500.0
        )
        self.assert_stream_equivalent(
            {
                "system": scale_system(n_cpu=2, n_gpu=2, n_fpga=2),
                "lookup": lookup,
                "exec_noise_sigma": 0.3,
                "noise_seed": 42,
            },
            stream,
            policy_name,
        )

    @pytest.mark.parametrize("policy_name", ["apt", "met", "ag"])
    def test_contended_bus_stream_equivalence(self, policy_name, lookup):
        from repro.experiments.workloads import streaming_scale_stream
        from repro.graphs.sources import EagerSource

        flat = CPU_GPU_FPGA(transfer_rate_gbps=4.0)
        procs = [Processor(p.name, p.ptype) for p in flat]
        system = SystemConfig(
            procs,
            topology=bus_topology(
                [p.name for p in procs], bus_gbps=4.0, contention=True
            ),
        )
        stream = streaming_scale_stream(
            n_kernels=150, seed=5, mean_interarrival_ms=2000.0
        )
        sim = Simulator(system, lookup)
        merged, arrivals = stream.merged(name="stream")
        ref = sim.run(merged, get_policy(policy_name), arrivals=arrivals)
        out = sim.run_stream(EagerSource(stream, name="stream"), get_policy(policy_name))
        assert list(out.schedule) == list(ref.schedule)
        assert out.metrics == ref.metrics

    def test_figure5_end_times_through_run_stream(self):
        # The one fully-published experiment must land on the paper's
        # exact end times through the event-driven arrival pipeline too.
        from repro.graphs.streams import ApplicationArrival, ApplicationStream

        sim = Simulator(
            CPU_GPU_FPGA(), figure5_lookup_table(), transfers_enabled=False
        )
        dfg = DFG.from_kernels(FIGURE5_KERNELS, name="figure5")
        stream = ApplicationStream([ApplicationArrival(dfg, 0.0)])
        met = sim.run_stream(stream, MET())
        apt = sim.run_stream(stream, APT(alpha=8.0))
        assert met.makespan == pytest.approx(318.093, abs=1e-3)
        assert apt.makespan == pytest.approx(212.093, abs=1e-3)


class TestLayeredEngineSeams:
    """The engine/dynamics split must be invisible: inserting an extra
    no-op ``RuntimeDynamics`` layer (every hook overridden, nothing
    mutated) leaves schedules bit-for-bit identical on closed, streamed,
    contended and Figure-5 runs alike — proof that the seams observe the
    run without perturbing it."""

    @staticmethod
    def noop_layer():
        from repro.core.engine import RuntimeDynamics

        class NoopObserver(RuntimeDynamics):
            name = "noop_observer"

            def on_run_start(self):
                self.seen = 0

            def on_kernel_start(self, kid, proc):
                self.seen += 1

            def on_kernel_finish(self, kid, proc):
                self.seen += 1

            def on_entry(self, entry):
                self.seen += 1

            def observe(self, ctx):
                self.seen += 1

        return NoopObserver()

    @pytest.mark.parametrize("policy_name", ["apt", "apt_rt", "met", "ag", "heft", "peft"])
    @pytest.mark.parametrize("dfg_type", [1, 2])
    def test_noop_layer_invisible_on_paper_suites(
        self, policy_name, dfg_type, system, lookup
    ):
        dfg = paper_suite(dfg_type)[2]
        base = Simulator(system, lookup).run(dfg, get_policy(policy_name))
        layer = self.noop_layer()
        layered = Simulator(system, lookup, dynamics=[layer]).run(
            dfg, get_policy(policy_name)
        )
        assert list(layered.schedule) == list(base.schedule)
        assert layered.metrics == base.metrics
        assert layer.seen > 0

    @pytest.mark.parametrize("policy_name", ["apt", "met", "ag"])
    def test_noop_layer_invisible_on_contended_stream(self, policy_name, lookup):
        from repro.experiments.workloads import streaming_scale_stream
        from repro.graphs.sources import EagerSource

        flat = CPU_GPU_FPGA(transfer_rate_gbps=4.0)
        procs = [Processor(p.name, p.ptype) for p in flat]
        system = SystemConfig(
            procs,
            topology=bus_topology(
                [p.name for p in procs], bus_gbps=4.0, contention=True
            ),
        )
        stream = streaming_scale_stream(
            n_kernels=120, seed=5, mean_interarrival_ms=2000.0
        )
        base = Simulator(system, lookup).run_stream(
            EagerSource(stream, name="s"), get_policy(policy_name)
        )
        layered = Simulator(system, lookup, dynamics=[self.noop_layer()]).run_stream(
            EagerSource(stream, name="s"), get_policy(policy_name)
        )
        assert list(layered.schedule) == list(base.schedule)
        assert layered.metrics == base.metrics
        assert layered.service == base.service

    def test_noop_layer_preserves_figure5_anchors(self):
        sim = Simulator(
            star_twin(CPU_GPU_FPGA()),
            figure5_lookup_table(),
            transfers_enabled=False,
            dynamics=[self.noop_layer()],
        )
        dfg = DFG.from_kernels(FIGURE5_KERNELS, name="figure5")
        assert sim.run(dfg, MET()).makespan == pytest.approx(318.093, abs=1e-3)
        assert sim.run(dfg, APT(alpha=8.0)).makespan == pytest.approx(
            212.093, abs=1e-3
        )

    @pytest.mark.parametrize("policy_name", ["apt", "met"])
    def test_noop_layer_invisible_under_noise(self, policy_name, system, lookup):
        dfg = paper_suite(1)[1]
        kwargs = dict(exec_noise_sigma=0.25, noise_seed=7)
        base = Simulator(system, lookup, **kwargs).run(dfg, get_policy(policy_name))
        layered = Simulator(
            system, lookup, dynamics=[self.noop_layer()], **kwargs
        ).run(dfg, get_policy(policy_name))
        assert list(layered.schedule) == list(base.schedule)
        assert layered.metrics == base.metrics
