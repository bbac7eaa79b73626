"""Runtime-dynamics layers: fault injection, preemption, custom layers.

Covers the engine's extension seams end to end: declarative specs and
their CLI/parsing forms, seed-deterministic fault traces (abort,
re-enqueue, repair, availability accounting) across dynamic and static
policies and contended topologies, policy-driven preemption with its
penalty mechanics, and the sweep-engine integration (dynamics in the
cache key, cross-process determinism, result columns).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dynamics import (
    DynamicsSpec,
    FaultDynamics,
    PreemptionDynamics,
    parse_dynamics_arg,
)
from repro.core.engine import RuntimeDynamics
from repro.core.simulator import Simulator
from repro.core.system import CPU_GPU_FPGA, Processor, ProcessorType, SystemConfig
from repro.core.topology import bus_topology
from repro.data.paper_tables import paper_lookup_table
from repro.graphs.generators import make_pipeline_dfg, make_type1_dfg
from repro.policies.base import ProcessorView
from repro.policies.registry import get_policy


@pytest.fixture(scope="module")
def lookup():
    return paper_lookup_table()


@pytest.fixture(scope="module")
def system():
    return CPU_GPU_FPGA(transfer_rate_gbps=4.0)


@pytest.fixture(scope="module")
def dfg():
    return make_type1_dfg(30, rng=np.random.default_rng(3), name="t1_30")


def fault_spec_for(makespan: float, seed: int = 7) -> DynamicsSpec:
    """A fault profile guaranteed to strike within the run but far above
    kernel granularity (no starvation livelock)."""
    return DynamicsSpec.of(
        "fault", mttf_ms=makespan / 3.0, mttr_ms=makespan / 30.0, seed=seed
    )


# ----------------------------------------------------------------------
# declarative specs
# ----------------------------------------------------------------------
class TestDynamicsSpec:
    def test_round_trip(self):
        spec = DynamicsSpec.of("fault", mttf_ms=100.0, mttr_ms=10.0, seed=3)
        assert DynamicsSpec.from_dict(spec.to_dict()) == spec

    def test_param_order_insensitive(self):
        a = DynamicsSpec.of("fault", mttf_ms=1.0, mttr_ms=2.0)
        b = DynamicsSpec.of("fault", mttr_ms=2.0, mttf_ms=1.0)
        assert a == b

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown dynamics kind"):
            DynamicsSpec.of("explode")

    def test_build_types(self):
        assert isinstance(
            DynamicsSpec.of("fault", mttf_ms=1.0, mttr_ms=1.0).build(), FaultDynamics
        )
        assert isinstance(
            DynamicsSpec.of("preempt", penalty_ms=1.0).build(), PreemptionDynamics
        )

    def test_parse_dynamics_arg(self):
        specs = parse_dynamics_arg(
            "fault:mttf_ms=60000,mttr_ms=4000,seed=7;preempt:penalty_ms=2"
        )
        assert [s.kind for s in specs] == ["fault", "preempt"]
        assert dict(specs[0].params) == {
            "mttf_ms": 60000,
            "mttr_ms": 4000,
            "seed": 7,
        }
        assert dict(specs[1].params) == {"penalty_ms": 2}

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_dynamics_arg("")
        with pytest.raises(ValueError, match="key=value"):
            parse_dynamics_arg("fault:mttf_ms")
        with pytest.raises(ValueError, match="unknown dynamics kind"):
            parse_dynamics_arg("warp:speed=9")

    def test_fault_validation(self):
        with pytest.raises(ValueError):
            FaultDynamics(mttf_ms=0.0, mttr_ms=1.0)
        with pytest.raises(ValueError):
            FaultDynamics(mttf_ms=1.0, mttr_ms=-2.0)

    def test_preempt_penalty_must_be_positive(self):
        with pytest.raises(ValueError, match="penalty_ms"):
            PreemptionDynamics(penalty_ms=0.0)


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------
class TestFaultDynamics:
    def baseline(self, system, lookup, dfg, policy="apt"):
        return Simulator(system, lookup).run(dfg, get_policy(policy))

    def test_faults_strike_and_degrade(self, system, lookup, dfg):
        base = self.baseline(system, lookup, dfg)
        spec = fault_spec_for(base.makespan)
        run = Simulator(system, lookup, dynamics=[spec]).run(dfg, get_policy("apt"))
        stats = run.dynamics_stats["fault"]
        assert stats["n_faults"] > 0
        assert run.makespan > base.makespan
        assert 0.0 < stats["mean_availability"] < 1.0
        assert set(stats["availability"]) == {p.name for p in system}
        # every kernel still executed exactly once
        assert sorted(e.kernel_id for e in run.schedule) == sorted(dfg.kernel_ids())

    def test_seed_determinism_and_sensitivity(self, system, lookup, dfg):
        base = self.baseline(system, lookup, dfg)
        spec = fault_spec_for(base.makespan, seed=7)
        r1 = Simulator(system, lookup, dynamics=[spec]).run(dfg, get_policy("apt"))
        r2 = Simulator(system, lookup, dynamics=[spec]).run(dfg, get_policy("apt"))
        assert list(r1.schedule) == list(r2.schedule)
        assert r1.metrics == r2.metrics
        assert r1.dynamics_stats == r2.dynamics_stats
        other = Simulator(
            system, lookup, dynamics=[fault_spec_for(base.makespan, seed=8)]
        ).run(dfg, get_policy("apt"))
        assert list(other.schedule) != list(r1.schedule)

    def test_aborted_kernel_is_requeued_and_migrates(self, system, lookup, dfg):
        base = self.baseline(system, lookup, dfg)
        spec = fault_spec_for(base.makespan)
        run = Simulator(system, lookup, dynamics=[spec]).run(dfg, get_policy("apt"))
        stats = run.dynamics_stats["fault"]
        assert stats["n_aborted"] > 0
        # aborted work re-ran: per-kernel λ anchored after the abort
        assert run.metrics.n_kernels == len(dfg)

    def test_repaired_processor_serves_again(self, lookup):
        # single-CPU system: every kernel must run on the processor that
        # faults, so completion proves fault→repair→dispatch works.
        system = SystemConfig([Processor("cpu0", ProcessorType.CPU)])
        dfg = make_pipeline_dfg(
            8, rng=np.random.default_rng(1), stage_width=1, name="chain8"
        )
        base = Simulator(system, lookup).run(dfg, get_policy("met"))
        spec = fault_spec_for(base.makespan, seed=5)
        run = Simulator(system, lookup, dynamics=[spec]).run(dfg, get_policy("met"))
        stats = run.dynamics_stats["fault"]
        assert stats["n_faults"] > 0
        assert len(run.schedule) == 8
        assert run.makespan > base.makespan

    def test_static_policy_replans_aborted_kernels(self, system, lookup, dfg):
        base = self.baseline(system, lookup, dfg, policy="heft")
        spec = fault_spec_for(base.makespan)
        run = Simulator(system, lookup, dynamics=[spec]).run(dfg, get_policy("heft"))
        assert run.dynamics_stats["fault"]["n_faults"] > 0
        assert sorted(e.kernel_id for e in run.schedule) == sorted(dfg.kernel_ids())

    def test_queued_kernels_flushed_on_fault(self, system, lookup, dfg):
        # AG queues onto busy processors; a fault must flush that queue
        # back to the ready set, not strand it on a dead device.
        base = self.baseline(system, lookup, dfg, policy="ag")
        spec = DynamicsSpec.of(
            "fault", mttf_ms=base.makespan / 4.0, mttr_ms=base.makespan / 30.0, seed=11
        )
        run = Simulator(system, lookup, dynamics=[spec]).run(dfg, get_policy("ag"))
        stats = run.dynamics_stats["fault"]
        assert stats["n_faults"] > 0
        assert sorted(e.kernel_id for e in run.schedule) == sorted(dfg.kernel_ids())

    def test_faults_on_contended_bus(self, lookup):
        # regression: aborting a kernel mid-transfer must release its
        # contended flows, so a restarted kernel can open fresh ones.
        flat = CPU_GPU_FPGA(transfer_rate_gbps=1.0)
        procs = [Processor(p.name, p.ptype) for p in flat]
        system = SystemConfig(
            procs,
            topology=bus_topology(
                [p.name for p in procs], bus_gbps=1.0, latency_ms=0.05, contention=True
            ),
        )
        dfg = make_pipeline_dfg(
            24, rng=np.random.default_rng(9), stage_width=3, name="pipe24"
        )
        base = Simulator(system, lookup).run(dfg, get_policy("apt"))
        spec = fault_spec_for(base.makespan, seed=13)
        r1 = Simulator(system, lookup, dynamics=[spec]).run(dfg, get_policy("apt"))
        r2 = Simulator(system, lookup, dynamics=[spec]).run(dfg, get_policy("apt"))
        assert r1.dynamics_stats["fault"]["n_faults"] > 0
        assert list(r1.schedule) == list(r2.schedule)
        assert sorted(e.kernel_id for e in r1.schedule) == sorted(dfg.kernel_ids())

    def test_faults_through_run_stream(self, system, lookup):
        from repro.graphs.streams import ApplicationArrival, ApplicationStream

        apps = [
            ApplicationArrival(
                make_type1_dfg(
                    10, rng=np.random.default_rng(20 + i), name=f"app{i}"
                ),
                float(i) * 2000.0,
            )
            for i in range(4)
        ]
        stream = ApplicationStream(apps)
        base = Simulator(system, lookup).run_stream(stream, get_policy("apt"))
        spec = fault_spec_for(base.makespan, seed=3)
        run = Simulator(system, lookup, dynamics=[spec]).run_stream(
            stream, get_policy("apt")
        )
        stats = run.dynamics_stats["fault"]
        assert stats["n_faults"] > 0
        assert run.stream.n_kernels == 40
        assert run.service.n_applications == 4
        # stream and merged paths stay equivalent under the same trace
        merged, arrivals = stream.merged(name="stream")
        closed = Simulator(system, lookup, dynamics=[spec]).run(
            merged, get_policy("apt"), arrivals=arrivals
        )
        assert list(run.schedule) == list(closed.schedule)

    def test_unknown_processor_rejected(self, system, lookup, dfg):
        spec = DynamicsSpec.of(
            "fault", mttf_ms=10.0, mttr_ms=1.0, processors=("nope",)
        )
        with pytest.raises(ValueError, match="unknown processor"):
            Simulator(system, lookup, dynamics=[spec]).run(dfg, get_policy("apt"))


# ----------------------------------------------------------------------
# preemption
# ----------------------------------------------------------------------
class TestPreemptionDynamics:
    def workload(self):
        from repro.experiments.workloads import open_system_source

        return open_system_source(
            n_applications=12,
            seed=2017,
            profile="poisson",
            mean_interarrival_ms=30_000.0,
        )

    def test_preemptive_apt_rt_preempts_deterministically(self, system, lookup):
        src = self.workload()
        spec = DynamicsSpec.of("preempt", penalty_ms=2.0)
        policy = lambda: get_policy(  # noqa: E731
            "apt_rt", alpha=1.5, preemptive=True, preempt_factor=1.5
        )
        r1 = Simulator(system, lookup, dynamics=[spec]).run_stream(src, policy())
        r2 = Simulator(system, lookup, dynamics=[spec]).run_stream(src, policy())
        stats = r1.dynamics_stats["preemption"]
        assert stats["n_preemptions"] > 0
        assert stats["penalty_ms_total"] == pytest.approx(
            2.0 * stats["n_preemptions"]
        )
        assert r1.policy_stats["preempt_requests"] >= stats["n_preemptions"]
        assert list(r1.schedule) == list(r2.schedule)

    def test_non_preemptive_policy_unaffected_by_layer(self, system, lookup):
        src = self.workload()
        spec = DynamicsSpec.of("preempt", penalty_ms=2.0)
        base = Simulator(system, lookup).run_stream(src, get_policy("apt_rt", alpha=1.5))
        under = Simulator(system, lookup, dynamics=[spec]).run_stream(
            src, get_policy("apt_rt", alpha=1.5)
        )
        assert under.dynamics_stats["preemption"]["n_preemptions"] == 0
        # entries may be recorded in a different order (deferred mode),
        # but every kernel's lifecycle is identical
        key = lambda e: e.kernel_id  # noqa: E731
        assert sorted(under.schedule, key=key) == sorted(base.schedule, key=key)
        assert under.metrics.makespan == base.metrics.makespan

    def test_preemption_requires_dynamics_layer(self, system, lookup):
        # without the layer, ctx.preemption is None and the policy is inert
        src = self.workload()
        run = Simulator(system, lookup).run_stream(
            src, get_policy("apt_rt", alpha=1.5, preemptive=True)
        )
        assert run.policy_stats.get("preempt_requests") == 0
        assert "preemption" not in run.dynamics_stats

    def test_preempt_factor_validation(self):
        with pytest.raises(ValueError, match="preempt_factor"):
            get_policy("apt_rt", preemptive=True, preempt_factor=0.5)


# ----------------------------------------------------------------------
# custom layers and view surface
# ----------------------------------------------------------------------
class RecordingLayer(RuntimeDynamics):
    """A no-op observer layer: counts hook invocations, changes nothing."""

    name = "recorder"

    def on_run_start(self) -> None:
        self.counts = {"start": 0, "finish": 0, "entry": 0, "observe": 0}

    def on_kernel_start(self, kid, proc) -> None:
        self.counts["start"] += 1

    def on_kernel_finish(self, kid, proc) -> None:
        self.counts["finish"] += 1

    def on_entry(self, entry) -> None:
        self.counts["entry"] += 1

    def observe(self, ctx) -> None:
        self.counts["observe"] += 1


class TestCustomLayers:
    def test_noop_layer_sees_lifecycle_and_changes_nothing(
        self, system, lookup, dfg
    ):
        recorder = RecordingLayer()
        run = Simulator(system, lookup, dynamics=[recorder]).run(
            dfg, get_policy("apt")
        )
        base = Simulator(system, lookup).run(dfg, get_policy("apt"))
        assert list(run.schedule) == list(base.schedule)
        assert run.metrics == base.metrics
        n = len(dfg)
        assert recorder.counts["start"] == n
        assert recorder.counts["finish"] == n
        assert recorder.counts["entry"] == n
        assert recorder.counts["observe"] > 0

    def test_bad_dynamics_item_rejected(self, system, lookup, dfg):
        with pytest.raises(TypeError, match="dynamics must be"):
            Simulator(system, lookup, dynamics=["faulty"]).run(
                dfg, get_policy("apt")
            )

    def test_processor_view_availability(self, system):
        view = ProcessorView(
            processor=system["cpu0"],
            busy=False,
            free_at=0.0,
            queue_length=0,
            running_kernel=None,
        )
        assert view.available and view.idle
        down = ProcessorView(
            processor=system["cpu0"],
            busy=False,
            free_at=5.0,
            queue_length=0,
            running_kernel=None,
            available=False,
        )
        assert not down.idle

    def test_plan_dispatcher_exported_from_policies(self):
        from repro.policies import PlanDispatcher
        from repro.policies.plan import PlanDispatcher as FromModule

        assert PlanDispatcher is FromModule


# ----------------------------------------------------------------------
# sweep-engine integration
# ----------------------------------------------------------------------
class TestSweepIntegration:
    def make_jobs(self, lookup, dynamics):
        from repro.experiments.sweep import PolicySpec, make_job

        dfg = make_type1_dfg(20, rng=np.random.default_rng(4), name="t1_20")
        system = CPU_GPU_FPGA(transfer_rate_gbps=4.0)
        return make_job(
            dfg,
            PolicySpec.of("apt", alpha=2.0),
            system,
            lookup,
            dynamics=dynamics,
        )

    def test_dynamics_enter_the_cache_key(self, lookup):
        plain = self.make_jobs(lookup, None)
        faulty = self.make_jobs(
            lookup, [DynamicsSpec.of("fault", mttf_ms=9000.0, mttr_ms=500.0)]
        )
        other = self.make_jobs(
            lookup, [DynamicsSpec.of("fault", mttf_ms=9000.0, mttr_ms=600.0)]
        )
        assert plain.content_hash() != faulty.content_hash()
        assert faulty.content_hash() != other.content_hash()

    def test_cross_process_determinism(self, lookup):
        from repro.experiments.sweep import (
            ProcessPoolExecutor,
            SerialExecutor,
            execute_payload,
        )

        job = self.make_jobs(
            lookup, [DynamicsSpec.of("fault", mttf_ms=9000.0, mttr_ms=500.0, seed=3)]
        )
        payloads = [job.runnable_payload()] * 2
        serial = SerialExecutor().run(payloads)
        assert serial[0] == serial[1]
        parallel = ProcessPoolExecutor(2).run(payloads)
        assert parallel == serial
        record = execute_payload(job.runnable_payload())
        assert record["dynamics"] == ["fault"]
        assert record["n_faults"] >= 0
        assert 0.0 < record["mean_availability"] <= 1.0

    def test_scenarios_registered(self):
        from repro.experiments.scenarios import available_scenarios, get_scenario

        names = available_scenarios()
        assert "faulty_edge_cluster" in names
        assert "preemptive_rt" in names
        faulty = get_scenario("faulty_edge_cluster")
        assert [d.kind for d in faulty.dynamics] == ["fault"]
        assert "dynamics : fault" in faulty.describe()
        rt = get_scenario("preemptive_rt")
        assert [d.kind for d in rt.dynamics] == ["preempt"]
        # round-trip with the dynamics stack intact
        from repro.experiments.scenarios import ScenarioSpec

        assert ScenarioSpec.from_dict(faulty.to_dict()) == faulty


class TestAbortDuringTransferLatency:
    """Regression: a kernel aborted and re-placed *inside* its contended
    transfer's route-latency window must not have the stale
    TRANSFER_START event join flows against the new attempt (the event
    carries the start token exactly so it can be recognized as stale)."""

    def build(self):
        from repro.core.lookup import LookupEntry, LookupTable

        size = 1_000_000
        entries = []
        for kernel, (cpu, gpu) in {
            "k_a": (100.0, 10.0),   # k0: runs on gpu0, 10 ms
            "k_b": (12.0, 100.0),   # k2: runs on cpu1, 12 ms
            "k_c": (10.0, 100.0),   # k1: transfer target
            "k_d": (100.0, 100.0),  # k3: decoy keeping the ready set alive
        }.items():
            entries.append(LookupEntry(kernel, size, ProcessorType.CPU, cpu))
            entries.append(LookupEntry(kernel, size, ProcessorType.GPU, gpu))
        lookup = LookupTable(entries)

        from repro.graphs.dfg import DFG, KernelSpec

        dfg = DFG("abort_window")
        k0 = dfg.add_kernel(KernelSpec("k_a", size))
        k1 = dfg.add_kernel(KernelSpec("k_c", size))
        k2 = dfg.add_kernel(KernelSpec("k_b", size))
        k3 = dfg.add_kernel(KernelSpec("k_d", size))
        dfg.add_dependencies([(k0, k1)])

        procs = [
            Processor("cpu0", ProcessorType.CPU),
            Processor("cpu1", ProcessorType.CPU),
            Processor("gpu0", ProcessorType.GPU),
        ]
        # 5 ms per bus edge → 10 ms route latency: k2's completion at
        # t=12 lands inside k1's transfer-latency window [10, 20]
        system = SystemConfig(
            procs,
            topology=bus_topology(
                [p.name for p in procs], bus_gbps=1.0, latency_ms=5.0, contention=True
            ),
        )
        return system, lookup, dfg, (k0, k1, k2, k3)

    def test_stale_transfer_start_is_ignored(self):
        from repro.policies.base import Assignment, DynamicPolicy

        system, lookup, dfg, (k0, k1, k2, k3) = self.build()

        class ScriptedPreemptor(DynamicPolicy):
            name = "scripted"

            def reset(self):
                self.preempted = False

            def select(self, ctx):
                out, taken = [], set()
                for kid in ctx.ready:
                    if kid == k0:
                        target = "gpu0"
                    elif kid == k2:
                        target = "cpu1"
                    elif kid == k1:
                        target = "cpu1" if self.preempted else "cpu0"
                    else:  # decoy: held back until the preemption fired
                        target = "gpu0" if self.preempted else None
                    if (
                        target
                        and target not in taken
                        and ctx.views[target].idle
                    ):
                        taken.add(target)
                        out.append(Assignment(kernel_id=kid, processor=target))
                return out

            def preempt(self, ctx):
                if not self.preempted and ctx.views["cpu0"].running_kernel == k1:
                    self.preempted = True
                    return ["cpu0"]
                return []

        policy = ScriptedPreemptor()
        sim = Simulator(
            system,
            lookup,
            dynamics=[DynamicsSpec.of("preempt", penalty_ms=1.0)],
        )
        result = sim.run(dfg, policy)
        assert policy.preempted
        assert result.dynamics_stats["preemption"]["n_preemptions"] == 1
        entries = {e.kernel_id: e for e in result.schedule}
        assert set(entries) == {k0, k1, k2, k3}
        # the preempted kernel migrated and still paid its full transfer
        # (2 × 5 ms edge latency + 4 ms drain) on the second attempt —
        # the stale first-attempt TRANSFER_START joined nothing
        assert entries[k1].processor == "cpu1"
        assert entries[k1].transfer_time == pytest.approx(14.0)

    def test_stale_transfer_complete_cannot_finish_new_attempt(self):
        # Zero-latency variant: the first attempt's flow is already
        # DRAINING when the abort lands, and the re-placed attempt joins
        # a new flow over the same (kid, src) pair immediately.  The
        # first attempt's queued TRANSFER_COMPLETE must not complete the
        # new flow early — flow keys carry the start token exactly so
        # the stale event cannot match.
        from repro.core.lookup import LookupEntry, LookupTable
        from repro.graphs.dfg import DFG, KernelSpec
        from repro.policies.base import Assignment, DynamicPolicy

        size = 1_000_000
        entries = []
        for kernel, (cpu, gpu) in {
            "k_a": (100.0, 10.0),   # k0: gpu0, 10 ms
            "k_b": (12.0, 100.0),   # k2: cpu2, 12 ms — boundary mid-drain
            "k_c": (10.0, 100.0),   # k1: the aborted transfer target
            "k_d": (100.0, 100.0),  # k3: decoy
        }.items():
            entries.append(LookupEntry(kernel, size, ProcessorType.CPU, cpu))
            entries.append(LookupEntry(kernel, size, ProcessorType.GPU, gpu))
        lookup = LookupTable(entries)

        dfg = DFG("abort_drain")
        k0 = dfg.add_kernel(KernelSpec("k_a", size))
        k1 = dfg.add_kernel(KernelSpec("k_c", size))
        k2 = dfg.add_kernel(KernelSpec("k_b", size))
        k3 = dfg.add_kernel(KernelSpec("k_d", size))
        dfg.add_dependencies([(k0, k1)])

        procs = [
            Processor("cpu0", ProcessorType.CPU),
            Processor("cpu1", ProcessorType.CPU),
            Processor("cpu2", ProcessorType.CPU),
            Processor("gpu0", ProcessorType.GPU),
        ]
        # zero latency: flows join the instant the kernel starts; k1's
        # first attempt drains over [10, 14], k2's completion at t=12
        # lands mid-drain
        system = SystemConfig(
            procs,
            topology=bus_topology(
                [p.name for p in procs], bus_gbps=1.0, latency_ms=0.0, contention=True
            ),
        )

        class DrainPreemptor(DynamicPolicy):
            name = "drain_preemptor"

            def reset(self):
                self.preempted = False

            def select(self, ctx):
                out, taken = [], set()
                for kid in ctx.ready:
                    if kid == k0:
                        target = "gpu0"
                    elif kid == k2:
                        target = "cpu2"
                    elif kid == k1:
                        target = "cpu1" if self.preempted else "cpu0"
                    else:
                        target = "gpu0" if self.preempted else None
                    if target and target not in taken and ctx.views[target].idle:
                        taken.add(target)
                        out.append(Assignment(kernel_id=kid, processor=target))
                return out

            def preempt(self, ctx):
                if not self.preempted and ctx.views["cpu0"].running_kernel == k1:
                    self.preempted = True
                    return ["cpu0"]
                return []

        policy = DrainPreemptor()
        sim = Simulator(
            system,
            lookup,
            dynamics=[DynamicsSpec.of("preempt", penalty_ms=1.0)],
        )
        result = sim.run(dfg, policy)
        assert policy.preempted
        entries_by_id = {e.kernel_id: e for e in result.schedule}
        k1_entry = entries_by_id[k1]
        assert k1_entry.processor == "cpu1"
        # the re-issued transfer pays its full 4 ms drain from t=12: the
        # first attempt's completion event at t=14 must not cut it short
        assert k1_entry.transfer_start == pytest.approx(12.0)
        assert k1_entry.exec_start == pytest.approx(16.0)
        assert k1_entry.transfer_time == pytest.approx(4.0)
