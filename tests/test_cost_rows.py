"""Per-kernel cost rows and the one live scheduling context.

A kernel's lookup-table prices are fixed for the run by its cost class
``(kernel, data_size)``: :meth:`CostModel.cost_row` files them once per
class, admission files each kernel's row beside its spec, and the
engine, the context helpers, APT, MET, SPN and SS read the row.  These
tests pin

* every row against :meth:`CostModel.exec_time` and
  :meth:`CostModel.best_processor`, bit for bit, on three systems;
* one shared row object per class, and the engine's row table tracking
  its spec table through admission and retirement;
* SPN and SS, which score only the first ready kernel of each distinct
  row, against their per-kernel loops kept here as oracles;
* the engine's one context per run: refreshed at every ask, with the
  clock and the FCFS ready set of that ask.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import CostModel, CostRow
from repro.core.dynamics import DynamicsSpec, RetirementDynamics, StreamAdmission
from repro.core.engine import RuntimeDynamics
from repro.core.lookup import LookupEntry, LookupTable
from repro.core.simulator import Simulator
from repro.core.system import CPU_GPU_FPGA, Processor, ProcessorType, SystemConfig
from repro.core.topology import bus_topology
from repro.data.paper_tables import paper_lookup_table
from repro.experiments.workloads import (
    open_system_source,
    paper_suite,
    scale_system,
    streaming_scale_source,
)
from repro.graphs.dfg import DFG, KernelSpec
from repro.policies.apt import APT
from repro.policies.apt_rt import APT_RT
from repro.policies.base import Assignment, ProcessorView, SchedulingContext
from repro.policies.spn import SPN
from repro.policies.ss import SS, _population_stddev

CPU, GPU, FPGA = ProcessorType.CPU, ProcessorType.GPU, ProcessorType.FPGA
LOOKUP = paper_lookup_table()


def _bus_system() -> SystemConfig:
    # interleaved categories: a row follows declaration order, not category
    procs = [
        Processor("gpu0", GPU),
        Processor("cpu0", CPU),
        Processor("fpga0", FPGA),
        Processor("cpu1", CPU),
    ]
    return SystemConfig(
        procs, topology=bus_topology([p.name for p in procs], bus_gbps=1.0)
    )


SYSTEMS = {
    "cpu_gpu_fpga": CPU_GPU_FPGA,
    "scale_system": scale_system,
    "bus": _bus_system,
}


def _bits(x: float) -> str:
    return float.hex(x)


class _Recorder(RuntimeDynamics):
    """Hands the test the engine it is bound to."""

    name = "recorder"

    def __init__(self):
        self.engines = []

    def bind(self, engine):
        super().bind(engine)
        self.engines.append(engine)


# ----------------------------------------------------------------------
# rows
# ----------------------------------------------------------------------
class TestCostRows:
    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_every_row_is_exec_time_and_best_processor_bit_for_bit(self, name):
        system = SYSTEMS[name]()
        cost = CostModel(system, LOOKUP)
        # every measured size, plus interpolated and extrapolated ones
        for kernel in LOOKUP.kernels:
            sizes = LOOKUP.sizes_for(kernel)
            for size in (*sizes, sizes[0] // 2 + 1, sizes[-1] * 3, sizes[0] + 7):
                row = cost.cost_row(kernel, size)
                assert isinstance(row, CostRow) and len(row.times) == len(system)
                for t, proc in zip(row.times, system.processors):
                    assert _bits(t) == _bits(cost.exec_time(kernel, size, proc.ptype))
                    assert _bits(t) == _bits(LOOKUP.time(kernel, size, proc.ptype))
                best, x = LOOKUP.best_processor(kernel, size, system.processor_types())
                assert row.best_ptype is best and _bits(row.x) == _bits(x)
                assert cost.best_processor(kernel, size) == (best, x)
                for proc in system.processors:
                    i = system.index_by_name[proc.name]
                    assert system.processors[i] is proc

    def test_a_class_has_one_row_object(self):
        dfg = paper_suite(1)[0]
        recorder = _Recorder()
        Simulator(CPU_GPU_FPGA(), LOOKUP, dynamics=[recorder]).run(dfg, APT())
        (engine,) = recorder.engines
        by_class: dict[tuple[str, int], object] = {}
        for kid in dfg.kernel_ids():
            spec = dfg.spec(kid)
            row = engine.rows[kid]
            assert row is by_class.setdefault((spec.kernel, spec.data_size), row)
            assert row is engine.cost.cost_row(spec.kernel, spec.data_size)
        assert len({id(r) for r in by_class.values()}) == len(by_class)
        assert len(by_class) < len(dfg)  # classes really repeat

    def test_rows_track_specs_through_admission_and_retirement(self, monkeypatch):
        checks = {"admit": 0, "retire": 0}

        def checked(method, kind):
            def run(layer, *args):
                method(layer, *args)
                engine = layer.engine
                assert engine.rows.keys() == engine.specs.keys()
                checks[kind] += 1

            return run

        monkeypatch.setattr(
            StreamAdmission, "_admit", checked(StreamAdmission._admit, "admit")
        )
        monkeypatch.setattr(
            RetirementDynamics,
            "_retire",
            checked(RetirementDynamics._retire, "retire"),
        )
        source = streaming_scale_source(1200, seed=0, mean_interarrival_ms=300.0)
        result = Simulator(scale_system(), LOOKUP).run_stream(
            source, APT(), retain_schedule=False
        )
        assert result.stream.peak_resident_kernels > 200  # really saturated
        assert checks["admit"] == result.stream.n_applications
        assert checks["retire"] == result.stream.n_kernels


# ----------------------------------------------------------------------
# SPN and SS against their per-kernel loops
# ----------------------------------------------------------------------
def _exec_time_on(ctx: SchedulingContext, kid: int, name: str) -> float:
    """The per-kernel price the loops below were written against,
    straight from the cost model (no row)."""
    return ctx.exec_time(kid, ctx.system[name].ptype)


def oracle_spn(ctx: SchedulingContext) -> list[Assignment]:
    out: list[Assignment] = []
    ready = list(ctx.ready)
    idle = [v.name for v in ctx.idle_processors()]
    while ready and idle:
        best: tuple[float, int, str] | None = None
        for kid in ready:
            for name in idle:
                t = _exec_time_on(ctx, kid, name)
                if best is None or t < best[0]:
                    best = (t, kid, name)
        assert best is not None
        _, kid, name = best
        ready.remove(kid)
        idle.remove(name)
        out.append(Assignment(kernel_id=kid, processor=name))
    return out


def oracle_ss(ctx: SchedulingContext) -> list[Assignment]:
    out: list[Assignment] = []
    ready = list(ctx.ready)
    idle = [v.name for v in ctx.idle_processors()]
    while ready and idle:
        best_kid: int | None = None
        best_sd = -1.0
        for kid in ready:
            sd = _population_stddev([_exec_time_on(ctx, kid, n) for n in idle])
            if sd > best_sd:
                best_kid, best_sd = kid, sd
        assert best_kid is not None
        name = min(idle, key=lambda n: (_exec_time_on(ctx, best_kid, n), idle.index(n)))
        ready.remove(best_kid)
        idle.remove(name)
        out.append(Assignment(kernel_id=best_kid, processor=name))
    return out


#: five processors of three categories, two categories with two instances
ORACLE_SYSTEM = CPU_GPU_FPGA(n_cpu=2, n_gpu=2, n_fpga=1)
#: few distinct values, so different classes often price alike
TIMES = st.sampled_from((1.0, 2.0, 3.0, 0.5, 7.25))
CLASS_SIZE = 1000


@st.composite
def oracle_contexts(draw) -> SchedulingContext:
    n_classes = draw(st.integers(min_value=1, max_value=4))
    entries = [
        LookupEntry(f"k{c}", CLASS_SIZE, ptype, draw(TIMES))
        for c in range(n_classes)
        for ptype in (CPU, GPU, FPGA)
    ]
    classes = draw(
        st.lists(st.integers(min_value=0, max_value=n_classes - 1), min_size=1, max_size=12)
    )
    dfg = DFG.from_kernels(KernelSpec(f"k{c}", CLASS_SIZE) for c in classes)
    ready = draw(st.permutations(dfg.kernel_ids()))
    ready = ready[: draw(st.integers(min_value=1, max_value=len(ready)))]
    names = [p.name for p in ORACLE_SYSTEM]
    idle = draw(st.sets(st.sampled_from(names), min_size=1))
    views = {
        name: ProcessorView(
            ORACLE_SYSTEM[name],
            name not in idle,
            0.0,
            0,
            None if name in idle else 99,
        )
        for name in names
    }
    return SchedulingContext(
        time=0.0,
        ready=ready,
        dfg=dfg,
        system=ORACLE_SYSTEM,
        cost=CostModel(ORACLE_SYSTEM, LookupTable(entries)),
        views=views,
    )


class TestSpnSsAgainstPerKernelLoops:
    @settings(max_examples=300, deadline=None)
    @given(ctx=oracle_contexts())
    def test_spn(self, ctx):
        assert SPN().select(ctx) == oracle_spn(ctx)

    @settings(max_examples=300, deadline=None)
    @given(ctx=oracle_contexts())
    def test_ss(self, ctx):
        assert SS().select(ctx) == oracle_ss(ctx)

    def test_single_idle_processor_ties_every_spread_at_zero(self):
        # one idle processor: every standard deviation is 0, so SS takes
        # the FCFS-first kernel, whatever its class
        entries = [
            LookupEntry(k, CLASS_SIZE, p, t)
            for k, times in (("a", (1.0, 9.0, 4.0)), ("b", (2.0, 3.0, 8.0)))
            for p, t in zip((CPU, GPU, FPGA), times)
        ]
        dfg = DFG.from_kernels(KernelSpec(k, CLASS_SIZE) for k in "babab")
        views = {
            p.name: ProcessorView(p, p.name != "gpu1", 0.0, 0, None)
            for p in ORACLE_SYSTEM
        }
        ctx = SchedulingContext(
            time=0.0,
            ready=(3, 1, 0, 2, 4),
            dfg=dfg,
            system=ORACLE_SYSTEM,
            cost=CostModel(ORACLE_SYSTEM, LookupTable(entries)),
            views=views,
        )
        assert [v.name for v in ctx.idle_processors()] == ["gpu1"]
        assert SS().select(ctx) == oracle_ss(ctx) == [Assignment(3, "gpu1")]
        # SPN takes the FCFS-first kernel of the faster class on gpu1
        assert SPN().select(ctx) == oracle_spn(ctx) == [Assignment(0, "gpu1")]


# ----------------------------------------------------------------------
# the live context
# ----------------------------------------------------------------------
class _LiveContextCheck:
    """Checks, at every ask, that the context is the run's one object
    and shows the engine's clock and FCFS ready set."""

    def _check(self, ctx: SchedulingContext) -> None:
        engine = self.recorder.engines[-1]
        if self.ctx is None:
            self.ctx = ctx
        assert ctx is self.ctx
        assert ctx.time == engine.now
        assert ctx.ready == tuple(engine.ready)
        ready_times = [engine.ready_time[k] for k in ctx.ready]
        assert ready_times == sorted(ready_times)
        sibling = ctx.with_ready(tuple(reversed(ctx.ready)))
        assert sibling is not ctx and sibling.ready == tuple(reversed(ctx.ready))
        self.asks += 1


class LiveAPT(_LiveContextCheck, APT):
    def __init__(self, recorder):
        super().__init__(alpha=4.0)
        self.recorder, self.ctx, self.asks = recorder, None, 0

    def select(self, ctx):
        self._check(ctx)
        return super().select(ctx)


class LivePreemptiveAPT(_LiveContextCheck, APT_RT):
    def __init__(self, recorder):
        super().__init__(alpha=4.0, preemptive=True, preempt_factor=1.0)
        self.recorder, self.ctx, self.asks, self.observed = recorder, None, 0, 0

    def select(self, ctx):
        self._check(ctx)
        return super().select(ctx)

    def preempt(self, ctx):
        self._check(ctx)
        self.observed += 1
        return super().preempt(ctx)


class TestOneLiveContext:
    def test_batch_run(self):
        recorder = _Recorder()
        policy = LiveAPT(recorder)
        sim = Simulator(CPU_GPU_FPGA(), LOOKUP, dynamics=[recorder])
        for dfg in paper_suite(2)[:3]:
            policy.ctx = None  # one context per simulation
            sim.run(dfg, policy)
        assert len(recorder.engines) == 3
        assert policy.asks > 3 * 10

    def test_stream_with_preemption(self):
        recorder = _Recorder()
        policy = LivePreemptiveAPT(recorder)
        source = open_system_source(
            n_applications=12, seed=2017, profile="poisson", mean_interarrival_ms=3_000.0
        )
        result = Simulator(
            CPU_GPU_FPGA(),
            LOOKUP,
            dynamics=[recorder, DynamicsSpec.of("preempt", penalty_ms=1.0)],
        ).run_stream(source, policy)
        assert policy.observed > 0 and policy.asks > policy.observed
        assert result.dynamics_stats["preemption"]["n_preemptions"] > 0
        assert math.isfinite(result.metrics.makespan)
