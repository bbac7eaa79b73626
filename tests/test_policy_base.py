"""Unit tests for the policy interface layer (context helpers, StaticPlan)."""

import pytest

from repro.policies.base import (
    Assignment,
    DynamicPolicy,
    ProcessorView,
    SchedulingContext,
    StaticPlan,
)
from repro.core.cost import CostModel
from repro.core.system import ProcessorType
from tests.test_simulator import dfg_of


class ContextCapture(DynamicPolicy):
    """Records what its first context shows, then behaves like OLB.

    The engine's context is live and follows the run, so everything is
    read inside ``select``, not after the run.
    """

    name = "capture"

    def __init__(self):
        self.first: dict[str, object] | None = None

    def reset(self):
        self.first = None

    def select(self, ctx):
        if self.first is None:
            self.first = {
                "ready": ctx.ready,
                "n_idle": len(ctx.idle_processors()),
                "exec_time": ctx.exec_time(0, ProcessorType.CPU),
                "exec_time_on": ctx.exec_time_on(0, "cpu0"),
                "best_processor_type": ctx.best_processor_type(1),
                "data_bytes": ctx.data_bytes(0),
                "transfer_time": ctx.transfer_time(0, "fpga0"),
            }
        out = []
        idle = [v.name for v in ctx.idle_processors()]
        for kid in ctx.ready:
            if not idle:
                break
            out.append(Assignment(kernel_id=kid, processor=idle.pop(0)))
        return out


class TestSchedulingContext:
    @pytest.fixture
    def captured(self, synth_sim):
        dfg = dfg_of("fast_cpu", "fast_gpu", "uniform", deps=[(0, 2)])
        policy = ContextCapture()
        synth_sim.run(dfg, policy)
        return policy.first

    def test_initial_ready_set_is_entry_kernels(self, captured):
        assert captured["ready"] == (0, 1)

    def test_all_processors_initially_idle(self, captured):
        assert captured["n_idle"] == 3

    def test_exec_time_helpers_agree(self, captured):
        assert captured["exec_time"] == captured["exec_time_on"] == 10.0

    def test_best_processor_type(self, captured):
        ptype, x = captured["best_processor_type"]
        assert ptype is ProcessorType.GPU and x == 10.0

    def test_data_bytes_uses_element_size(self, captured):
        assert captured["data_bytes"] == 1_000_000 * 4

    def test_transfer_time_zero_without_predecessors(self, captured):
        assert captured["transfer_time"] == 0.0

    def test_an_empty_live_mapping_stays_live(self, system, synth_lookup):
        # a context is a view: mappings it is given are kept, even empty
        views, assignment_of, exec_history = {}, {}, {}
        ctx = SchedulingContext(
            time=0.0,
            ready=(),
            dfg=dfg_of("fast_cpu"),
            system=system,
            cost=CostModel(system, synth_lookup),
            views=views,
            assignment_of=assignment_of,
            exec_history=exec_history,
        )
        assignment_of[3] = "gpu0"
        exec_history["gpu0"] = [1.0]
        views["gpu0"] = ProcessorView(system["gpu0"], False, 0.0, 0, None)
        assert ctx.assignment_of is assignment_of and ctx.assignment_of[3] == "gpu0"
        assert ctx.exec_history is exec_history and ctx.exec_history["gpu0"] == [1.0]
        assert ctx.views is views and ctx.views["gpu0"].idle

    def test_mappings_default_to_empty(self, system, synth_lookup):
        ctx = SchedulingContext(
            time=0.0,
            ready=(),
            dfg=dfg_of("fast_cpu"),
            system=system,
            cost=CostModel(system, synth_lookup),
        )
        assert ctx.views == ctx.assignment_of == ctx.exec_history == {}


class TestStaticPlan:
    def test_validate_accepts_complete_plan(self, system):
        dfg = dfg_of("fast_cpu", "fast_gpu")
        plan = StaticPlan(
            processor_of={0: "cpu0", 1: "gpu0"}, priority={0: 0, 1: 1}
        )
        plan.validate(dfg, system)

    def test_validate_rejects_missing_kernel(self, system):
        dfg = dfg_of("fast_cpu", "fast_gpu")
        plan = StaticPlan(processor_of={0: "cpu0"}, priority={0: 0})
        with pytest.raises(ValueError, match="every kernel"):
            plan.validate(dfg, system)

    def test_validate_rejects_unknown_processor(self, system):
        dfg = dfg_of("fast_cpu")
        plan = StaticPlan(processor_of={0: "tpu9"}, priority={0: 0})
        with pytest.raises(ValueError, match="unknown processor"):
            plan.validate(dfg, system)

    def test_validate_rejects_duplicate_priorities(self, system):
        dfg = dfg_of("fast_cpu", "fast_gpu")
        plan = StaticPlan(
            processor_of={0: "cpu0", 1: "gpu0"}, priority={0: 0, 1: 0}
        )
        with pytest.raises(ValueError, match="unique"):
            plan.validate(dfg, system)

    def test_validate_rejects_missing_priority(self, system):
        dfg = dfg_of("fast_cpu", "fast_gpu")
        plan = StaticPlan(
            processor_of={0: "cpu0", 1: "gpu0"}, priority={0: 0}
        )
        with pytest.raises(ValueError, match="rank"):
            plan.validate(dfg, system)


class TestProcessorView:
    def test_views_reflect_busy_state(self, synth_sim):
        seen = {}

        class Snoop(DynamicPolicy):
            name = "snoop"

            def select(self, ctx):
                out = []
                idle = [v.name for v in ctx.idle_processors()]
                if ctx.time > 0 and not seen:
                    seen.update(ctx.views)
                for kid in ctx.ready:
                    if not idle:
                        break
                    out.append(Assignment(kernel_id=kid, processor=idle.pop(0)))
                return out

        dfg = dfg_of("fast_cpu", "fast_cpu", "fast_cpu", "fast_cpu")
        synth_sim.run(dfg, Snoop())
        # At the first post-zero decision point, at least one processor is
        # still busy (the 100ms fast_cpu-on-gpu run) and reports free_at.
        busy = [v for v in seen.values() if v.busy]
        assert busy and all(v.free_at > 0 for v in busy)


class TestFreeAt:
    """``ctx.free_at`` clamps a view's ``free_at`` to the clock."""

    @pytest.fixture
    def ctx(self, system, synth_lookup):
        def view(name, busy, free_at, running):
            return ProcessorView(
                processor=system[name],
                busy=busy,
                free_at=free_at,
                queue_length=0,
                running_kernel=running,
            )

        return SchedulingContext(
            time=50.0,
            ready=(),
            dfg=dfg_of("fast_cpu"),
            system=system,
            cost=CostModel(system, synth_lookup),
            views={
                # idle since t=20
                "cpu0": view("cpu0", False, 20.0, None),
                # running until t=80
                "gpu0": view("gpu0", True, 80.0, 7),
                # running, with an estimate a contended transfer outlasted
                "fpga0": view("fpga0", True, 40.0, 8),
            },
        )

    def test_idle_view_in_the_past_starts_now(self, ctx):
        assert ctx.views["cpu0"].idle
        assert ctx.free_at("cpu0") == 50.0

    def test_busy_view_reports_its_own_free_at(self, ctx):
        assert ctx.free_at("gpu0") == 80.0

    def test_running_view_estimated_before_now_returns_now(self, ctx):
        assert not ctx.views["fpga0"].idle
        assert ctx.free_at("fpga0") == 50.0
