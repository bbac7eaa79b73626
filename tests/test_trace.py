"""Unit tests for state traces (the Figure 5 view)."""

import pytest

from repro.core.simulator import Simulator
from repro.core.trace import StateTrace
from repro.policies.met import MET
from tests.test_simulator import dfg_of


class TestStateTrace:
    @pytest.fixture
    def trace(self, system, synth_lookup):
        sim = Simulator(system, synth_lookup)
        result = sim.run(dfg_of("fast_cpu", "fast_gpu"), MET())
        return StateTrace.from_schedule(result.schedule, system)

    def test_snapshot_at_time_zero_shows_both_running(self, trace):
        occ = trace.occupancy_at(0.0)
        assert occ["cpu0"] == "0-fast_cpu"
        assert occ["gpu0"] == "1-fast_gpu"
        assert occ["fpga0"] is None

    def test_final_snapshot_is_all_idle(self, trace):
        last = trace.snapshots[-1]
        assert all(v is None for v in last.occupancy.values())

    def test_format_contains_idle_and_kernels(self, trace, system):
        text = trace.format(system)
        assert "idle" in text
        assert "0-fast_cpu" in text

    def test_occupancy_before_first_snapshot_raises(self, trace):
        with pytest.raises(ValueError):
            trace.occupancy_at(-1.0)

    def test_every_kernel_occupies_its_processor_while_it_runs(
        self, system, synth_lookup
    ):
        dfg = dfg_of("fast_cpu", "fast_gpu", "fast_fpga", deps=[(0, 2), (1, 2)])
        result = Simulator(system, synth_lookup).run(dfg, MET())
        trace = StateTrace.from_schedule(result.schedule, system)
        for entry in result.schedule:
            label = f"{entry.kernel_id}-{entry.kernel}"
            assert trace.occupancy_at(entry.transfer_start)[entry.processor] == label
            assert trace.occupancy_at(entry.finish_time)[entry.processor] != label

    def test_snapshot_count_bounded_by_events(self, trace):
        # one snapshot per distinct start/finish instant
        assert 2 <= len(trace) <= 4
