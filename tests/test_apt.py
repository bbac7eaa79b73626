"""Behavioural tests for APT — the paper's contribution.

Includes the exact reproduction of the paper's Figure 5 example, the
only published experiment with fully-specified inputs.
"""

import pytest

from repro.core.simulator import Simulator
from repro.core.trace import StateTrace
from repro.policies.apt import APT
from repro.policies.met import MET
from tests.test_simulator import dfg_of


class TestConstruction:
    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError):
            APT(alpha=0.99)

    def test_alpha_one_allowed(self):
        assert APT(alpha=1.0).alpha == 1.0

    def test_repr_mentions_alpha(self):
        assert "4.0" in repr(APT(alpha=4.0))


class TestFigure5Exact:
    """The published MET/APT example must match to the millisecond."""

    @pytest.fixture
    def sim(self, system, fig5_lookup):
        return Simulator(system, fig5_lookup, transfers_enabled=False)

    def test_met_end_time(self, sim, fig5_dfg):
        assert sim.run(fig5_dfg, MET()).makespan == pytest.approx(318.093)

    def test_apt_end_time(self, sim, fig5_dfg):
        assert sim.run(fig5_dfg, APT(alpha=8.0)).makespan == pytest.approx(212.093)

    def test_apt_initial_allocation(self, sim, fig5_dfg, system):
        # Paper Figure 5 first row: CPU:0-nw  GPU:2-bfs  FPGA:1-bfs at 0.0.
        result = sim.run(fig5_dfg, APT(alpha=8.0))
        occ = StateTrace.from_schedule(result.schedule, system).occupancy_at(0.0)
        assert occ == {"cpu0": "0-nw", "gpu0": "2-bfs", "fpga0": "1-bfs"}

    def test_apt_second_row_after_106(self, sim, fig5_dfg, system):
        # Row 2: kernel 3 (bfs) goes to the freed FPGA at t=106.
        result = sim.run(fig5_dfg, APT(alpha=8.0))
        occ = StateTrace.from_schedule(result.schedule, system).occupancy_at(106.0)
        assert occ["fpga0"] == "3-bfs"

    def test_met_keeps_gpu_idle_throughout(self, sim, fig5_dfg):
        result = sim.run(fig5_dfg, MET())
        assert all(e.processor != "gpu0" for e in result.schedule)

    def test_apt_diverts_exactly_one_bfs_to_gpu(self, sim, fig5_dfg):
        result = sim.run(fig5_dfg, APT(alpha=8.0))
        gpu_entries = [e for e in result.schedule if e.processor == "gpu0"]
        assert len(gpu_entries) == 1
        assert gpu_entries[0].kernel == "bfs"
        assert gpu_entries[0].used_alternative

    def test_cholesky_waits_despite_idle_processors(self, sim, fig5_dfg):
        # threshold = 8 × 0.093 ms is far below CPU (17.064) and GPU
        # (2.749) times, so the cd kernel must wait for the FPGA.
        result = sim.run(fig5_dfg, APT(alpha=8.0))
        cd = result.schedule[4]
        assert cd.processor == "fpga0"
        assert cd.exec_start == pytest.approx(212.0)


class TestThresholdSemantics:
    def test_alpha_large_uses_alternative(self, synth_sim_no_transfer):
        # Two fast_gpu kernels (gpu 10, fpga 50): α=5 ⇒ threshold 50 ⇒
        # the FPGA (50 ≤ 50) qualifies as the alternative.
        dfg = dfg_of("fast_gpu", "fast_gpu")
        result = synth_sim_no_transfer.run(dfg, APT(alpha=5.0))
        procs = {e.processor for e in result.schedule}
        assert procs == {"gpu0", "fpga0"}
        assert result.makespan == pytest.approx(50.0)

    def test_threshold_is_inclusive(self, synth_sim_no_transfer):
        # exec == threshold exactly still qualifies (<= in the definition).
        dfg = dfg_of("fast_gpu", "fast_gpu")
        result = synth_sim_no_transfer.run(dfg, APT(alpha=5.0))
        assert sum(e.used_alternative for e in result.schedule) == 1

    def test_just_below_threshold_waits(self, synth_sim_no_transfer):
        # α=4.9 ⇒ threshold 49 < FPGA's 50 ⇒ MET behaviour (wait).
        dfg = dfg_of("fast_gpu", "fast_gpu")
        result = synth_sim_no_transfer.run(dfg, APT(alpha=4.9))
        assert all(e.processor == "gpu0" for e in result.schedule)
        assert result.makespan == pytest.approx(20.0)

    def test_alternative_picks_cheapest_qualifier(self, synth_sim_no_transfer):
        # fast_gpu: cpu=100, fpga=50; α=10 admits both, FPGA is cheaper.
        dfg = dfg_of("fast_gpu", "fast_gpu")
        result = synth_sim_no_transfer.run(dfg, APT(alpha=10.0))
        alt = [e for e in result.schedule if e.used_alternative]
        assert [e.processor for e in alt] == ["fpga0"]

    def test_transfer_counts_against_threshold(self, system, synth_lookup):
        # Chain: fast_cpu(cpu) → two fast_gpu.  Second fast_gpu sees GPU
        # busy; FPGA costs 50 exec + 1 transfer = 51 > α·10 for α=5
        # (inclusive at 50), so with transfers enabled it must wait...
        sim = Simulator(system, synth_lookup)
        dfg = dfg_of("fast_cpu", "fast_gpu", "fast_gpu", deps=[(0, 1), (0, 2)])
        result = sim.run(dfg, APT(alpha=5.0))
        assert all(e.processor != "fpga0" for e in result.schedule)
        # ... while the ablation knob that ignores transfer admits the FPGA.
        result2 = sim.run(dfg, APT(alpha=5.0, include_transfer=False))
        assert any(e.processor == "fpga0" for e in result2.schedule)


class TestMETEquivalence:
    def test_alpha_one_matches_met_schedules(self, synth_sim):
        dfg = dfg_of(
            "fast_cpu", "fast_gpu", "fast_gpu", "fast_fpga", "uniform",
            deps=[(0, 4), (1, 4)],
        )
        apt = synth_sim.run(dfg, APT(alpha=1.0))
        met = synth_sim.run(dfg, MET())
        assert [(e.kernel_id, e.processor) for e in apt.schedule] == [
            (e.kernel_id, e.processor) for e in met.schedule
        ]
        assert apt.makespan == pytest.approx(met.makespan)

    def test_alpha_one_never_uses_alternative_with_heterogeneous_kernels(
        self, synth_sim
    ):
        dfg = dfg_of("fast_cpu", "fast_gpu", "fast_gpu", "fast_fpga")
        result = synth_sim.run(dfg, APT(alpha=1.0))
        assert result.metrics.n_alternative_assignments == 0


class TestStats:
    def test_alternative_counts_by_kernel(self, synth_sim_no_transfer):
        dfg = dfg_of("fast_gpu", "fast_gpu", "fast_gpu")
        policy = APT(alpha=10.0)
        result = synth_sim_no_transfer.run(dfg, policy)
        stats = result.policy_stats
        assert stats["alternative_assignments"] >= 1
        assert "fast_gpu" in stats["alternative_by_kernel"]

    def test_stats_reset_between_runs(self, synth_sim_no_transfer):
        dfg = dfg_of("fast_gpu", "fast_gpu")
        policy = APT(alpha=10.0)
        synth_sim_no_transfer.run(dfg, policy)
        first = policy.stats()["alternative_assignments"]
        synth_sim_no_transfer.run(dfg, policy)
        assert policy.stats()["alternative_assignments"] == first

    def test_schedule_entries_flag_alternatives(self, synth_sim_no_transfer):
        dfg = dfg_of("fast_gpu", "fast_gpu")
        result = synth_sim_no_transfer.run(dfg, APT(alpha=10.0))
        n_alt = sum(e.used_alternative for e in result.schedule)
        assert n_alt == result.metrics.n_alternative_assignments == 1
