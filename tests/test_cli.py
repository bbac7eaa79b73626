"""Tests for the command-line interface (driven through main(argv))."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.scenarios import available_scenarios

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "results"


def run_cli(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestSimulate:
    def test_basic_run_prints_metrics(self, capsys):
        out = run_cli(capsys, "simulate", "--policy", "met", "--kernels", "10")
        assert "makespan" in out
        assert "lambda" in out

    def test_gantt_flag(self, capsys):
        out = run_cli(capsys, "simulate", "--kernels", "10", "--gantt")
        assert "cpu0" in out and "█" in out

    def test_apt_alpha_forwarded(self, capsys):
        out = run_cli(
            capsys, "simulate", "--policy", "apt", "--alpha", "16",
            "--kernels", "13", "--dfg-type", "2",
        )
        assert "policy   : apt" in out


class TestFigure5:
    def test_exact_published_numbers(self, capsys):
        out = run_cli(capsys, "figure5")
        assert "318.093" in out
        assert "212.093" in out


class TestTablesAndFigures:
    def test_table_8(self, capsys):
        out = run_cli(capsys, "table", "8")
        assert "Table 8" in out and "APT" in out

    def test_table_13(self, capsys):
        out = run_cli(capsys, "table", "13")
        assert "Improvement" in out

    def test_figure_7(self, capsys):
        out = run_cli(capsys, "figure", "7")
        assert "alpha=4" in out

    def test_unknown_table_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["table", "99"])


class TestCompareAndSweep:
    def test_compare_lists_all_policies(self, capsys):
        out = run_cli(capsys, "compare", "--dfg-type", "1")
        for name in ("APT", "MET", "SPN", "SS", "AG", "HEFT", "PEFT"):
            assert name in out

    def test_sweep_lambda_metric(self, capsys):
        out = run_cli(capsys, "sweep", "--dfg-type", "2", "--metric", "lambda")
        assert "λ" in out or "lambda" in out.lower()


class TestExtension:
    def test_energy_study(self, capsys):
        out = run_cli(capsys, "extension", "energy")
        assert "EDP" in out

    def test_unknown_study_rejected(self):
        with pytest.raises(SystemExit):
            main(["extension", "bogus"])


class TestScenario:
    def test_list_names_the_catalog(self, capsys):
        out = run_cli(capsys, "scenario", "list")
        for name in ("paper_type1", "dual_socket_tree", "edge_cluster_bus",
                     "nvlink_mesh", "fat_tree_streaming"):
            assert name in out

    def test_show_renders_the_spec(self, capsys):
        out = run_cli(capsys, "scenario", "show", "edge_cluster_bus")
        assert "edge_cluster_bus" in out
        assert "Topology" in out and "bus" in out

    def test_show_json_round_trips(self, capsys):
        from repro.experiments.scenarios import ScenarioSpec, get_scenario

        out = run_cli(capsys, "scenario", "show", "nvlink_mesh", "--json")
        assert ScenarioSpec.from_dict(json.loads(out)) == get_scenario("nvlink_mesh")

    def test_show_requires_exactly_one_name(self, capsys):
        assert main(["scenario", "show"]) == 2

    def test_show_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            main(["scenario", "show", "bogus"])

    def test_run_records_results(self, capsys, tmp_path):
        out = run_cli(
            capsys, "scenario", "run", "edge_cluster_bus",
            "--results-dir", str(tmp_path),
        )
        assert "Scenario edge_cluster_bus" in out
        recorded = (tmp_path / "scenario_edge_cluster_bus.txt").read_text()
        assert "APT" in recorded

    def test_run_several_scenarios_in_one_batch(self, capsys, tmp_path):
        out = run_cli(
            capsys, "scenario", "run", "edge_cluster_bus", "nvlink_mesh",
            "--results-dir", str(tmp_path),
        )
        assert out.index("Scenario edge_cluster_bus") < out.index("Scenario nvlink_mesh")
        for name in ("edge_cluster_bus", "nvlink_mesh"):
            recorded = (tmp_path / f"scenario_{name}.txt").read_text()
            assert recorded in out

    def test_run_with_dynamics_override(self, capsys, tmp_path):
        # inject a fault profile into a scenario that ships without one
        out = run_cli(
            capsys, "scenario", "run", "dual_socket_tree",
            "--dynamics", "fault:mttf_ms=30000,mttr_ms=1500,seed=3",
            "--results-dir", str(tmp_path),
        )
        assert "Avail (%)" in out and "Faults" in out
        # overridden runs record beside, never over, the canonical artifact
        assert not (tmp_path / "scenario_dual_socket_tree.txt").exists()
        recorded = (tmp_path / "scenario_dual_socket_tree_override.txt").read_text()
        assert "Avail (%)" in recorded

    def test_run_with_dynamics_none_clears_stack(self, capsys, tmp_path):
        out = run_cli(
            capsys, "scenario", "run", "faulty_edge_cluster",
            "--dynamics", "none",
            "--results-dir", str(tmp_path),
        )
        assert "Avail (%)" not in out

    def test_bad_dynamics_spec_is_a_usage_error(self, capsys):
        assert main([
            "scenario", "run", "paper_type1", "--dynamics", "warp:speed=9",
        ]) == 2
        assert "bad --dynamics spec" in capsys.readouterr().err

    def test_run_honours_engine_flags(self, capsys, tmp_path):
        # --workers with --cache-dir: second run must simulate nothing.
        cache = tmp_path / "cache"
        run_cli(
            capsys, "scenario", "run", "edge_cluster_bus",
            "--results-dir", str(tmp_path), "--workers", "2",
            "--cache-dir", str(cache),
        )
        assert any(cache.glob("*.json"))
        out = run_cli(
            capsys, "scenario", "run", "edge_cluster_bus",
            "--results-dir", str(tmp_path), "--cache-dir", str(cache),
        )
        assert "Scenario edge_cluster_bus" in out

    def test_every_scenario_reproduces_its_committed_table(self, capsys, tmp_path):
        # simulated afresh: preemptive_rt is the one artifact in which
        # preemptive APT-RT reads processors' free_at
        run_cli(capsys, "scenario", "run", "--no-cache", "--results-dir", str(tmp_path))
        names = available_scenarios()
        assert {p.name for p in tmp_path.iterdir()} == {
            f"scenario_{name}.txt" for name in names
        }
        for name in names:
            written = (tmp_path / f"scenario_{name}.txt").read_bytes()
            assert written == (RESULTS / f"scenario_{name}.txt").read_bytes(), name


class TestEngineFlags:
    """--workers / --no-cache combinations on the sweep-shaped commands."""

    def test_compare_with_workers_matches_serial(self, capsys):
        serial = run_cli(capsys, "compare", "--dfg-type", "1")
        parallel = run_cli(capsys, "compare", "--dfg-type", "1", "--workers", "2")
        assert parallel == serial

    def test_no_cache_still_produces_the_table(self, capsys):
        out = run_cli(capsys, "table", "8", "--no-cache")
        assert "Table 8" in out

    def test_no_cache_with_cache_dir_writes_nothing(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        out = run_cli(
            capsys, "table", "8", "--no-cache", "--cache-dir", str(cache),
        )
        assert "Table 8" in out
        assert not cache.exists() or not any(cache.glob("*.json"))

    def test_workers_zero_means_all_cores(self, capsys):
        out = run_cli(capsys, "table", "13", "--workers", "0")
        assert "Improvement" in out


class TestCalibrate:
    def test_writes_lookup_json(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        out = run_cli(
            capsys, "calibrate", str(path), "--max-side", "32", "--repeats", "1"
        )
        assert "wrote" in out
        records = json.loads(path.read_text())
        assert any(r["kernel"] == "matmul" for r in records)


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_policy_exits(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--policy", "bogus"])

    def test_parser_is_built_once(self, capsys, monkeypatch):
        import argparse

        built: list[argparse.ArgumentParser] = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if self.prog == "apt-sched":
                built.append(self)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        run_cli(capsys, "scenario", "list")
        run_cli(capsys, "scenario", "list")
        assert len(built) <= 1  # none if an earlier call built it

    def test_reused_parser_keeps_no_state(self):
        from repro.cli import _build_parser

        argv = ["submit", "--scenario", "paper_type1"]
        first = _build_parser().parse_args([*argv, "--setting", "a=1"])
        second = _build_parser().parse_args(argv)
        assert first.setting == ["a=1"]
        assert second.setting == []


class TestLoadSweep:
    def test_load_sweep_writes_curves(self, capsys, tmp_path):
        out = run_cli(
            capsys,
            "load-sweep",
            "--policies", "apt,met",
            "--rates-per-s", "0.5,2",
            "--apps", "6",
            "--results-dir", str(tmp_path),
        )
        assert "Load sweep" in out
        assert "Throughput (apps/s)" in out
        text = (tmp_path / "load_sweep_poisson.txt").read_text()
        # one row per (policy, rate)
        assert text.count("APT") == 2 and text.count("MET") == 2

    def test_load_sweep_profiles(self, capsys, tmp_path):
        run_cli(
            capsys,
            "load-sweep",
            "--policies", "met",
            "--rates-per-s", "1",
            "--apps", "4",
            "--profile", "burst",
            "--results-dir", str(tmp_path),
        )
        assert (tmp_path / "load_sweep_burst.txt").exists()

    def test_load_sweep_engine_flags(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        run_cli(
            capsys,
            "load-sweep",
            "--policies", "met",
            "--rates-per-s", "1",
            "--apps", "4",
            "--cache-dir", str(cache),
            "--results-dir", str(tmp_path),
        )
        assert any(cache.glob("*.json"))

    def test_bad_rates_rejected(self, capsys, tmp_path):
        assert main(
            [
                "load-sweep",
                "--rates-per-s", "fast",
                "--results-dir", str(tmp_path),
            ]
        ) == 2

    def test_static_policy_rejected(self, capsys, tmp_path):
        from repro.experiments.load_sweep import load_sweep

        with pytest.raises(ValueError, match="dynamic policies only"):
            load_sweep(policies=("heft",), rates_per_s=(1.0,), n_applications=4)


def run_python(*argv: str) -> str:
    """Run ``python argv...`` in a fresh process from the repository root."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestCheckCommand:
    """Every CLI process registers the arguments of ``check``; only
    running the checks loads the rule machinery."""

    FLAGS = ("--root", "--gates", "--rules", "--format", "--update-fingerprint", "--list-rules")

    def test_other_commands_leave_the_rules_unloaded(self):
        out = run_python(
            "-c",
            "import sys\n"
            "from repro.cli import main\n"
            "main(['figure5'])\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.checks')))",
        )
        assert "318.093" in out
        assert out.splitlines()[-1] == "['repro.checks', 'repro.checks.runner']"

    def test_check_help_lists_every_flag(self):
        out = run_python("-m", "repro", "check", "--help")
        assert out.startswith("usage: apt-sched check")
        for flag in self.FLAGS:
            assert flag in out

    def test_run_checks_lists_the_catalog(self):
        from repro.checks.rules import ALL_RULES

        out = run_python("tools/run_checks.py", "--list-rules")
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == [rule.id for rule in ALL_RULES] + ["module-size", "docs-example"]
