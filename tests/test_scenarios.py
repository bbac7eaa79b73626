"""Tests for the declarative scenario registry (`repro.experiments.scenarios`)."""

import json

import pytest

from repro.core.simulator import Simulator
from repro.core.system import CPU_GPU_FPGA
from repro.data.paper_tables import paper_lookup_table
from repro.experiments.scenarios import (
    ScenarioSpec,
    WorkloadSpec,
    available_scenarios,
    get_scenario,
    register_scenario,
    run_scenario,
    run_scenarios,
)
from repro.experiments.sweep import PolicySpec, SweepEngine, system_to_dict
from repro.experiments.workloads import build_workload, paper_suite
from repro.policies.registry import get_policy

EXPECTED_CATALOG = {
    "paper_type1",
    "paper_type2",
    "dual_socket_tree",
    "nvlink_mesh",
    "edge_cluster_bus",
    "fat_tree_streaming",
}


class TestRegistry:
    def test_catalog_ships_the_documented_scenarios(self):
        assert EXPECTED_CATALOG <= set(available_scenarios())

    def test_get_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="available"):
            get_scenario("bogus")

    def test_duplicate_registration_rejected(self):
        spec = get_scenario("edge_cluster_bus")
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(lambda: spec)

    def test_every_spec_builds_its_system(self):
        for name in available_scenarios():
            system = get_scenario(name).build_system()
            assert len(system) >= 2


class TestSpecSerialization:
    def test_round_trip_every_catalog_entry(self):
        for name in available_scenarios():
            spec = get_scenario(name)
            clone = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
            assert clone == spec

    def test_workload_spec_params_are_order_insensitive(self):
        a = WorkloadSpec.of("paper_suite", dfg_type=1, seed=3)
        b = WorkloadSpec.of("paper_suite", seed=3, dfg_type=1)
        assert a == b

    def test_unknown_workload_kind_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown workload kind"):
            build_workload("bogus")
        with pytest.raises(ValueError, match="unknown workload kind"):
            WorkloadSpec.of("bogus")

    def test_unknown_workload_param_fails_loudly(self):
        with pytest.raises(TypeError):
            build_workload("pipeline", bogus_param=1)
        with pytest.raises(TypeError, match="bogus_param"):
            WorkloadSpec.of("pipeline", bogus_param=1)


class TestExecution:
    def test_paper_star_scenario_reproduces_flat_numbers_bit_for_bit(self):
        # The star-topology scenario platform must price and schedule
        # exactly like the paper's flat link table.
        spec = get_scenario("paper_type1")
        lookup = paper_lookup_table()
        star = spec.build_system()
        flat = CPU_GPU_FPGA(transfer_rate_gbps=4.0)
        dfg = paper_suite(1)[0]
        for policy_name in ("apt", "met", "heft"):
            kwargs = {"alpha": 1.5} if policy_name == "apt" else {}
            star_run = Simulator(star, lookup).run(dfg, get_policy(policy_name, **kwargs))
            flat_run = Simulator(flat, lookup).run(dfg, get_policy(policy_name, **kwargs))
            assert list(star_run.schedule) == list(flat_run.schedule)
            assert star_run.metrics == flat_run.metrics

    def test_run_scenario_returns_policy_major_results(self):
        outcome = run_scenario("edge_cluster_bus", engine=SweepEngine())
        by_policy = outcome.by_policy()
        assert len(by_policy) == 3
        assert all(len(v) == 1 for v in by_policy)
        assert [v[0].policy_name for v in by_policy] == ["apt", "olb", "ag"]
        table = outcome.table()
        assert table.headers[0] == "Policy"
        assert len(table.rows) == 3

    def test_grid_listing_a_policy_twice_keeps_both_rows(self):
        # one result list per PolicySpec, not per display label: a
        # repeated policy keeps its own list and table row
        spec = get_scenario("edge_cluster_bus")
        apt = PolicySpec.of("apt", alpha=2.0)
        grid = ScenarioSpec(
            name="repeated_policy",
            description=spec.description,
            system=spec.system,
            workload=WorkloadSpec.of("pipeline", n_kernels=12, stage_width=3, seed=1),
            policies=(apt, PolicySpec.of("met"), apt),
        )
        outcome = run_scenario(grid, engine=SweepEngine())
        first, met, again = outcome.by_policy()
        assert first == again
        assert [r.policy_name for r in (*first, *met)] == ["apt", "met"]
        rows = outcome.table().rows
        assert [row[0] for row in rows] == ["APT(alpha=2.0)", "MET", "APT(alpha=2.0)"]

    def test_run_scenarios_runs_every_spec_in_one_batch(self):
        specs = [get_scenario("edge_cluster_bus"), get_scenario("dual_socket_tree")]
        engine = SweepEngine()
        outcomes = run_scenarios(specs, engine=engine)
        assert [o.spec for o in outcomes] == specs
        assert [len(o.results) for o in outcomes] == [3, 12]
        assert engine.stats.requested == 15
        for spec, outcome in zip(specs, outcomes):
            assert outcome == run_scenario(spec, engine=engine)

    def test_lookup_override_reaches_every_job(self):
        from repro.core.lookup import scale_heterogeneity

        spec = get_scenario("dual_socket_tree")
        engine = SweepEngine()
        [plain] = run_scenarios([spec], engine)
        scaled_lookup = scale_heterogeneity(paper_lookup_table(), 0.5)
        [scaled] = run_scenarios([spec], engine, lookup=scaled_lookup)
        hashes = {r.job_hash for r in plain.results}
        assert hashes.isdisjoint(r.job_hash for r in scaled.results)
        assert engine.stats.simulated == 2 * len(plain.results)

    def test_run_scenarios_of_no_specs_runs_nothing(self):
        engine = SweepEngine()
        assert run_scenarios([], engine) == []
        assert engine.stats.requested == 0

    def test_rerun_hits_the_cache(self, tmp_path):
        engine = SweepEngine(cache_dir=tmp_path)
        run_scenario("edge_cluster_bus", engine=engine)
        simulated_first = engine.stats.simulated
        assert simulated_first > 0
        fresh = SweepEngine(cache_dir=tmp_path)
        outcome = run_scenario("edge_cluster_bus", engine=fresh)
        assert fresh.stats.simulated == 0
        assert fresh.stats.disk_hits == len(outcome.results)

    def test_contention_flag_changes_the_cache_key(self):
        # Same graph shape, contention toggled: jobs must never share a
        # cache entry (their simulated results differ).
        spec = get_scenario("edge_cluster_bus")
        system = spec.build_system()
        data = system_to_dict(system)
        flipped = json.loads(json.dumps(data))
        flipped["topology"]["contention"] = False
        from repro.experiments.sweep import system_from_dict

        uncontended = system_from_dict(flipped)
        from repro.experiments.sweep import make_job

        lookup = paper_lookup_table()
        unit = spec.workload.build()[0]
        job_on = make_job(
            unit.dfg, PolicySpec.of("apt", alpha=2.0), system, lookup,
            arrivals=unit.arrivals,
        )
        job_off = make_job(
            unit.dfg, PolicySpec.of("apt", alpha=2.0), uncontended, lookup,
            arrivals=unit.arrivals,
        )
        assert job_on.content_hash() != job_off.content_hash()

    def test_scenario_jobs_carry_scenario_tag(self):
        jobs = get_scenario("edge_cluster_bus").jobs()
        assert all(job.tag["scenario"] == "edge_cluster_bus" for job in jobs)

    def test_empty_policy_grid_rejected(self):
        with pytest.raises(ValueError, match="empty policy grid"):
            ScenarioSpec(
                name="x",
                description="",
                system=system_to_dict(CPU_GPU_FPGA()),
                workload=WorkloadSpec.of("pipeline", n_kernels=8),
                policies=(),
            )


class TestOpenSystemScenarios:
    def test_registered(self):
        names = set(available_scenarios())
        assert {
            "open_system_poisson",
            "open_system_burst",
            "open_system_diurnal",
        } <= names

    def test_specs_round_trip(self):
        for name in ("open_system_poisson", "open_system_burst", "open_system_diurnal"):
            spec = get_scenario(name)
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_jobs_carry_spans_and_source(self):
        jobs = get_scenario("open_system_poisson").jobs()
        assert all(job.app_spans for job in jobs)
        assert all(job.source["kind"] == "open_system" for job in jobs)
        # one stream per policy in the default grid
        assert len(jobs) == len(get_scenario("open_system_poisson").policies)

    def test_run_produces_service_columns(self):
        spec = get_scenario("open_system_poisson")
        # shrink the stream so the test stays fast, keeping the spec's
        # profile and platform
        small = ScenarioSpec(
            name="open_small",
            description=spec.description,
            system=spec.system,
            workload=WorkloadSpec.of(
                "open_system",
                n_applications=4,
                seed=1,
                profile="poisson",
                mean_interarrival_ms=8000.0,
            ),
            policies=spec.policies[:2],
        )
        outcome = run_scenario(small, engine=SweepEngine())
        table = outcome.table()
        assert "Resp (ms)" in table.headers
        assert "Apps/s" in table.headers
        assert all(row[-1] > 0 for row in table.rows)

    def test_burst_and_poisson_twins_differ(self):
        # equal mean load, different arrival process → different keys and
        # different simulated outcomes
        p_jobs = get_scenario("open_system_poisson").jobs()
        b_jobs = get_scenario("open_system_burst").jobs()
        assert p_jobs[0].content_hash() != b_jobs[0].content_hash()
