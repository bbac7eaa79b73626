"""Tests for the declarative scenario registry (`repro.experiments.scenarios`)."""

import json
import sys
import threading

import numpy as np
import pytest

from repro.core.simulator import Simulator
from repro.core.system import CPU_GPU_FPGA
from repro.data.paper_tables import paper_lookup_table
from repro.experiments import scenarios
from repro.experiments.runner import flat_spec, paper_spec
from repro.experiments.scenarios import (
    ScenarioSpec,
    WorkloadSpec,
    available_scenarios,
    get_scenario,
    register_scenario,
    run_scenario,
    run_scenarios,
)
from repro.experiments.sweep import BoundedLRU, PolicySpec, SweepEngine, system_to_dict
from repro.experiments.workloads import WORKLOAD_KINDS, build_workload, paper_suite
from repro.graphs.dfg import KernelSpec
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

    def test_link_overrides_rejected_where_the_spec_enters(self):
        system = system_to_dict(CPU_GPU_FPGA())
        system["link_overrides"] = [["cpu0", "gpu0", 8.0]]
        with pytest.raises(ValueError, match="link_overrides"):
            ScenarioSpec(
                name="x",
                description="",
                system=system,
                workload=WorkloadSpec.of("pipeline", n_kernels=8),
                policies=MET,
            )
        data = get_scenario("paper_type1").to_dict()
        data["system"] = system
        with pytest.raises(ValueError, match="link_overrides"):
            ScenarioSpec.from_dict(data)

    def test_settings_serialize_only_the_noise_knobs(self):
        data = get_scenario("paper_type1").to_dict()
        assert set(data["settings"]) == {"exec_noise_sigma", "noise_seed"}
        data["settings"] = {**data["settings"], "transfer_mode": "single"}
        with pytest.raises(ValueError, match="transfer_mode"):
            ScenarioSpec.from_dict(data)


MET = (PolicySpec.of("met"),)


def pipeline_spec(seed: int, n_kernels: int = 60) -> ScenarioSpec:
    return flat_spec(
        f"pipeline_{seed}",
        WorkloadSpec.of("pipeline", n_kernels=n_kernels, stage_width=4, seed=seed),
        MET,
    )


@pytest.fixture
def generator_calls(monkeypatch):
    """Names of the ``make_*`` graph generators called, wherever bound."""
    from repro.experiments import workloads
    from repro.graphs import generators

    calls: list[str] = []
    for module in (generators, workloads):
        for name, original in list(vars(module).items()):
            if name.startswith("make_") and getattr(original, "__module__", None) == (
                generators.__name__
            ):

                def counted(*args, _original=original, _name=name, **kwargs):
                    calls.append(_name)
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
    return calls


class TestExpansionMemo:
    """``ScenarioSpec.jobs`` builds each workload once per process, while
    every builder keeps handing its callers fresh graphs."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(scenarios, "_UNIT_MEMO", BoundedLRU(scenarios._UNIT_MEMO_KERNELS))

    def test_second_expansion_builds_no_graph(self, generator_calls):
        spec = paper_spec(1, MET, seed=2017, n_graphs=3)
        first = [job.content_hash() for job in spec.jobs()]
        assert "make_type1_dfg" in generator_calls
        generator_calls.clear()
        second = [job.content_hash() for job in spec.jobs()]
        assert generator_calls == []
        assert second == first

    def test_builders_return_fresh_graphs_that_reach_no_job(self):
        spec = paper_spec(2, MET, n_graphs=2)
        before = [job.content_hash() for job in spec.jobs()]
        suite, again = paper_suite(2), paper_suite(2)
        units, units_again = spec.workload.build(), spec.workload.build()
        assert suite[0] is not again[0]
        assert units[0].dfg is not units_again[0].dfg
        for dfg in (suite[0], units[0].dfg):
            dfg.add_kernel(KernelSpec("matmul", 250_000))
            dfg.add_dependency(0, len(dfg) - 1)
        assert [job.content_hash() for job in spec.jobs()] == before

    def test_float_seed_still_fails_after_the_int_seed_expanded(self):
        small = {
            "paper_suite": {"dfg_type": 1, "n_graphs": 1},
            "pipeline": {"n_kernels": 12},
            "streaming": {"n_kernels": 40},
            "fork_join_stream": {"n_applications": 3},
            "open_system": {"n_applications": 3},
        }
        assert set(small) == set(WORKLOAD_KINDS)
        accepted = []
        for kind, params in small.items():
            as_int = flat_spec(kind, WorkloadSpec.of(kind, seed=2017, **params), MET)
            as_float = flat_spec(
                kind, WorkloadSpec.of(kind, seed=2017.0, **params), MET
            )
            as_int.jobs()
            # equal as a WorkloadSpec, but numpy refuses a float seed
            assert as_float.workload == as_int.workload
            try:
                as_float.jobs()
            except TypeError:
                continue
            accepted.append(kind)
        assert accepted == []

    def test_parameters_that_are_not_json_still_expand(self):
        as_numpy = flat_spec(
            "numpy_pipeline",
            WorkloadSpec.of("pipeline", n_kernels=np.int64(12), stage_width=4, seed=1),
            MET,
        )
        [job] = as_numpy.jobs()
        assert job.content_hash() == pipeline_spec(1, n_kernels=12).jobs()[0].content_hash()

    def test_memo_holds_at_most_its_kernel_bound(self, monkeypatch, generator_calls):
        monkeypatch.setattr(scenarios, "_UNIT_MEMO", BoundedLRU(150))

        def held() -> int:
            return scenarios._UNIT_MEMO.held

        def builds(spec: ScenarioSpec) -> int:
            generator_calls.clear()
            spec.jobs()
            assert held() <= 150
            return len(generator_calls)

        assert [builds(pipeline_spec(seed)) for seed in (1, 2, 1)] == [1, 1, 0]
        # a third 60-kernel workload evicts the least recently used: seed 2
        assert builds(pipeline_spec(3)) == 1
        assert [builds(pipeline_spec(seed)) for seed in (1, 3, 2)] == [0, 0, 1]
        # a workload above the bound is built every time and never retained
        big = pipeline_spec(4, n_kernels=151)
        assert [builds(big), builds(big)] == [1, 1]
        assert held() == 120

    def test_threads_expanding_at_once_agree(self, monkeypatch):
        """Four threads churn a memo too small for their three workloads,
        switching every microsecond: every expansion hashes like a
        serial one, and the memo never exceeds its bound."""
        monkeypatch.setattr(scenarios, "_UNIT_MEMO", BoundedLRU(150))
        specs = [pipeline_spec(seed) for seed in (11, 12, 13)]
        expected = [[job.content_hash() for job in spec.jobs()] for spec in specs]
        failures: list[Exception] = []

        def expand(offset: int) -> None:
            try:
                for i in range(30):
                    k = (i + offset) % len(specs)
                    assert [job.content_hash() for job in specs[k].jobs()] == expected[k]
                    assert scenarios._UNIT_MEMO.held <= 150
            except Exception as exc:  # reported by the main thread
                failures.append(exc)

        threads = [threading.Thread(target=expand, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


class TestWorkloadParameterTypes:
    """One type rule for every workload kind: a count (or seed) is an
    integral number stored as ``int``, a mean inter-arrival time is
    stored as ``float``, so each simulation has one cache key."""

    #: every count parameter of every kind, at a small valid value
    COUNTS = {
        "paper_suite": {"n_graphs": 1},
        "streaming": {"n_kernels": 40},
        "fork_join_stream": {"n_applications": 3},
        "pipeline": {"n_kernels": 12, "stage_width": 4},
        "open_system": {"n_applications": 3, "min_kernels": 8, "max_kernels": 16},
    }

    @staticmethod
    def keys(kind: str, **params: object) -> list[str]:
        spec = flat_spec(kind, WorkloadSpec.of(kind, **params), MET)
        return [job.content_hash() for job in spec.jobs()]

    def test_rate_spellings_share_one_key(self):
        for kind, small in (("streaming", {"n_kernels": 60}), ("fork_join_stream", {})):
            as_int = self.keys(kind, mean_interarrival_ms=3000, **small)
            assert self.keys(kind, mean_interarrival_ms=3000.0, **small) == as_int
        as_int = self.keys("open_system", n_applications=3, mean_interarrival_ms=1000)
        assert self.keys("open_system", n_applications=3, mean_interarrival_ms=1000.0) == as_int

    def test_numpy_counts_are_stored_as_int(self):
        as_numpy = self.keys("open_system", n_applications=np.int64(3), seed=np.int64(5))
        assert as_numpy == self.keys("open_system", n_applications=3, seed=5)
        [unit] = build_workload("open_system", n_applications=np.int64(3))
        assert unit.dfg.name == "open_poisson_a3_s2017"
        assert type(unit.source["n_applications"]) is int  # type: ignore[index]

    def test_every_float_count_is_refused(self):
        assert set(self.COUNTS) == set(WORKLOAD_KINDS)
        refused = []
        for kind, counts in self.COUNTS.items():
            self.keys(kind, **counts)
            for name, value in counts.items():
                for bad in (float(value), str(value), True):
                    with pytest.raises(TypeError, match=name):
                        build_workload(kind, **dict(counts, **{name: bad}))
                refused.append((kind, name))
        assert len(refused) == 8
        with pytest.raises(TypeError, match="burst_size"):
            build_workload("open_system", n_applications=3, profile="burst", burst_size=6.0)

    def test_a_rate_must_be_a_number(self):
        with pytest.raises(TypeError, match="mean_interarrival_ms"):
            build_workload("streaming", n_kernels=40, mean_interarrival_ms="3000")


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
