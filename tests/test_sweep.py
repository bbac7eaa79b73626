"""Tests for the parallel sweep engine and its result cache.

Covers the determinism contract the engine rests on: content hashes are
stable across processes, a parallel sweep is bit-identical to a serial
one, a warm cache performs zero new simulations, and worker failures
propagate instead of yielding partial results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.dynamics import DynamicsSpec
from repro.core.lookup import KernelNotFoundError
from repro.core.system import CPU_GPU_FPGA, ProcessorType
from repro.data.paper_tables import paper_lookup_table
from repro.experiments import sweep
from repro.experiments.runner import paper_spec
from repro.experiments.scenarios import available_scenarios, get_scenario, run_scenarios
from repro.experiments.sweep import (
    SWEEP_FORMAT_VERSION,
    BoundedLRU,
    PolicySpec,
    ResultCache,
    SimSettings,
    SweepEngine,
    SweepJob,
    execute_payload,
    hash_payload,
    make_job,
    resolve_workers,
    system_from_dict,
    system_to_dict,
)
from repro.graphs.dfg import DFG, KernelSpec
from repro.graphs.serialization import dfg_to_dict
from repro.policies.registry import available_policies
from tests.conftest import SYNTH_SIZE, make_synthetic_lookup


def small_dfg(name: str = "diamond") -> DFG:
    """A 4-kernel diamond over the synthetic lookup's kernels."""
    return DFG.from_kernels(
        [
            KernelSpec("fast_cpu", SYNTH_SIZE),
            KernelSpec("fast_gpu", SYNTH_SIZE),
            KernelSpec("fast_fpga", SYNTH_SIZE),
            KernelSpec("uniform", SYNTH_SIZE),
        ],
        dependencies=[(0, 1), (0, 2), (1, 3), (2, 3)],
        name=name,
    )


@pytest.fixture
def lookup():
    return make_synthetic_lookup()


@pytest.fixture
def system():
    return CPU_GPU_FPGA(transfer_rate_gbps=4.0)


def job_of(lookup, system, *, alpha: float = 4.0, name: str = "diamond", **kwargs):
    return make_job(
        small_dfg(name), PolicySpec.of("apt", alpha=alpha), system, lookup, **kwargs
    )


class TestContentHash:
    def test_identical_jobs_hash_equal(self, lookup, system):
        assert job_of(lookup, system).content_hash() == job_of(lookup, system).content_hash()

    def test_tag_does_not_affect_hash(self, lookup, system):
        a = job_of(lookup, system, tag={"graph_index": 1})
        b = job_of(lookup, system, tag={"graph_index": 2})
        assert a.content_hash() == b.content_hash()

    def test_provider_does_not_affect_hash(self, lookup, system):
        plain = make_job(small_dfg(), PolicySpec.of("met"), system, lookup)
        with_provider = make_job(
            small_dfg(), PolicySpec.of("met", provider="repro.policies.met"),
            system, lookup,
        )
        assert plain.content_hash() == with_provider.content_hash()

    @pytest.mark.parametrize(
        "change",
        [
            lambda lk, sys_: job_of(lk, sys_, alpha=8.0),
            lambda lk, sys_: job_of(lk, CPU_GPU_FPGA(transfer_rate_gbps=8.0)),
            lambda lk, sys_: job_of(lk, sys_, settings=SimSettings(exec_noise_sigma=0.1)),
            lambda lk, sys_: job_of(lk, sys_, arrivals={1: 5.0}),
            lambda lk, sys_: make_job(
                small_dfg(), PolicySpec.of("met"), sys_, lk
            ),
        ],
    )
    def test_semantic_change_changes_hash(self, lookup, system, change):
        assert (
            job_of(lookup, system).content_hash()
            != change(lookup, system).content_hash()
        )

    def test_hash_stable_across_processes(self, lookup, system):
        job = job_of(lookup, system)
        local = job.content_hash()
        with multiprocessing.get_context().Pool(2) as pool:
            remote = pool.map(hash_payload, [job.payload(), job.payload()])
        assert remote == [local, local]

    def test_digest_shortcut_matches_full_hash(self, lookup, system):
        via_make_job = job_of(lookup, system)
        assert via_make_job.lookup_digest is not None
        manual = SweepJob(
            dfg=dict(via_make_job.dfg),
            system=dict(via_make_job.system),
            lookup=list(via_make_job.lookup),
            policy=via_make_job.policy,
            settings=via_make_job.settings,
        )
        assert manual.lookup_digest is None
        assert manual.content_hash() == via_make_job.content_hash()

    #: one changed ingredient per job field, as ``make_job`` arguments
    REPLACEMENTS = {
        "dfg": lambda: {"dfg": small_dfg("other")},
        "policy": lambda: {"policy": PolicySpec.of("met")},
        "lookup": lambda: {"lookup": paper_lookup_table()},
        "settings": lambda: {"settings": SimSettings(exec_noise_sigma=0.1)},
        "arrivals": lambda: {"arrivals": {1: 5.0}},
        "dynamics": lambda: {"dynamics": [DynamicsSpec.of("preempt", penalty_ms=2.0)]},
    }

    @pytest.mark.parametrize("name", list(REPLACEMENTS))
    def test_replaced_field_is_rehashed(self, lookup, system, name):
        """``dataclasses.replace`` re-derives every hashing shortcut: the
        replaced job hashes like a job made with the same change."""
        base = {
            "dfg": small_dfg(),
            "policy": PolicySpec.of("apt", alpha=4.0),
            "system": system,
            "lookup": lookup,
        }
        job = make_job(**base)
        original = job.content_hash()
        fresh = make_job(**{**base, **self.REPLACEMENTS[name]()})
        replaced = dataclasses.replace(job, **{name: getattr(fresh, name)})
        assert replaced.content_hash() == fresh.content_hash() != original

    def test_system_roundtrip(self, system):
        data = system_to_dict(system)
        rebuilt = system_from_dict(json.loads(json.dumps(data)))
        assert system_to_dict(rebuilt) == data


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = {"version": SWEEP_FORMAT_VERSION, "makespan": 1.5}
        cache.put("abc", record)
        assert cache.get("abc") == record
        assert "abc" in cache and len(cache) == 1

    def test_missing_and_corrupt_entries_are_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("nope") is None
        cache.path_for("bad").write_text("{not json", encoding="utf-8")
        assert cache.get("bad") is None

    def test_version_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("old", {"version": SWEEP_FORMAT_VERSION + 1, "makespan": 1.0})
        assert cache.get("old") is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a", {"version": SWEEP_FORMAT_VERSION})
        cache.put("b", {"version": SWEEP_FORMAT_VERSION})
        assert cache.clear() == 2
        assert len(cache) == 0


class TestSweepEngine:
    def test_memory_cache_hit_skips_simulation(self, lookup, system):
        engine = SweepEngine()
        job = job_of(lookup, system)
        first = engine.run_jobs([job])
        assert engine.stats.simulated == 1
        second = engine.run_jobs([job_of(lookup, system)])
        assert engine.stats.simulated == 1
        assert engine.stats.memory_hits == 1
        assert first == second

    def test_duplicates_within_batch_simulate_once(self, lookup, system):
        engine = SweepEngine()
        results = engine.run_jobs([job_of(lookup, system), job_of(lookup, system)])
        assert engine.stats.simulated == 1
        assert results[0] == results[1]

    def test_warm_disk_cache_performs_zero_simulations(self, lookup, system, tmp_path):
        jobs = [
            job_of(lookup, system, alpha=alpha, name=name)
            for alpha in (1.5, 4.0)
            for name in ("g1", "g2")
        ]
        cold = SweepEngine(cache_dir=tmp_path)
        expected = cold.run_jobs(jobs)
        assert cold.stats.simulated == len(jobs)

        warm = SweepEngine(cache_dir=tmp_path, workers=4)
        got = warm.run_jobs(jobs)
        assert warm.stats.simulated == 0
        assert warm.stats.disk_hits == len(jobs)
        assert got == expected

    def test_use_cache_false_always_simulates(self, lookup, system):
        engine = SweepEngine(use_cache=False)
        job = job_of(lookup, system)
        engine.run_jobs([job])
        engine.run_jobs([job])
        assert engine.stats.simulated == 2

    def test_parallel_bit_identical_to_serial(self, lookup, system):
        jobs = [
            make_job(small_dfg(f"g{i}"), spec, system, lookup)
            for i in range(3)
            for spec in (
                PolicySpec.of("apt", alpha=4.0),
                PolicySpec.of("met"),
                PolicySpec.of("heft"),
            )
        ]
        serial = SweepEngine(workers=1, use_cache=False).run_jobs(jobs)
        parallel = SweepEngine(workers=4, use_cache=False).run_jobs(jobs)
        assert serial == parallel  # bit-identical metrics, same order

    def test_pool_keeps_request_order_and_dedupes(self, lookup, system):
        names = ["g0", "g1", "g0", "g2"]
        engine = SweepEngine(workers=2)
        results = engine.run_jobs([job_of(lookup, system, name=n) for n in names])
        assert [r.dfg_name for r in results] == names
        assert engine.stats.simulated == 3
        assert engine.stats.memory_hits == 1

    def test_workers_resolve_at_construction(self):
        assert SweepEngine().workers == 1
        assert SweepEngine(workers=3).workers == 3
        assert SweepEngine(workers=0).workers == resolve_workers(0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_failure_propagates(self, lookup, system, workers):
        bad = make_job(
            DFG.from_kernels([KernelSpec("not_in_table", 10)], name="bad"),
            PolicySpec.of("met"),
            system,
            lookup,
        )
        engine = SweepEngine(workers=workers, use_cache=False)
        with pytest.raises(KernelNotFoundError):
            engine.run_jobs([job_of(lookup, system), bad])

    def test_unknown_policy_fails(self, lookup, system):
        job = make_job(small_dfg(), PolicySpec.of("bogus"), system, lookup)
        with pytest.raises(KeyError):
            SweepEngine().run_jobs([job])

    def test_execute_payload_matches_in_process_simulation(self, lookup, system):
        from repro.core.simulator import Simulator
        from repro.policies.registry import get_policy

        job = job_of(lookup, system, alpha=4.0)
        record = execute_payload(job.runnable_payload())
        direct = Simulator(system, lookup).run(small_dfg(), get_policy("apt", alpha=4.0))
        assert record["makespan"] == direct.makespan
        assert record["total_lambda"] == direct.metrics.lambda_stats.total

    def test_execute_payload_prices_energy_like_energy_of(self, lookup, system):
        from repro.core.energy import energy_of
        from repro.core.simulator import Simulator
        from repro.policies.registry import get_policy

        record = execute_payload(job_of(lookup, system, alpha=4.0).runnable_payload())
        direct = Simulator(system, lookup).run(small_dfg(), get_policy("apt", alpha=4.0))
        report = energy_of(direct.schedule, system)
        assert record["energy_joules"] == report.total_joules
        assert record["energy_delay_product"] == report.energy_delay_product

    def test_off_grid_size_interpolates_through_the_engine(self, lookup, system):
        from repro.core.simulator import Simulator
        from repro.policies.met import MET

        unmeasured = DFG.from_kernels(
            [KernelSpec("fast_cpu", SYNTH_SIZE // 2)], name="odd_size"
        )
        job = make_job(unmeasured, PolicySpec.of("met"), system, lookup)
        [result] = SweepEngine().run_jobs([job])
        direct = Simulator(system, lookup).run(unmeasured, MET())
        assert result.makespan == direct.makespan
        # a single measured size scales linearly: half the size, half the time
        assert result.makespan == pytest.approx(
            lookup.time("fast_cpu", SYNTH_SIZE, ProcessorType.CPU) / 2
        )

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1


class TestPaperCostModelPayload:
    """Every job runs the paper's cost model; the payload still names it
    field by field, so stored cache keys hold."""

    def test_payload_names_the_paper_cost_model(self, lookup, system):
        payload = job_of(lookup, system).payload()
        assert payload["cost_model"] == {
            "element_size": 4,
            "transfer_mode": "single",
            "transfers_enabled": True,
        }
        assert payload["lookup_interpolate"] is True
        assert payload["system"]["link_overrides"] == []

    @pytest.mark.parametrize(
        "extra",
        [
            {"transfer_mode": "per_predecessor"},
            {"element_size": 8},
            {"transfers_enabled": False},
        ],
    )
    def test_settings_reject_cost_model_keys(self, extra):
        data = {**SimSettings().noise_dict(), **extra}
        with pytest.raises(ValueError, match=next(iter(extra))):
            SimSettings.from_dict(data)

    def test_settings_round_trip_the_noise_knobs(self):
        settings = SimSettings(exec_noise_sigma=0.2, noise_seed=7)
        assert SimSettings.from_dict(settings.noise_dict()) == settings

    def test_system_from_dict_rejects_link_overrides(self, system):
        data = system_to_dict(system)
        data["link_overrides"] = [["cpu0", "gpu0", 8.0]]
        with pytest.raises(ValueError, match="link_overrides"):
            system_from_dict(data)


class TestScenarioGrid:
    def test_jobs_cover_grid(self):
        policies = (PolicySpec.of("apt", alpha=4.0), PolicySpec.of("met"))
        specs = [
            paper_spec(dfg_type, policies, rate_gbps=rate, n_graphs=3)
            for dfg_type in (1, 2)
            for rate in (4.0, 8.0)
        ]
        jobs = [job for spec in specs for job in spec.jobs()]
        assert len(jobs) == 2 * 2 * 2 * 3
        tags = {
            (t["scenario"], t["policy"], t["graph_index"])
            for t in (job.tag for job in jobs)
        }
        assert len(tags) == len(jobs)

    def test_seed_enters_hash(self):
        met = (PolicySpec.of("met"),)
        a = paper_spec(1, met, seed=1, n_graphs=1).jobs()
        b = paper_spec(1, met, seed=2, n_graphs=1).jobs()
        assert a[0].content_hash() != b[0].content_hash()

    #: one job's content hash per experiment builder, recorded before
    #: the paper artifacts moved onto ScenarioSpec (paper lookup,
    #: default settings)
    PINNED_KEYS = {
        # Type-1 graph 0, seed 2017, MET, 4 GB/s
        "paper-type1": "056d7248999606b6b90a69a6e6e27286214a0e1bc86eb78fd053cedc9d4dc27e",
        # Type-2 graph 9, APT alpha=1.5, 8 GB/s
        "paper-type2": "eecf885aaf3e48695699e40a2babf6c17ee222145bd3475115a7043c16278863",
        # the first job: APT alpha=4, IA 4000 ms, 25 applications
        "streaming-load-sweep": (
            "d160fb5e749428e3386161343ddce2b63cd5fb077dc5e730a100ace9090f4da7"
        ),
        # load_sweep(policies=("apt",), rates_per_s=(0.5,))
        "load-sweep": "2d3f4ebde22019f826ddb1c408dc54aecb274fc1f2f4a0410fa55f7ce45b14dc",
    }

    @pytest.mark.parametrize("builder", list(PINNED_KEYS))
    def test_grid_builders_keep_their_cache_keys(self, builder, monkeypatch):
        """A cache filled before the move still serves every builder."""
        from repro.experiments.extensions import streaming_load_sweep
        from repro.experiments.load_sweep import load_sweep

        batches: list[list[SweepJob]] = []
        run_jobs = SweepEngine.run_jobs

        def spy(engine, jobs, *args, **kwargs):
            batches.append(list(jobs))
            return run_jobs(engine, jobs, *args, **kwargs)

        monkeypatch.setattr(SweepEngine, "run_jobs", spy)
        if builder == "paper-type1":
            job = paper_spec(1, [PolicySpec.of("met")], rate_gbps=4.0).jobs()[0]
        elif builder == "paper-type2":
            apt = PolicySpec.of("apt", alpha=1.5)
            job = paper_spec(2, [apt], rate_gbps=8.0).jobs()[9]
        elif builder == "streaming-load-sweep":
            streaming_load_sweep()
            job = batches[0][0]
        else:
            load_sweep(policies=("apt",), rates_per_s=(0.5,))
            [job] = batches[0]
        assert job.content_hash() == self.PINNED_KEYS[builder]


def oracle_hash(job: SweepJob) -> str:
    """A job's cache key, encoded here from its payload: plumbing keys
    dropped, the lookup records collapsed to their own digest."""

    def sha256(value: object) -> str:
        blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    body = {
        k: v for k, v in job.payload().items() if k not in ("provider", "job_hash")
    }
    body["lookup"] = sha256({"records": body["lookup"]})
    return sha256(body)


class TestSplicedHash:
    """``content_hash`` splices each DFG's JSON into the payload's blob;
    the keys must be those of encoding the whole payload."""

    def test_every_registered_job_matches_an_independent_encoding(self):
        lookup = paper_lookup_table()
        specs = [get_scenario(name) for name in available_scenarios()]
        specs.append(
            paper_spec(
                2,
                (PolicySpec.of("apt", alpha=4.0), PolicySpec.of("met")),
                n_graphs=3,
                settings=SimSettings(exec_noise_sigma=0.2, noise_seed=5),
            )
        )
        jobs = [job for spec in specs for job in spec.jobs(lookup)]
        assert len(jobs) > 180
        for job in jobs:
            assert job.content_hash() == oracle_hash(job), job.tag

    #: each scenario's first job, recorded before the DFG's JSON was
    #: spliced in; together they carry arrivals, app spans, a source,
    #: contended topologies and both dynamics layers
    PINNED_KEYS = {
        "fat_tree_streaming": (
            "6224f52aba97bf867034b78d5815e4e26978f1bb07e09774a2b0b1691bb70358"
        ),
        "faulty_edge_cluster": (
            "871414d92750028c8b8b0e5710f191cc544afb01330cbd287149ac9aa9573dfd"
        ),
        "open_system_poisson": (
            "84ac20206f54b541baeb918b1808e0da151d2ba861e79738a90db4f44adbbcbd"
        ),
        "preemptive_rt": "f05b8ea029ae43e5893188b565d6428306fa989a9cca768497d8143d9aa7c231",
    }

    @pytest.mark.parametrize("name", list(PINNED_KEYS))
    def test_registered_scenarios_keep_their_cache_keys(self, name):
        assert get_scenario(name).jobs()[0].content_hash() == self.PINNED_KEYS[name]


class TestRunnerIntegration:
    POLICIES = (PolicySpec.of("apt", alpha=4.0), PolicySpec.of("met"))

    @staticmethod
    def suite_spec(*policies, seed=2017):
        """The first two Type-1 graphs at 4 GB/s."""
        return paper_spec(1, policies, seed=seed, n_graphs=2)

    def test_parallel_runner_matches_serial(self):
        spec = self.suite_spec(*self.POLICIES)
        serial = run_scenarios([spec], SweepEngine())
        parallel = run_scenarios([spec], SweepEngine(workers=4))
        assert serial == parallel

    def test_runner_warm_cache_rerun_simulates_nothing(self, tmp_path):
        spec = self.suite_spec(PolicySpec.of("met"))
        first = SweepEngine(cache_dir=tmp_path)
        [cold] = run_scenarios([spec], first)
        assert first.stats.simulated == 2

        rerun = SweepEngine(cache_dir=tmp_path)
        [warm] = run_scenarios([spec], rerun)
        assert rerun.stats.simulated == 0
        assert warm == cold

    def test_runner_memo_distinguishes_seeds(self):
        # suites from different seeds reuse graph *names*; the memo must
        # key on content, not name, when one engine serves both.
        engine = SweepEngine()
        met = PolicySpec.of("met")
        [seed1] = run_scenarios([self.suite_spec(met, seed=1)], engine)
        [seed2] = run_scenarios([self.suite_spec(met, seed=2)], engine)
        assert seed1.results[0].dfg_name == seed2.results[0].dfg_name
        assert seed1.results[0].makespan != seed2.results[0].makespan

    def test_records_carry_energy(self):
        [outcome] = run_scenarios([self.suite_spec(PolicySpec.of("met"))])
        rec = outcome.results[0]
        assert rec.energy_joules > 0
        assert rec.energy_delay_product > 0


class TestOpenSystemPayload:
    """v4 payload: app spans and the declarative source descriptor."""

    def test_app_spans_change_the_hash(self, lookup, system):
        from repro.core.metrics import AppSpan

        plain = job_of(lookup, system)
        spanned = job_of(
            lookup, system, app_spans=(AppSpan(0.0, 0, 2), AppSpan(0.0, 2, 4))
        )
        assert plain.content_hash() != spanned.content_hash()

    def test_source_descriptor_changes_the_hash(self, lookup, system):
        plain = job_of(lookup, system)
        sourced = job_of(
            lookup, system, source={"kind": "open_system", "seed": 1}
        )
        assert plain.content_hash() != sourced.content_hash()

    def test_service_fields_populated_when_spans_present(self, lookup, system):
        from repro.core.metrics import AppSpan
        from repro.experiments.sweep import JobResult

        job = job_of(lookup, system, app_spans=(AppSpan(0.0, 0, 4),))
        record = execute_payload(job.runnable_payload())
        result = JobResult.from_dict(record)
        assert result.n_applications == 1
        assert result.mean_response_ms > 0.0
        assert result.throughput_apps_per_s > 0.0
        assert result.mean_slowdown >= 1.0 - 1e-9
        # round trip preserves the service block
        assert JobResult.from_dict(result.to_dict()) == result

    def test_service_fields_zero_without_spans(self, lookup, system):
        from repro.experiments.sweep import JobResult

        record = execute_payload(job_of(lookup, system).runnable_payload())
        result = JobResult.from_dict(record)
        assert result.n_applications == 0
        assert result.mean_response_ms == 0.0

    def test_open_system_workload_unit_round_trips_through_engine(self, tmp_path):
        from repro.data.paper_tables import paper_lookup_table
        from repro.experiments.workloads import build_workload

        unit = build_workload(
            "open_system",
            n_applications=4,
            seed=1,
            profile="poisson",
            mean_interarrival_ms=5000.0,
        )[0]
        assert unit.app_spans is not None and len(unit.app_spans) == 4
        assert unit.source["kind"] == "open_system"
        job = make_job(
            unit.dfg,
            PolicySpec.of("met"),
            CPU_GPU_FPGA(),
            paper_lookup_table(),
            arrivals=unit.arrivals,
            app_spans=unit.app_spans,
            source=unit.source,
        )
        engine = SweepEngine(cache_dir=tmp_path)
        first = engine.run_jobs([job])[0]
        assert first.n_applications == 4
        warm = SweepEngine(cache_dir=tmp_path)
        again = warm.run_jobs([job])[0]
        assert warm.stats.simulated == 0
        assert again == first


# ----------------------------------------------------------------------
# cross-process cache index (the service seam's latent-bug fix)
# ----------------------------------------------------------------------
def _hammer_cache(args):
    """Worker: write unique + shared keys into one shared cache dir."""
    cache_dir, worker_id, n_unique, shared_keys = args
    cache = ResultCache(cache_dir)
    for j in range(n_unique):
        cache.put(f"w{worker_id}_k{j}", {"worker": worker_id, "j": j})
    for key in shared_keys:
        cache.put(key, {"worker": worker_id, "shared": key})
    return worker_id


class TestConcurrentCacheWriters:
    def test_concurrent_cache_writers(self, tmp_path):
        """N processes hammering one cache dir: the index read-modify-write
        must be exact (the pre-lock implementation lost updates)."""
        n_workers, n_unique, n_shared = 4, 12, 5
        shared_keys = [f"shared_{j}" for j in range(n_shared)]
        ctx = multiprocessing.get_context()
        with ctx.Pool(n_workers) as pool:
            pool.map(
                _hammer_cache,
                [(str(tmp_path), w, n_unique, shared_keys) for w in range(n_workers)],
            )
        cache = ResultCache(tmp_path)
        expected_entries = n_workers * n_unique + n_shared
        expected_puts = n_workers * (n_unique + n_shared)
        stats = cache.stats()
        assert stats["puts"] == expected_puts
        assert stats["entries"] == expected_entries
        # the index must agree with the actual entry files on disk
        assert len(cache) == expected_entries

    def test_index_files_are_not_cache_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k1", {"v": 1})
        assert len(cache) == 1  # index.meta / index.lock not counted
        assert cache.get("k1") is None or cache.get("k1") == {"v": 1}

    def test_clear_resets_index(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k1", {"v": 1})
        cache.put("k2", {"v": 2})
        assert cache.clear() == 2
        assert cache.stats() == {"puts": 0, "entries": 0}
        assert len(cache) == 0

    def test_repeat_put_counts_one_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        for _ in range(3):
            cache.put("k", {"v": 1})
        assert cache.stats() == {"puts": 3, "entries": 1}


def _hammer_cache_in_batches(args):
    """Worker: write batches of unique + shared keys into one shared cache dir."""
    cache_dir, worker_id, n_batches, n_unique, n_shared = args
    cache = ResultCache(cache_dir)
    for b in range(n_batches):
        with cache.batch():
            for j in range(n_unique):
                cache.put(f"w{worker_id}_b{b}_k{j}", {"worker": worker_id, "j": j})
            for j in range(n_shared):
                cache.put(f"shared_b{b}_k{j}", {"worker": worker_id, "shared": j})
    return worker_id


#: A writer that fills one cache directory with 50-entry batches until
#: it is killed; entry ``b{b}_k{j}`` always holds :func:`_kill_record`.
KILLED_WRITER = """
import sys
from repro.experiments.sweep import SWEEP_FORMAT_VERSION, ResultCache

cache = ResultCache(sys.argv[1])
print("ready", flush=True)
b = 0
while True:
    with cache.batch():
        for j in range(50):
            key = f"b{b}_k{j}"
            cache.put(key, {"version": SWEEP_FORMAT_VERSION, "key": key, "pad": "x" * 4096})
    b += 1
"""


def _kill_record(key: str) -> dict[str, object]:
    return {"version": SWEEP_FORMAT_VERSION, "key": key, "pad": "x" * 4096}


class TestBatchedWriteBack:
    def test_batch_rewrites_the_index_once(self, tmp_path, monkeypatch):
        writes = []
        write_index = ResultCache._write_index

        def counted(cache, index):
            writes.append(dict(index))
            write_index(cache, index)

        monkeypatch.setattr(ResultCache, "_write_index", counted)
        cache = ResultCache(tmp_path)
        with cache.batch():
            for j in range(5):
                cache.put(f"k{j}", {"v": j})
                # each entry is in place when its put returns
                assert cache.path_for(f"k{j}").exists()
            cache.put("k0", {"v": 0})
            assert writes == []
        assert len(writes) == 1
        assert cache.stats() == {"puts": 6, "entries": 5}

    def test_stats_and_clear_inside_a_batch_do_not_block(self, tmp_path):
        """Both take the index lock, which is not reentrant: inside a
        batch they join it instead."""
        cache = ResultCache(tmp_path)
        cache.put("before", {"v": 0})
        with cache.batch():
            cache.put("k1", {"v": 1})
            assert cache.stats() == {"puts": 1, "entries": 1}  # the batch is not in yet
            assert cache.clear() == 2
            cache.put("k2", {"v": 2})
        assert cache.stats() == {"puts": 1, "entries": 1}
        assert len(cache) == 1

    def test_engine_writes_back_in_one_batch(self, lookup, system, tmp_path, monkeypatch):
        writes = []
        write_index = ResultCache._write_index

        def counted(cache, index):
            writes.append(dict(index))
            write_index(cache, index)

        monkeypatch.setattr(ResultCache, "_write_index", counted)
        engine = SweepEngine(cache_dir=tmp_path)
        jobs = [job_of(lookup, system, alpha=a) for a in (1.5, 2.0, 4.0)]
        engine.run_jobs(jobs)
        assert len(writes) == 1
        assert engine.disk.stats() == {"puts": 3, "entries": 3}
        # a warm batch writes nothing, and takes no lock for it
        SweepEngine(cache_dir=tmp_path).run_jobs(jobs)
        assert len(writes) == 1

    def test_concurrent_batched_cache_writers(self, tmp_path):
        """N processes writing overlapping batches: the index counts
        every put and every distinct key exactly once."""
        n_workers, n_batches, n_unique, n_shared = 4, 3, 8, 4
        ctx = multiprocessing.get_context()
        with ctx.Pool(n_workers) as pool:
            pool.map(
                _hammer_cache_in_batches,
                [
                    (str(tmp_path), w, n_batches, n_unique, n_shared)
                    for w in range(n_workers)
                ],
            )
        cache = ResultCache(tmp_path)
        expected_entries = n_batches * (n_workers * n_unique + n_shared)
        assert cache.stats() == {
            "puts": n_workers * n_batches * (n_unique + n_shared),
            "entries": expected_entries,
        }
        assert len(cache) == expected_entries

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
    def test_writer_killed_mid_batch_leaves_valid_entries(self, tmp_path):
        """SIGKILL a batch writer at fixed delays: every entry left is a
        valid hit equal to its record, an unwritten key is a clean miss,
        the index parses and undercounts at worst, and a new batch in the
        same directory completes."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        undercounted = []
        for delay in (0.05, 0.1, 0.2, 0.3):
            cache_dir = tmp_path / f"killed_{delay}"
            child = subprocess.Popen(
                [sys.executable, "-c", KILLED_WRITER, str(cache_dir)],
                stdout=subprocess.PIPE,
                env=env,
            )
            try:
                assert child.stdout is not None
                assert child.stdout.readline() == b"ready\n"
                time.sleep(delay)
            finally:
                child.send_signal(signal.SIGKILL)
                child.wait(timeout=30)
                child.stdout.close()  # type: ignore[union-attr]
            cache = ResultCache(cache_dir)
            keys = [path.stem for path in cache_dir.glob("*.json")]
            for key in keys:
                assert cache.get(key) == _kill_record(key), key
            assert cache.get("b100000_k0") is None
            index_path = cache_dir / "index.meta"
            if index_path.exists():
                json.loads(index_path.read_text(encoding="utf-8"))
            stats = cache.stats()
            assert stats["puts"] == stats["entries"] <= len(keys)
            undercounted.append(stats["puts"] < len(keys))

            done = threading.Event()

            def fresh_batch(cache=cache, done=done):
                with cache.batch():
                    cache.put("after", _kill_record("after"))
                done.set()

            threading.Thread(target=fresh_batch, daemon=True).start()
            assert done.wait(30), "a new batch blocked on the killed writer's lock"
            assert cache.stats() == {"puts": stats["puts"] + 1, "entries": stats["entries"] + 1}
        # the kills landed inside a batch, not only between two
        assert any(undercounted)


def _execute_all(payloads):
    return [execute_payload(payload) for payload in payloads]


#: The registry as imported: tests register policies of their own later,
#: such as one that never assigns a kernel (a fault-injected run of it
#: would never end).
REGISTERED_POLICIES = available_policies()


class TestDecodeMemo:
    """``execute_payload`` decodes each distinct DFG, lookup table and
    system once per process, and reuses a decoded object only for an
    equal payload section."""

    @pytest.fixture(autouse=True)
    def empty_memos(self, monkeypatch):
        for name in ("_DECODED_DFGS", "_DECODED_LOOKUPS", "_DECODED_SYSTEMS"):
            monkeypatch.setattr(sweep, name, BoundedLRU(getattr(sweep, name).capacity))

    @pytest.fixture
    def decodes(self, monkeypatch):
        calls: list[str] = []
        original = sweep.dfg_from_dict

        def counted(data):
            calls.append(str(data["name"]))
            return original(data)

        monkeypatch.setattr(sweep, "dfg_from_dict", counted)
        return calls

    def test_plumbing_keys_stay_out_of_the_hash(self, lookup, system):
        job = job_of(lookup, system)
        payload = job.runnable_payload()
        assert payload["dfg_digest"] == hashlib.sha256(
            json.dumps(job.dfg, sort_keys=True, separators=(",", ":")).encode("utf-8")
        ).hexdigest()
        assert payload["lookup_digest"] == job.lookup_digest
        assert hash_payload(payload) == job.content_hash() == oracle_hash(job)

    def test_each_distinct_input_decodes_once(self, decodes):
        spec = paper_spec(1, (PolicySpec.of("apt", alpha=4.0), PolicySpec.of("met")), n_graphs=3)
        payloads = [job.runnable_payload() for job in spec.jobs()]
        _execute_all(payloads)
        assert len(decodes) == 3
        assert (sweep._DECODED_LOOKUPS.held, sweep._DECODED_SYSTEMS.held) == (1, 1)

    def test_two_threads_match_a_serial_run(self, monkeypatch):
        """The service's two inline executor slots, each running a paper
        grid at once on shared decoded inputs, switching every
        microsecond, return the records of a serial run — also while a
        DFG memo too small for the grid's 154 kernels churns."""
        policies = tuple(PolicySpec.at_alpha(n, 4.0) for n in ("apt", "met", "heft", "ss"))
        payloads = [job.runnable_payload() for job in paper_spec(2, policies, n_graphs=3).jobs()]
        serial = _execute_all(payloads)
        monkeypatch.setattr(sweep, "_DECODED_DFGS", BoundedLRU(100))
        outputs: dict[int, list] = {}
        failures: list[BaseException] = []

        def run(slot: int) -> None:
            try:
                order = payloads if slot == 0 else payloads[::-1]
                records = _execute_all(order)
                outputs[slot] = records if slot == 0 else records[::-1]
            except BaseException as exc:  # reported by the main thread
                failures.append(exc)

        threads = [threading.Thread(target=run, args=(slot,)) for slot in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert outputs[0] == serial
        assert outputs[1] == serial
        assert sweep._DECODED_DFGS.held <= 100

    def test_missing_or_wrong_digest_decodes_afresh(self, lookup, system, decodes):
        a = job_of(lookup, system, name="a").runnable_payload()
        b = job_of(lookup, system, name="b").runnable_payload()
        expected_a, expected_b = _execute_all([a, b])
        assert decodes == ["a", "b"]
        # a payload whose digest names another DFG
        wrong = dict(a, dfg_digest=b["dfg_digest"])
        assert execute_payload(wrong) == expected_a
        # a payload without the digest keys
        bare = {k: v for k, v in a.items() if k not in ("dfg_digest", "lookup_digest")}
        assert execute_payload(bare) == expected_a
        assert execute_payload(b) == expected_b
        assert decodes == ["a", "b", "a", "a", "b"]

    def test_kernel_bound_evicts_the_least_recently_used(
        self, lookup, system, decodes, monkeypatch
    ):
        monkeypatch.setattr(sweep, "_DECODED_DFGS", BoundedLRU(8))  # two diamonds
        payloads = {
            name: job_of(lookup, system, name=name).runnable_payload() for name in "abc"
        }
        for name in "abacab":
            execute_payload(payloads[name])
        # c evicts b (least recently used), then b evicts c
        assert decodes == ["a", "b", "c", "b"]
        assert sweep._DECODED_DFGS.held == 8

    def test_memoized_inputs_are_left_unchanged(self):
        """Every registered policy, on a contended bus under fault
        injection, runs on one decoded DFG, table and system; none of
        them changes."""
        base = get_scenario("faulty_edge_cluster")
        assert base.dynamics and base.system["topology"]["contention"]
        spec = dataclasses.replace(
            base, policies=tuple(PolicySpec.at_alpha(n, 4.0) for n in REGISTERED_POLICIES)
        )
        jobs = spec.jobs()
        payload = jobs[0].runnable_payload()
        _execute_all([job.runnable_payload() for job in jobs])
        _, dfg = sweep._DECODED_DFGS.get(payload["dfg_digest"])
        _, table = sweep._DECODED_LOOKUPS.get(payload["lookup_digest"])
        [(_, system)] = [sweep._DECODED_SYSTEMS.get(sweep._canonical(payload["system"]))]
        assert dfg_to_dict(dfg) == jobs[0].dfg
        assert table.to_records() == jobs[0].lookup
        assert system_to_dict(system) == jobs[0].system


class TestBoundedLRU:
    def test_replacing_a_key_reweighs_it(self):
        memo = BoundedLRU(10)
        memo.put("a", "A", 4)
        memo.put("a", "A2", 6)
        assert (memo.get("a"), memo.held) == ("A2", 6)
