"""Tests for the open-system streaming path (``Simulator.run_stream``).

Bit-for-bit equivalence against the merged-DFG path is asserted in
``tests/test_simulator_equivalence.py``; this module covers the
streaming path's own contracts: bounded-memory retirement, eager-vs-lazy
source equality, the accumulator (no-schedule) mode, service-level
metrics, and the static-policy clairvoyant fallback.
"""

from __future__ import annotations

import pytest

from repro.core.metrics import AppSpan, compute_service_metrics
from repro.core.simulator import Simulator
from repro.data.paper_tables import paper_lookup_table
from repro.experiments.workloads import (
    mixed_application_factory,
    open_system_source,
    scale_system,
    streaming_scale_source,
    streaming_scale_stream,
)
from repro.graphs.sources import EagerSource, GeneratorSource, PoissonProfile
from repro.graphs.streams import ApplicationArrival, ApplicationStream
from repro.policies.heft import HEFT
from repro.policies.registry import get_policy
from tests.test_simulator import dfg_of


@pytest.fixture(scope="module")
def lookup():
    return paper_lookup_table()


def two_app_stream(t2: float = 40.0) -> ApplicationStream:
    return ApplicationStream(
        [
            ApplicationArrival(dfg_of("fast_cpu", "fast_gpu", deps=[(0, 1)]), 0.0),
            ApplicationArrival(dfg_of("fast_gpu", "fast_cpu", deps=[(0, 1)]), t2),
        ]
    )


class TestRunStreamBasics:
    def test_accepts_stream_and_source(self, synth_sim):
        stream = two_app_stream()
        a = synth_sim.run_stream(stream, get_policy("met"))
        b = synth_sim.run_stream(EagerSource(stream, name="stream"), get_policy("met"))
        assert list(a.schedule) == list(b.schedule)
        assert a.stream.n_applications == 2
        assert a.stream.n_kernels == 4

    def test_rejects_non_policy(self, synth_sim):
        with pytest.raises(TypeError):
            synth_sim.run_stream(two_app_stream(), object())

    def test_simultaneous_arrivals_share_a_batch(self, synth_sim):
        # two applications with identical arrival floats must be admitted
        # together, exactly like their merged-path KERNEL_READY events
        stream = ApplicationStream(
            [
                ApplicationArrival(dfg_of("fast_cpu"), 0.0),
                ApplicationArrival(dfg_of("fast_cpu"), 25.0),
                ApplicationArrival(dfg_of("fast_gpu"), 25.0),
            ]
        )
        merged, arrivals = stream.merged(name="stream")
        ref = synth_sim.run(merged, get_policy("met"), arrivals=arrivals)
        out = synth_sim.run_stream(stream, get_policy("met"))
        assert list(out.schedule) == list(ref.schedule)

    def test_all_kernels_retired_at_end(self, synth_sim):
        out = synth_sim.run_stream(two_app_stream(), get_policy("apt"))
        assert out.stream.retired_kernels == out.stream.n_kernels
        assert 0 < out.stream.peak_resident_kernels <= out.stream.n_kernels


class TestRetainScheduleOff:
    def test_metrics_and_service_identical_without_schedule(self, lookup):
        src = open_system_source(
            n_applications=12, seed=7, profile="poisson", mean_interarrival_ms=2000.0
        )
        sim = Simulator(scale_system(n_cpu=2, n_gpu=2, n_fpga=2), lookup)
        kept = sim.run_stream(src, get_policy("apt"))
        dropped = sim.run_stream(src, get_policy("apt"), retain_schedule=False)
        assert dropped.schedule is None
        assert dropped.metrics == kept.metrics
        assert dropped.service == kept.service
        assert dropped.stream == kept.stream


class TestStaticPolicyClairvoyantFallback:
    def test_static_policy_matches_merged_run(self, synth_sim):
        stream = two_app_stream()
        merged, arrivals = stream.merged(name="stream")
        ref = synth_sim.run(merged, HEFT(), arrivals=arrivals)
        out = synth_sim.run_stream(EagerSource(stream, name="stream"), HEFT())
        assert list(out.schedule) == list(ref.schedule)
        # clairvoyant: the whole stream is resident, nothing is retired
        assert out.stream.peak_resident_kernels == out.stream.n_kernels
        assert out.stream.retired_kernels == 0
        assert out.service.n_applications == 2


class TestServiceMetrics:
    def test_response_and_queueing_anchored_at_arrival(self, synth_sim):
        out = synth_sim.run_stream(two_app_stream(t2=1000.0), get_policy("met"))
        rec = out.service.records[1]
        assert rec.arrival_ms == 1000.0
        # sparse stream: the second app starts at its arrival instant
        assert rec.queueing_ms == pytest.approx(0.0)
        assert rec.response_ms == pytest.approx(rec.finish_ms - 1000.0)
        assert rec.slowdown >= 1.0 - 1e-9

    def test_batch_equals_accumulated(self, lookup):
        src = open_system_source(
            n_applications=10, seed=3, profile="burst",
            burst_size=3, within_burst_ms=50.0, between_bursts_ms=5000.0,
        )
        sim = Simulator(scale_system(n_cpu=2, n_gpu=2, n_fpga=2), lookup)
        out = sim.run_stream(src, get_policy("apt"))
        stream = src.materialize()
        spans = []
        offset = 0
        for app in stream:
            spans.append(AppSpan(app.arrival_ms, offset, offset + len(app.dfg)))
            offset += len(app.dfg)
        merged, _ = stream.merged(name=src.name)
        batch = compute_service_metrics(out.schedule, spans, dfg=merged, cost=sim.cost)
        assert batch == out.service

    def test_rolling_windows_cover_horizon(self, lookup):
        src = open_system_source(
            n_applications=8, seed=1, profile="poisson", mean_interarrival_ms=1000.0
        )
        sim = Simulator(scale_system(n_cpu=2, n_gpu=2, n_fpga=2), lookup)
        out = sim.run_stream(src, get_policy("met"))
        windows = out.service.rolling(window_ms=10_000.0)
        assert windows[-1].t_hi_ms >= out.service.horizon_ms
        assert sum(w.arrived for w in windows) == 8
        assert sum(w.completed for w in windows) == 8


class TestBoundedMemory:
    def test_50k_kernel_stream_is_memory_bounded(self, lookup):
        """The acceptance scenario: a ≥50k-kernel lazily-generated stream
        completes with peak resident kernels a small multiple of the
        in-flight concurrency — two orders of magnitude below the stream
        length — and every kernel retired."""
        source = GeneratorSource(
            4200,
            mixed_application_factory(),
            PoissonProfile(3000.0),
            seed=2017,
            name="bounded_50k",
        )
        sim = Simulator(scale_system(), lookup)
        out = sim.run_stream(source, get_policy("met"), retain_schedule=False)
        stats = out.stream
        assert stats.n_kernels >= 50_000
        assert stats.retired_kernels == stats.n_kernels
        # ~12-kernel applications on a 12-processor system at 1/3s: the
        # resident window is a few dozen applications, not thousands.
        assert stats.peak_resident_kernels <= stats.n_kernels // 50
        assert out.service.n_applications == 4200

    def test_peak_tracks_concurrency_not_length(self, lookup):
        # doubling the stream length must not move the peak once the
        # system reaches steady state (same arrival rate, same pool)
        sim = Simulator(scale_system(), lookup)
        peaks = []
        for n_apps in (150, 300):
            src = GeneratorSource(
                n_apps, mixed_application_factory(), PoissonProfile(3000.0), seed=11
            )
            out = sim.run_stream(src, get_policy("met"), retain_schedule=False)
            peaks.append(out.stream.peak_resident_kernels)
        assert peaks[1] <= peaks[0] * 1.5


class TestScaleStreamSource:
    def test_lazy_source_matches_eager_stream(self):
        """streaming_scale_source replays streaming_scale_stream's RNG
        consumption exactly — eager and lazy forms are bit-identical."""
        eager = streaming_scale_stream(3000, seed=5, mean_interarrival_ms=400.0)
        source = streaming_scale_source(3000, seed=5, mean_interarrival_ms=400.0)
        lazy = source.materialize()
        assert len(lazy) == len(eager) == len(source)
        assert source.total_kernels == eager.n_kernels
        for a, b in zip(eager, lazy):
            assert a.arrival_ms == b.arrival_ms
            assert a.dfg.name == b.dfg.name
            specs_a = [a.dfg.spec(k) for k in a.dfg.kernel_ids()]
            specs_b = [b.dfg.spec(k) for k in b.dfg.kernel_ids()]
            assert [
                (s.kernel, s.data_size) for s in specs_a
            ] == [(s.kernel, s.data_size) for s in specs_b]
            assert a.dfg.edges() == b.dfg.edges()

    def test_source_validates_parameters(self):
        with pytest.raises(ValueError):
            streaming_scale_source(4)
        with pytest.raises(ValueError):
            streaming_scale_source(100, mean_interarrival_ms=0.0)


class TestStreamEdgeCases:
    def test_single_kernel_app(self, synth_sim):
        stream = ApplicationStream([ApplicationArrival(dfg_of("fast_cpu"), 0.0)])
        out = synth_sim.run_stream(stream, get_policy("met"))
        assert out.stream.n_kernels == 1
        assert out.service.records[0].n_kernels == 1

    def test_arrival_after_long_idle(self, synth_sim):
        out = synth_sim.run_stream(two_app_stream(t2=10_000.0), get_policy("met"))
        assert out.metrics.makespan >= 10_000.0
        assert out.service.records[1].queueing_ms == pytest.approx(0.0)

    def test_source_name_reported(self, synth_sim):
        src = EagerSource(two_app_stream(), name="my_stream")
        out = synth_sim.run_stream(src, get_policy("met"))
        assert out.source_name == "my_stream"


class TestContextExposesOnlyArrivedWork:
    def test_policy_sees_only_admitted_kernels(self, synth_sim):
        """The streaming context's graph facade holds arrived, unretired
        kernels only — a dynamic policy cannot observe the future."""
        seen: list[int] = []
        from repro.policies.base import Assignment, DynamicPolicy

        class Spy(DynamicPolicy):
            name = "spy"

            def select(self, ctx):
                seen.append(len(ctx.dfg))
                return [
                    Assignment(kernel_id=k, processor=ctx.idle_processors()[0].name)
                    for k in ctx.ready[:1]
                    if ctx.idle_processors()
                ]

        synth_sim.run_stream(two_app_stream(t2=500.0), Spy())
        # before the second app arrives, at most the first app (2 kernels,
        # possibly partly retired) is visible
        assert seen[0] <= 2
        assert max(seen) <= 4
