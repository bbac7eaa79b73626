"""Tests for streaming arrivals (online workloads)."""

import pytest

from repro.graphs.dfg import DFG
from repro.graphs.sources import BurstProfile, GeneratorSource, PoissonProfile
from repro.graphs.streams import ApplicationArrival, ApplicationStream
from repro.policies.apt import APT
from repro.policies.met import MET
from repro.policies.olb import OLB
from tests.test_simulator import dfg_of


def two_kernel_app(kernel="fast_cpu") -> DFG:
    return dfg_of(kernel, kernel, deps=[(0, 1)])


class TestSimulatorArrivals:
    def test_kernel_not_started_before_arrival(self, synth_sim):
        dfg = dfg_of("fast_cpu")
        result = synth_sim.run(dfg, MET(), arrivals={0: 25.0})
        e = result.schedule[0]
        assert e.arrival_time == 25.0
        assert e.exec_start == pytest.approx(25.0)
        assert e.lambda_delay == pytest.approx(0.0)

    def test_ready_is_max_of_arrival_and_dependencies(self, synth_sim):
        # kernel 1 depends on kernel 0 (finishes at 10) but arrives at 50.
        dfg = dfg_of("fast_cpu", "fast_cpu", deps=[(0, 1)])
        result = synth_sim.run(dfg, MET(), arrivals={1: 50.0})
        assert result.schedule[1].ready_time == pytest.approx(50.0)
        assert result.schedule[1].exec_start == pytest.approx(50.0)

    def test_dependency_later_than_arrival(self, synth_sim):
        dfg = dfg_of("fast_cpu", "fast_cpu", deps=[(0, 1)])
        result = synth_sim.run(dfg, MET(), arrivals={1: 3.0})
        # deps finish at 10 > arrival 3
        assert result.schedule[1].ready_time == pytest.approx(10.0)
        assert result.schedule[1].lambda_delay == pytest.approx(7.0)

    def test_late_arrival_keeps_processors_busy_with_other_work(self, synth_sim):
        dfg = dfg_of("fast_cpu", "fast_gpu")
        result = synth_sim.run(dfg, MET(), arrivals={1: 2.0})
        assert result.schedule[0].exec_start == 0.0
        assert result.schedule[1].exec_start == pytest.approx(2.0)

    def test_unknown_kernel_arrival_rejected(self, synth_sim):
        with pytest.raises(KeyError):
            synth_sim.run(dfg_of("fast_cpu"), MET(), arrivals={9: 1.0})

    def test_negative_arrival_rejected(self, synth_sim):
        with pytest.raises(ValueError):
            synth_sim.run(dfg_of("fast_cpu"), MET(), arrivals={0: -1.0})

    def test_lambda_anchored_at_arrival(self, synth_sim):
        # Two fast_gpu kernels, second arrives at 5: it waits for the GPU
        # until 10, so λ = 10 − 5 = 5.
        dfg = dfg_of("fast_gpu", "fast_gpu")
        result = synth_sim.run(dfg, MET(), arrivals={1: 5.0})
        assert result.schedule[1].lambda_delay == pytest.approx(5.0)

    def test_schedule_still_validates(self, synth_sim):
        dfg = dfg_of("fast_cpu", "fast_gpu", "uniform", deps=[(0, 2)])
        result = synth_sim.run(dfg, OLB(), arrivals={1: 7.0, 2: 12.0})
        result.schedule.validate(dfg)


class TestApplicationStream:
    def test_merged_renumbers_contiguously(self):
        stream = ApplicationStream(
            [
                ApplicationArrival(two_kernel_app(), 0.0),
                ApplicationArrival(two_kernel_app("fast_gpu"), 40.0),
            ]
        )
        merged, arrivals = stream.merged()
        assert merged.kernel_ids() == [0, 1, 2, 3]
        assert merged.edges() == [(0, 1), (2, 3)]
        assert arrivals == {0: 0.0, 1: 0.0, 2: 40.0, 3: 40.0}

    def test_applications_sorted_by_arrival(self):
        stream = ApplicationStream(
            [
                ApplicationArrival(two_kernel_app(), 50.0),
                ApplicationArrival(two_kernel_app(), 0.0),
            ]
        )
        assert [a.arrival_ms for a in stream] == [0.0, 50.0]

    def test_counts(self):
        stream = ApplicationStream([ApplicationArrival(two_kernel_app(), 5.0)])
        assert len(stream) == 1
        assert stream.n_kernels == 2
        assert stream.last_arrival_ms == 5.0

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            ApplicationStream([])

    def test_empty_application_rejected(self):
        with pytest.raises(ValueError):
            ApplicationArrival(DFG(), 0.0)

    def test_merged_runs_end_to_end(self, synth_sim):
        stream = ApplicationStream(
            [
                ApplicationArrival(two_kernel_app(), 0.0),
                ApplicationArrival(two_kernel_app("fast_gpu"), 15.0),
            ]
        )
        merged, arrivals = stream.merged()
        result = synth_sim.run(merged, APT(alpha=4.0), arrivals=arrivals)
        result.schedule.validate(merged)
        # the second app's kernels cannot start before t=15
        assert all(
            result.schedule[k].exec_start >= 15.0 for k in (2, 3)
        )


class TestStreamGenerators:
    def test_poisson_first_arrival_at_zero(self):
        stream = GeneratorSource(
            5, lambda i, r: two_kernel_app(), PoissonProfile(100.0), seed=0
        ).materialize()
        assert [a.arrival_ms for a in stream][0] == 0.0
        assert len(stream) == 5

    def test_poisson_deterministic_given_seed(self):
        a = GeneratorSource(
            6, lambda i, r: two_kernel_app(), PoissonProfile(50.0), seed=3
        ).materialize()
        b = GeneratorSource(
            6, lambda i, r: two_kernel_app(), PoissonProfile(50.0), seed=3
        ).materialize()
        assert [x.arrival_ms for x in a] == [x.arrival_ms for x in b]

    def test_poisson_parameter_validation(self):
        with pytest.raises(ValueError):
            GeneratorSource(0, lambda i, r: two_kernel_app(), PoissonProfile(10.0), 0)
        with pytest.raises(ValueError):
            GeneratorSource(3, lambda i, r: two_kernel_app(), PoissonProfile(0.0), 0)

    def test_periodic_spacing(self):
        # bursts of one are a fixed period
        stream = GeneratorSource(
            4, lambda i, r: two_kernel_app(), BurstProfile(1, 0.0, 25.0), seed=0
        ).materialize()
        assert [a.arrival_ms for a in stream] == [0.0, 25.0, 50.0, 75.0]

    def test_factory_receives_index(self):
        seen = []
        GeneratorSource(
            3,
            lambda i, r: (seen.append(i), two_kernel_app())[1],
            PoissonProfile(1.0),
            seed=0,
        ).materialize()
        assert seen == [0, 1, 2]


class TestStreamingBehaviour:
    def test_saturated_stream_apt_beats_met(self, synth_sim_no_transfer, rng):
        # A bursty stream of GPU-favourite work: MET funnels everything to
        # the GPU while APT spills within the threshold.
        apps = [
            ApplicationArrival(dfg_of("fast_gpu", "fast_gpu", "fast_gpu"), i * 5.0)
            for i in range(4)
        ]
        merged, arrivals = ApplicationStream(apps).merged()
        met = synth_sim_no_transfer.run(merged, MET(), arrivals=arrivals)
        apt = synth_sim_no_transfer.run(merged, APT(alpha=5.0), arrivals=arrivals)
        assert apt.makespan < met.makespan

    def test_sparse_stream_has_no_queueing(self, synth_sim):
        # Inter-arrival far above service time: every kernel starts at its
        # arrival instant, λ = 0.  Bursts of one are a fixed period.
        stream = GeneratorSource(
            3, lambda i, r: dfg_of("fast_cpu"), BurstProfile(1, 0.0, 1_000.0), seed=0
        ).materialize()
        merged, arrivals = stream.merged()
        result = synth_sim.run(merged, MET(), arrivals=arrivals)
        assert result.metrics.lambda_stats.total == pytest.approx(0.0)


# ----------------------------------------------------------------------
# property-based guard on the merged() id renumbering
# ----------------------------------------------------------------------
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.graphs.dfg import KernelSpec  # noqa: E402


@st.composite
def _random_app(draw):
    """A small random DAG (forward edges only, so acyclic by construction)."""
    n = draw(st.integers(min_value=1, max_value=6))
    edges = sorted(
        draw(
            st.sets(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1)
                ).filter(lambda e: e[0] < e[1]),
                max_size=8,
            )
        )
    )
    kernels = [
        KernelSpec(draw(st.sampled_from(["fast_cpu", "fast_gpu", "uniform"])), 1_000_000)
        for _ in range(n)
    ]
    return DFG.from_kernels(kernels, dependencies=edges)


@st.composite
def _random_stream(draw):
    apps = draw(st.lists(_random_app(), min_size=1, max_size=6))
    arrivals = [
        draw(st.floats(0.0, 500.0, allow_nan=False, allow_infinity=False))
        for _ in apps
    ]
    return ApplicationStream(
        [ApplicationArrival(dfg, t) for dfg, t in zip(apps, arrivals)]
    )


class TestMergedProperties:
    """The EventQueue/ApplicationStream id-renumbering contract: a merged
    stream preserves every edge, the arrival ordering, and each
    application's internal topology."""

    @settings(max_examples=60, deadline=None)
    @given(stream=_random_stream())
    def test_merged_preserves_structure(self, stream):
        merged, arrivals = stream.merged()
        apps = list(stream)  # sorted by arrival time (stable)

        # contiguous ids, one per source kernel, every id has an arrival
        n_total = sum(len(a.dfg) for a in apps)
        assert sorted(merged.kernel_ids()) == list(range(n_total))
        assert set(arrivals) == set(range(n_total))

        # block renumbering: app k owns ids [offset, offset + len)
        offset = 0
        expected_edges = []
        for app in apps:
            ids = app.dfg.kernel_ids()
            id_map = {kid: offset + i for i, kid in enumerate(ids)}
            # every kernel keeps its spec and inherits the app's arrival
            for kid in ids:
                assert merged.spec(id_map[kid]) == app.dfg.spec(kid)
                assert arrivals[id_map[kid]] == app.arrival_ms
            # internal topology is preserved under the renumbering
            expected_edges.extend(
                (id_map[u], id_map[v]) for u, v in app.dfg.edges()
            )
            offset += len(app.dfg)

        # exactly the per-application edges — nothing lost, nothing added,
        # and never an edge between two different applications
        assert sorted(merged.edges()) == sorted(expected_edges)

        # arrival ordering: ids are non-decreasing in application arrival
        # time (kernel id doubles as FCFS arrival order)
        id_arrivals = [arrivals[k] for k in sorted(arrivals)]
        app_spans = []
        offset = 0
        for app in apps:
            app_spans.append((offset, offset + len(app.dfg)))
            offset += len(app.dfg)
        for (lo, hi), app in zip(app_spans, apps):
            assert all(id_arrivals[i] == app.arrival_ms for i in range(lo, hi))
        assert id_arrivals == sorted(id_arrivals)

    @settings(max_examples=30, deadline=None)
    @given(stream=_random_stream())
    def test_merged_simulates_cleanly(self, stream):
        """Every merged stream is a valid simulator input."""
        from repro.core.simulator import Simulator
        from repro.core.system import CPU_GPU_FPGA
        from tests.conftest import make_synthetic_lookup

        merged, arrivals = stream.merged()
        sim = Simulator(CPU_GPU_FPGA(), make_synthetic_lookup())
        result = sim.run(merged, OLB(), arrivals=arrivals)
        assert len(result.schedule) == len(merged)


class TestPoissonStreamProperties:
    """Determinism law of a Poisson GeneratorSource: a fixed seed pins
    the whole arrival process, bit for bit.  (The cross-*process* form of this
    guarantee — a fresh interpreter reproduces the same floats — is
    checked in tests/test_sources.py.)"""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=25),
        mean=st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_fixed_seed_is_bitwise_stable(self, n, mean, seed):
        def factory(i, rng):
            return dfg_of("fast_cpu")

        a = GeneratorSource(n, factory, PoissonProfile(mean), seed).materialize()
        b = GeneratorSource(n, factory, PoissonProfile(mean), seed).materialize()
        times_a = [x.arrival_ms for x in a]
        times_b = [x.arrival_ms for x in b]
        # bitwise equality, not approx: the sweep cache rests on exact
        # floats
        assert times_a == times_b
        assert times_a[0] == 0.0
        assert times_a == sorted(times_a)
        assert a.last_arrival_ms == times_a[-1]
