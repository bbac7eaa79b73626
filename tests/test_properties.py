"""Property-based tests (hypothesis) on core invariants.

Strategy summary: random workloads are layered DAGs over the synthetic
kernel population; random policies span the dynamic + static registry.
Every generated (workload, policy) pair must produce a schedule that is
feasible, complete, deterministic and bounded below by the graph-theoretic
makespan bounds.  The static list schedulers' plans are checked on their
own, over multi-instance systems with transfers on and off.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cost import CostModel
from repro.core.events import Event, EventKind, EventQueue
from repro.core.lookup import LookupEntry, LookupTable
from repro.core.metrics import LambdaStats
from repro.core.simulator import Simulator
from repro.core.system import CPU_GPU_FPGA, ProcessorType
from repro.graphs.analysis import lower_bound_makespan, sequential_time
from repro.graphs.dfg import DFG
from repro.graphs.generators import KernelPopulation, make_layered_dfg
from repro.graphs.serialization import dfg_from_dict, dfg_to_dict
from repro.kernels.nw import NeedlemanWunschKernel, nw_score_matrix_reference
from repro.policies.apt import APT
from repro.policies.cpop import CPOP, critical_path_kernels
from repro.policies.met import MET
from repro.policies.registry import get_policy
from tests.conftest import SYNTH_SIZE, make_synthetic_lookup, make_synth_population

SYSTEM = CPU_GPU_FPGA(transfer_rate_gbps=4.0)
LOOKUP = make_synthetic_lookup()
POPULATION = make_synth_population()
#: population without ties between platforms (for MET-equivalence laws).
TIE_FREE_POPULATION = KernelPopulation(
    tuple((k, SYNTH_SIZE) for k in ("fast_cpu", "fast_gpu", "fast_fpga"))
)

POLICY_NAMES = ("apt", "apt_rt", "met", "spn", "ss", "ag", "olb", "heft", "peft")
STATIC_NAMES = ("heft", "peft", "cpop")


@st.composite
def random_dfg(draw, population=POPULATION) -> DFG:
    n = draw(st.integers(min_value=1, max_value=24))
    n_layers = draw(st.integers(min_value=1, max_value=min(n, 5)))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    prob = draw(st.floats(min_value=0.0, max_value=1.0))
    return make_layered_dfg(
        n, n_layers, rng=np.random.default_rng(seed),
        population=population, edge_probability=prob,
    )


@st.composite
def random_cost(draw) -> CostModel:
    """0–2 CPUs, GPUs and FPGAs (at least one processor) on uniform links,
    with transfers on or off."""
    counts = draw(st.tuples(*(st.integers(min_value=0, max_value=2),) * 3).filter(any))
    rate = draw(st.sampled_from((1.0, 4.0, 16.0)))
    return CostModel(
        CPU_GPU_FPGA(rate, *counts), LOOKUP, transfers_enabled=draw(st.booleans())
    )


def _policy(name: str):
    if name in ("apt", "apt_rt"):
        return get_policy(name, alpha=4.0)
    return get_policy(name)


class TestScheduleFeasibility:
    @settings(max_examples=40, deadline=None)
    @given(dfg=random_dfg(), policy_name=st.sampled_from(POLICY_NAMES))
    def test_every_policy_yields_feasible_complete_schedule(self, dfg, policy_name):
        sim = Simulator(SYSTEM, LOOKUP)
        result = sim.run(dfg, _policy(policy_name))
        result.schedule.validate(dfg)  # dependencies + no overlap
        assert len(result.schedule) == len(dfg)

    @settings(max_examples=25, deadline=None)
    @given(dfg=random_dfg(), policy_name=st.sampled_from(POLICY_NAMES))
    def test_makespan_bounded_below(self, dfg, policy_name):
        sim = Simulator(SYSTEM, LOOKUP)
        result = sim.run(dfg, _policy(policy_name))
        bound = lower_bound_makespan(dfg, LOOKUP, SYSTEM)
        assert result.makespan >= bound - 1e-9

    @settings(max_examples=25, deadline=None)
    @given(dfg=random_dfg())
    def test_met_makespan_bounded_above_by_serialized_best(self, dfg):
        # MET executes every kernel on its best processor; even fully
        # serialized that is Σ best times (no transfers between waits
        # exceed this since best-processor execution has no transfer
        # longer than the serialized schedule's slack).
        sim = Simulator(SYSTEM, LOOKUP, transfers_enabled=False)
        result = sim.run(dfg, MET())
        assert result.makespan <= sequential_time(dfg, LOOKUP, SYSTEM) + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(dfg=random_dfg(), policy_name=st.sampled_from(POLICY_NAMES))
    def test_determinism(self, dfg, policy_name):
        sim = Simulator(SYSTEM, LOOKUP)
        a = sim.run(dfg, _policy(policy_name))
        b = sim.run(dfg, _policy(policy_name))
        assert a.makespan == b.makespan
        assert [(e.kernel_id, e.processor) for e in a.schedule] == [
            (e.kernel_id, e.processor) for e in b.schedule
        ]


class TestStaticPlanProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        dfg=random_dfg(),
        cost=random_cost(),
        policy_name=st.sampled_from(STATIC_NAMES),
    )
    def test_planned_times_are_consistent(self, dfg, cost, policy_name):
        plan = get_policy(policy_name).plan(dfg, cost)
        system = cost.system
        kernels = set(dfg.kernel_ids())
        assert set(plan.processor_of) == kernels
        assert set(plan.planned_start) == set(plan.planned_finish) == kernels
        assert all(proc in system for proc in plan.processor_of.values())
        on: dict[str, list[tuple[float, float]]] = {}
        for k in kernels:
            spec = dfg.spec(k)
            proc = plan.processor_of[k]
            start, finish = plan.planned_start[k], plan.planned_finish[k]
            # the planner's own float operation, so the check is exact
            w = cost.exec_time(spec.kernel, spec.data_size, system[proc].ptype)
            assert finish == start + w
            nbytes = cost.data_bytes(spec.data_size)
            for pred in dfg.predecessors(k):
                comm = cost.transfer_time_ms(plan.processor_of[pred], proc, nbytes)
                assert start >= plan.planned_finish[pred] + comm
            on.setdefault(proc, []).append((start, finish))
        for intervals in on.values():
            intervals.sort()
            # overlap at most the insertion tolerance
            for (_, finish), (start, _) in zip(intervals, intervals[1:]):
                assert finish <= start + 1e-12
        by_priority = sorted(kernels, key=plan.priority.__getitem__)
        starts = [plan.planned_start[k] for k in by_priority]
        assert starts == sorted(starts)

    @settings(max_examples=30, deadline=None)
    @given(dfg=random_dfg(), cost=random_cost())
    def test_cpop_critical_path_shares_one_processor(self, dfg, cost):
        plan = CPOP().plan(dfg, cost)
        cp = critical_path_kernels(dfg, cost)
        assert cp
        assert len({plan.processor_of[k] for k in cp}) == 1


class TestAPTLaws:
    @settings(max_examples=30, deadline=None)
    @given(dfg=random_dfg(population=TIE_FREE_POPULATION))
    def test_alpha_one_equals_met_without_ties(self, dfg):
        # With strictly heterogeneous kernels no alternative can satisfy
        # exec ≤ 1·x, so APT(1) degenerates to MET exactly.
        sim = Simulator(SYSTEM, LOOKUP)
        apt = sim.run(dfg, APT(alpha=1.0))
        met = sim.run(dfg, MET())
        assert apt.makespan == pytest.approx(met.makespan)
        assert apt.metrics.n_alternative_assignments == 0

    @settings(max_examples=30, deadline=None)
    @given(dfg=random_dfg(), alpha=st.floats(min_value=1.0, max_value=32.0))
    def test_alternative_cost_within_threshold(self, dfg, alpha):
        # Every alternative assignment's exec+transfer must satisfy the
        # threshold inequality against the kernel's best-case time.
        sim = Simulator(SYSTEM, LOOKUP)
        result = sim.run(dfg, APT(alpha=alpha))
        for e in result.schedule:
            if e.used_alternative:
                _, x = LOOKUP.best_processor(
                    e.kernel, e.data_size, SYSTEM.processor_types()
                )
                cost = e.exec_time + e.transfer_time
                assert cost <= alpha * x + 1e-9


class TestLookupProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        sizes=st.lists(
            st.integers(min_value=10, max_value=10**7), min_size=2, max_size=6,
            unique=True,
        ),
        times=st.lists(
            st.floats(min_value=0.01, max_value=10**5), min_size=6, max_size=6
        ),
        query=st.integers(min_value=10, max_value=10**7),
    )
    def test_interpolation_between_series_extremes(self, sizes, times, query):
        sizes = sorted(sizes)
        entries = [
            LookupEntry("k", s, ProcessorType.CPU, times[i])
            for i, s in enumerate(sizes)
        ]
        table = LookupTable(entries)
        value = table.time("k", query, ProcessorType.CPU)
        assert value > 0
        if sizes[0] <= query <= sizes[-1]:
            lo = min(times[: len(sizes)])
            hi = max(times[: len(sizes)])
            assert lo * (1 - 1e-9) <= value <= hi * (1 + 1e-9)

    @settings(max_examples=30, deadline=None)
    @given(query=st.sampled_from([250_000, 1_000_000, 16_000_000]))
    def test_exact_points_returned_verbatim(self, query):
        from repro.data.paper_tables import paper_lookup_table, _TABLE14

        table = paper_lookup_table()
        cpu, gpu, fpga = _TABLE14["matinv"][query]
        assert table.time("matinv", query, ProcessorType.CPU) == cpu
        assert table.time("matinv", query, ProcessorType.GPU) == gpu


class TestEventQueueProperties:
    @settings(max_examples=50, deadline=None)
    @given(times=st.lists(st.floats(min_value=0, max_value=1e6), max_size=60))
    def test_pop_order_is_sorted(self, times):
        q = EventQueue()
        for t in times:
            q.push(Event(t, EventKind.KERNEL_COMPLETE))
        popped = [q.pop().time for _ in range(len(times))]
        assert popped == sorted(times)


class TestMetricsProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        delays=st.lists(st.floats(min_value=0, max_value=1e5), max_size=40)
    )
    def test_lambda_stats_internal_consistency(self, delays):
        st_ = LambdaStats.from_delays(delays)
        assert st_.total == pytest.approx(st_.average * st_.count)
        assert st_.stddev >= 0
        assert st_.count <= len(delays)


class TestSerializationProperties:
    @settings(max_examples=30, deadline=None)
    @given(dfg=random_dfg())
    def test_round_trip_identity(self, dfg):
        back = dfg_from_dict(dfg_to_dict(dfg))
        assert back.kernel_ids() == dfg.kernel_ids()
        assert back.edges() == dfg.edges()
        assert [back.spec(i) for i in back] == [dfg.spec(i) for i in dfg]


class TestKernelProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=12),
        m=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_nw_vectorized_equals_reference(self, n, m, seed):
        rng = np.random.default_rng(seed)
        k = NeedlemanWunschKernel()
        seq1 = rng.integers(0, 4, size=n).astype(np.int8)
        seq2 = rng.integers(0, 4, size=m).astype(np.int8)
        out = k.run(seq1=seq1, seq2=seq2)
        ref = nw_score_matrix_reference(seq1, seq2, k.match, k.mismatch, k.gap)
        assert np.array_equal(out, ref)
