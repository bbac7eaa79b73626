"""The engine's candidate index: FCFS buckets of ready kernels.

A driver that overrides :meth:`~repro.policies.base.DynamicPolicy.
placement_types` gets its ready kernels filed per processor category;
APT then walks only the buckets of categories with a free processor.
These tests pin the bucket invariant, the guard that protects it, and
the work the walk saves (as a call count, not a timing).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import CostModel
from repro.core.engine import EngineCore, _ReadyQueue
from repro.core.simulator import Simulator
from repro.core.system import ProcessorType
from repro.data.paper_tables import paper_lookup_table
from repro.experiments.workloads import scale_system, streaming_scale_source
from repro.policies.apt import APT
from repro.policies.apt_rt import APT_RT
from repro.policies.base import SchedulingContext
from repro.policies.met import MET

CPU, GPU, FPGA = ProcessorType.CPU, ProcessorType.GPU, ProcessorType.FPGA

#: cost class → categories; a kernel's class is its id modulo the count.
CLASSES: tuple[tuple[ProcessorType, ...], ...] = (
    (GPU,),
    (CPU, GPU),
    (FPGA,),
    (FPGA, CPU, GPU),
    (CPU,),
)
KERNELS = 12


def classify(kid: int) -> tuple[ProcessorType, ...]:
    return CLASSES[kid % len(CLASSES)]


def assert_buckets_match(queue: _ReadyQueue, model: list[int]) -> None:
    order = queue.as_tuple()
    assert list(order) == model
    buckets = queue.buckets
    assert buckets is not None
    for ptype in (CPU, GPU, FPGA):
        bucket = buckets.get(ptype, {})
        assert list(bucket) == [k for k in order if ptype in classify(k)]
        seqs = list(bucket.values())
        assert seqs == sorted(set(seqs))  # FCFS: strictly increasing


class TestReadyQueueIndex:
    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(("add", "remove", "abort")),
                st.integers(min_value=0, max_value=KERNELS - 1),
            ),
            max_size=60,
        )
    )
    def test_buckets_list_exactly_the_ready_kernels_in_fcfs_order(self, ops):
        queue = _ReadyQueue(classify)
        model: list[int] = []
        for op, kid in ops:
            if op == "add":
                if kid in model:
                    with pytest.raises(ValueError, match="already ready"):
                        queue.add(kid)
                else:
                    queue.add(kid)
                    model.append(kid)
            elif kid in model:
                queue.remove(kid)
                model.remove(kid)
                if op == "abort":  # back to the ready set, at the back
                    queue.add(kid)
                    model.append(kid)
            assert_buckets_match(queue, model)
            assert len(queue) == len(model)
            assert all(k in queue for k in model)

    def test_add_rejects_a_kernel_already_ready(self):
        for queue in (_ReadyQueue(), _ReadyQueue(classify)):
            queue.add(3)
            with pytest.raises(ValueError, match="kernel 3 is already ready"):
                queue.add(3)
            assert queue.as_tuple() == (3,)

    def test_no_classifier_means_no_buckets(self):
        queue = _ReadyQueue()
        queue.add(1)
        assert queue.buckets is None


class _Spec:
    kernel = "bfs"
    data_size = 2034736


class TestEngineWiring:
    @pytest.fixture
    def cost(self):
        return CostModel(scale_system(), paper_lookup_table())

    def test_index_only_for_drivers_overriding_placement_types(self, cost):
        for driver, indexed in ((APT(), True), (APT_RT(), True), (MET(), False)):
            engine = EngineCore(cost.system, cost, driver, driver)
            assert (engine.ready.buckets is not None) is indexed
            assert (engine.make_context().ready_by_type is not None) is indexed

    def test_apt_placement_types_is_the_exec_time_threshold(self, cost):
        lookup = cost.lookup
        for kernel, size in (
            (k, size) for k in lookup.kernels for size in lookup.sizes_for(k)
        ):
            best, x = cost.best_processor(kernel, size)
            for alpha in (1.0, 2.0, 4.0, 16.0):
                ptypes = APT(alpha=alpha).placement_types(kernel, size, cost)
                assert best in ptypes
                assert set(ptypes) == {
                    t
                    for t in cost.system.processor_types()
                    if cost.exec_time(kernel, size, t) <= alpha * x
                }

    def test_context_ready_is_built_on_first_access(self, cost):
        engine = EngineCore(cost.system, cost, APT(), APT())
        engine.specs.update({0: _Spec(), 1: _Spec()})
        engine.ready.add(0)
        ctx = engine.make_context()
        engine.ready.add(1)  # before the first read: the context sees it
        assert ctx.ready == (0, 1)


class TestWalkSkipsUnplaceableKernels:
    def test_saturated_stream_prices_each_kernel_at_most_twice(self, monkeypatch):
        """On a saturated stream the ready set grows into the hundreds,
        but APT only prices kernels it can place: a full FCFS scan makes
        ~256 cost-row reads per kernel here, the index at most 2."""
        calls = 0
        read_row = SchedulingContext.cost_row

        def counted(ctx: SchedulingContext, kernel_id: int):
            nonlocal calls
            calls += 1
            return read_row(ctx, kernel_id)

        monkeypatch.setattr(SchedulingContext, "cost_row", counted)
        sim = Simulator(scale_system(), paper_lookup_table())
        result = sim.run_stream(
            streaming_scale_source(1200, seed=0, mean_interarrival_ms=300.0),
            APT(),
            retain_schedule=False,
        )
        n_kernels = result.stream.n_kernels
        assert result.stream.peak_resident_kernels > 200  # really saturated
        assert 0 < calls <= 2 * n_kernels
