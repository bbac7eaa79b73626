"""Scale scenarios: many-processor systems and 10k-kernel streams."""

from __future__ import annotations

import pytest

from repro.core.simulator import Simulator
from repro.core.system import ProcessorType
from repro.data.paper_tables import paper_lookup_table
from repro.experiments.workloads import scale_system, streaming_scale_source
from repro.policies.apt import APT


class TestScaleSystem:
    def test_default_is_twelve_processors(self):
        system = scale_system()
        assert len(system) == 12
        assert len(system.of_type(ProcessorType.CPU)) == 4
        assert len(system.of_type(ProcessorType.GPU)) == 4
        assert len(system.of_type(ProcessorType.FPGA)) == 4

    def test_counts_and_rate_are_knobs(self):
        system = scale_system(n_cpu=1, n_gpu=6, n_fpga=2, transfer_rate_gbps=4.0)
        assert len(system) == 9
        assert system.default_rate_gbps == 4.0


def merged_scale_stream(**params):
    """The scale stream's merged ``(DFG, arrivals)`` form."""
    return streaming_scale_source(**params).materialize().merged()


class TestStreamingScaleWorkload:
    def test_total_kernel_count_reaches_target(self):
        dfg, arrivals = merged_scale_stream(n_kernels=500, seed=1)
        assert len(dfg) >= 500
        assert len(dfg) < 500 + 20  # overshoot bounded by one application
        assert set(arrivals) == set(dfg.kernel_ids())

    def test_deterministic_for_a_seed(self):
        a_dfg, a_arr = merged_scale_stream(n_kernels=300, seed=9)
        b_dfg, b_arr = merged_scale_stream(n_kernels=300, seed=9)
        assert a_dfg.edges() == b_dfg.edges()
        assert a_arr == b_arr
        assert [a_dfg.spec(k) for k in a_dfg.kernel_ids()] == [
            b_dfg.spec(k) for k in b_dfg.kernel_ids()
        ]

    def test_seed_changes_the_stream(self):
        a_dfg, _ = merged_scale_stream(n_kernels=300, seed=1)
        b_dfg, _ = merged_scale_stream(n_kernels=300, seed=2)
        assert [a_dfg.spec(k) for k in a_dfg.kernel_ids()] != [
            b_dfg.spec(k) for k in b_dfg.kernel_ids()
        ]

    def test_mixes_application_shapes(self):
        stream = streaming_scale_source(n_kernels=300, seed=5).materialize()
        names = {a.dfg.name.rsplit("_", 1)[-1] for a in stream}
        assert {"t1", "fj", "pipe"} <= names

    def test_rejects_tiny_target(self):
        with pytest.raises(ValueError):
            streaming_scale_source(n_kernels=4)

    def test_simulates_end_to_end_on_scale_system(self):
        dfg, arrivals = merged_scale_stream(
            n_kernels=200, seed=2, mean_interarrival_ms=1000.0
        )
        sim = Simulator(scale_system(), paper_lookup_table())
        result = sim.run(dfg, APT(alpha=4.0), arrivals=arrivals)
        assert len(result.schedule) == len(dfg)
        result.schedule.validate(dfg)
