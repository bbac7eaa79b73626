"""Unit tests for the system model (processors, links, configuration)."""

import pytest

from repro.core.system import (
    CPU_GPU_FPGA,
    Link,
    Processor,
    ProcessorType,
    SystemConfig,
)


class TestProcessorType:
    def test_values_are_lowercase(self):
        assert ProcessorType.CPU.value == "cpu"
        assert ProcessorType.FPGA.value == "fpga"

    def test_constructible_from_string(self):
        assert ProcessorType("gpu") is ProcessorType.GPU

    def test_str_is_uppercase(self):
        assert str(ProcessorType.CPU) == "CPU"


class TestProcessor:
    def test_fields(self):
        p = Processor("cpu0", ProcessorType.CPU)
        assert p.name == "cpu0"
        assert p.ptype is ProcessorType.CPU

    def test_frozen(self):
        p = Processor("cpu0", ProcessorType.CPU)
        with pytest.raises(AttributeError):
            p.name = "x"

    def test_equality_by_value(self):
        assert Processor("a", ProcessorType.GPU) == Processor("a", ProcessorType.GPU)


class TestLink:
    def test_transfer_time_units(self):
        # 4 GB/s = 4e6 bytes/ms: 4e6 bytes take exactly 1 ms.
        link = Link("a", "b", rate_gbps=4.0)
        assert link.transfer_time_ms(4_000_000) == pytest.approx(1.0)

    def test_zero_bytes_is_free(self):
        assert Link("a", "b", 8.0).transfer_time_ms(0) == 0.0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            Link("a", "b", 0.0)
        with pytest.raises(ValueError):
            Link("a", "b", -1.0)

    def test_doubling_rate_halves_time(self):
        t4 = Link("a", "b", 4.0).transfer_time_ms(10_000_000)
        t8 = Link("a", "b", 8.0).transfer_time_ms(10_000_000)
        assert t4 == pytest.approx(2 * t8)


class TestSystemConfig:
    def test_default_platform_shape(self):
        system = CPU_GPU_FPGA()
        assert len(system) == 3
        assert [p.ptype for p in system] == [
            ProcessorType.CPU,
            ProcessorType.GPU,
            ProcessorType.FPGA,
        ]

    def test_custom_counts(self):
        system = CPU_GPU_FPGA(n_cpu=2, n_gpu=3, n_fpga=0)
        assert len(system.of_type(ProcessorType.CPU)) == 2
        assert len(system.of_type(ProcessorType.GPU)) == 3
        assert len(system.of_type(ProcessorType.FPGA)) == 0

    def test_rejects_empty_system(self):
        with pytest.raises(ValueError):
            SystemConfig([])
        with pytest.raises(ValueError):
            CPU_GPU_FPGA(n_cpu=0, n_gpu=0, n_fpga=0)

    def test_rejects_duplicate_names(self):
        procs = [Processor("x", ProcessorType.CPU), Processor("x", ProcessorType.GPU)]
        with pytest.raises(ValueError, match="duplicate"):
            SystemConfig(procs)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            CPU_GPU_FPGA(transfer_rate_gbps=0.0)

    def test_rate_validation_consistent_everywhere(self):
        # Regression: the default rate and the Link constructor must
        # apply the same rule — reject zero, negative and NaN; accept inf
        # ("never the bottleneck").
        procs = [
            Processor("a", ProcessorType.CPU),
            Processor("b", ProcessorType.GPU),
        ]
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                SystemConfig(procs, transfer_rate_gbps=bad)
            with pytest.raises(ValueError):
                Link("a", "b", bad)
        inf = float("inf")
        system = SystemConfig(procs, transfer_rate_gbps=inf)
        assert system.transfer_time_ms("a", "b", 1e12) == 0.0
        assert Link("a", "b", inf).transfer_time_ms(1e12) == 0.0

    def test_lookup_by_name(self):
        system = CPU_GPU_FPGA()
        assert system["gpu0"].ptype is ProcessorType.GPU
        assert "fpga0" in system
        assert "nope" not in system

    def test_name_layout_matches_of_type_in_declaration_order(self):
        from repro.experiments.scenarios import available_scenarios, get_scenario

        cpu, gpu, fpga = ProcessorType.CPU, ProcessorType.GPU, ProcessorType.FPGA
        mixed = SystemConfig(
            [
                Processor("g0", gpu),
                Processor("c0", cpu),
                Processor("g1", gpu),
                Processor("f0", fpga),
                Processor("c1", cpu),
            ]
        )
        systems = [mixed, CPU_GPU_FPGA(n_cpu=2, n_gpu=3)] + [
            get_scenario(name).build_system() for name in available_scenarios()
        ]
        assert any(system.topology is not None for system in systems)
        for system in systems:
            assert tuple(system.names_by_type) == system.processor_types()
            for ptype in system.processor_types():
                assert system.names_by_type[ptype] == tuple(
                    p.name for p in system.of_type(ptype)
                )
            assert list(system.ptype_by_name.items()) == [
                (p.name, p.ptype) for p in system
            ]
        assert mixed.names_by_type[gpu] == ("g0", "g1")
        assert mixed.names_by_type[cpu] == ("c0", "c1")

    def test_processor_types_in_order(self):
        system = CPU_GPU_FPGA()
        assert system.processor_types() == (
            ProcessorType.CPU,
            ProcessorType.GPU,
            ProcessorType.FPGA,
        )

    def test_same_processor_transfer_is_free(self):
        system = CPU_GPU_FPGA()
        assert system.transfer_time_ms("cpu0", "cpu0", 1_000_000_000) == 0.0

    def test_uniform_rate_applies_between_all_pairs(self):
        system = CPU_GPU_FPGA(transfer_rate_gbps=4.0)
        nbytes = 8_000_000
        expected = 2.0  # 8e6 bytes at 4e6 bytes/ms
        for a in ("cpu0", "gpu0", "fpga0"):
            for b in ("cpu0", "gpu0", "fpga0"):
                if a != b:
                    assert system.transfer_time_ms(a, b, nbytes) == pytest.approx(expected)

    def test_topology_edge_rate_applies_both_ways(self):
        from repro.core.topology import TopoLink, Topology

        procs = [
            Processor("a", ProcessorType.CPU),
            Processor("b", ProcessorType.GPU),
        ]
        system = SystemConfig(
            procs, transfer_rate_gbps=4.0, topology=Topology([TopoLink("a", "b", 8.0)])
        )
        assert system.link("a", "b").rate_gbps == 8.0
        assert system.link("b", "a").rate_gbps == 8.0
        assert system.transfer_time_ms("b", "a", 8e6) == pytest.approx(1.0)

    def test_unknown_link_query_rejected(self):
        system = CPU_GPU_FPGA()
        with pytest.raises(KeyError):
            system.link("cpu0", "ghost")

    def test_describe_mentions_every_processor(self):
        system = CPU_GPU_FPGA()
        text = system.describe()
        for p in system:
            assert p.name in text

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            CPU_GPU_FPGA(n_cpu=-1)
