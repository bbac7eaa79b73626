"""Unit tests for the execution-time lookup table."""

import pytest

from repro.core.lookup import (
    KernelNotFoundError,
    LookupEntry,
    LookupTable,
    scale_heterogeneity,
)
from repro.core.system import ProcessorType

CPU, GPU, FPGA = ProcessorType.CPU, ProcessorType.GPU, ProcessorType.FPGA


def table(entries) -> LookupTable:
    return LookupTable([LookupEntry(*e) for e in entries])


@pytest.fixture
def two_point_table() -> LookupTable:
    # Power-law series: t = 1e-3 * size on CPU, flat on GPU.
    return table(
        [
            ("k", 1_000, CPU, 1.0),
            ("k", 100_000, CPU, 100.0),
            ("k", 1_000, GPU, 5.0),
            ("k", 100_000, GPU, 5.0),
        ]
    )


class TestConstruction:
    def test_entry_validation(self):
        with pytest.raises(ValueError):
            LookupEntry("k", 0, CPU, 1.0)
        with pytest.raises(ValueError):
            LookupEntry("k", 10, CPU, 0.0)

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            table([("k", 10, CPU, 1.0), ("k", 10, CPU, 2.0)])

    def test_kernels_and_ptypes_inventory(self, two_point_table):
        assert two_point_table.kernels == ("k",)
        assert set(two_point_table.ptypes) == {CPU, GPU}

    def test_len_counts_points(self, two_point_table):
        assert len(two_point_table) == 4


class TestExactLookup:
    def test_exact_measurement_returned(self, two_point_table):
        assert two_point_table.time("k", 1_000, CPU) == 1.0
        assert two_point_table.time("k", 100_000, GPU) == 5.0

    def test_unknown_kernel_raises(self, two_point_table):
        with pytest.raises(KernelNotFoundError):
            two_point_table.time("ghost", 1_000, CPU)

    def test_unknown_ptype_series_raises(self, two_point_table):
        with pytest.raises(KernelNotFoundError):
            two_point_table.time("k", 1_000, FPGA)


class TestInterpolation:
    def test_log_log_interpolation_between_points(self, two_point_table):
        # The CPU series is exactly t = size/1000 (a power law with
        # exponent 1), so log-log interpolation must be exact.
        assert two_point_table.time("k", 10_000, CPU) == pytest.approx(10.0)

    def test_interpolation_of_flat_series(self, two_point_table):
        assert two_point_table.time("k", 50_000, GPU) == pytest.approx(5.0)

    def test_extrapolation_above_range_scales_linearly(self, two_point_table):
        assert two_point_table.time("k", 200_000, CPU) == pytest.approx(200.0)

    def test_extrapolation_below_range_scales_linearly(self, two_point_table):
        assert two_point_table.time("k", 500, CPU) == pytest.approx(0.5)

    def test_single_point_series_scales(self):
        t = table([("k", 100, CPU, 10.0)])
        assert t.time("k", 200, CPU) == pytest.approx(20.0)
        assert t.time("k", 50, CPU) == pytest.approx(5.0)

    def test_interpolated_value_between_endpoints(self, two_point_table):
        v = two_point_table.time("k", 31_623, CPU)  # ~sqrt decade midpoint
        assert 1.0 < v < 100.0

    def test_nonpositive_size_rejected(self, two_point_table):
        with pytest.raises(ValueError):
            two_point_table.time("k", -5, CPU)


class TestQueries:
    def test_best_processor(self, synth_lookup):
        ptype, t = synth_lookup.best_processor("fast_gpu", 1_000_000, (CPU, GPU, FPGA))
        assert ptype is GPU and t == 10.0

    def test_best_processor_tie_breaks_by_order(self):
        t = table([("k", 10, CPU, 5.0), ("k", 10, GPU, 5.0)])
        assert t.best_processor("k", 10, (GPU, CPU))[0] is GPU
        assert t.best_processor("k", 10, (CPU, GPU))[0] is CPU

    def test_best_processor_empty_ptypes(self, synth_lookup):
        with pytest.raises(ValueError):
            synth_lookup.best_processor("fast_gpu", 1_000_000, ())

    def test_times_across(self, synth_lookup):
        times = synth_lookup.times_across("fast_cpu", 1_000_000, (CPU, GPU, FPGA))
        assert times == {CPU: 10.0, GPU: 100.0, FPGA: 50.0}

    def test_heterogeneity_ratio(self, synth_lookup):
        assert synth_lookup.heterogeneity("fast_cpu", 1_000_000, (CPU, GPU, FPGA)) == 10.0
        assert synth_lookup.heterogeneity("uniform", 1_000_000, (CPU, GPU, FPGA)) == 1.0

    def test_sizes_for(self, two_point_table):
        assert two_point_table.sizes_for("k") == (1_000, 100_000)
        assert two_point_table.sizes_for("k", CPU) == (1_000, 100_000)

    def test_sizes_for_unknown_kernel(self, two_point_table):
        with pytest.raises(KernelNotFoundError):
            two_point_table.sizes_for("ghost")

    def test_has_kernel(self, two_point_table):
        assert two_point_table.has_kernel("k")
        assert not two_point_table.has_kernel("ghost")


class TestSerialization:
    def test_records_round_trip(self, synth_lookup):
        records = synth_lookup.to_records()
        rebuilt = LookupTable.from_records(records)
        for rec in records:
            assert rebuilt.time(
                rec["kernel"], rec["data_size"], ProcessorType(rec["ptype"])
            ) == pytest.approx(rec["time_ms"])

    def test_json_round_trip(self, synth_lookup, tmp_path):
        path = tmp_path / "lookup.json"
        synth_lookup.to_json(path)
        rebuilt = LookupTable.from_json(path)
        assert len(rebuilt) == len(synth_lookup)
        assert rebuilt.kernels == synth_lookup.kernels

    def test_loaded_and_derived_tables_interpolate(self, two_point_table, tmp_path):
        path = tmp_path / "lookup.json"
        two_point_table.to_json(path)
        other = table([("other", 10, CPU, 1.0)])
        expected = two_point_table.time("k", 10_000, CPU)
        assert expected == pytest.approx(10.0)
        for derived in (
            LookupTable.from_records(two_point_table.to_records()),
            LookupTable.from_json(path),
            two_point_table.merged_with(other),
            scale_heterogeneity(two_point_table, 1.0),
        ):
            assert derived.time("k", 10_000, CPU) == pytest.approx(expected)

    def test_merged_with_disjoint_tables(self):
        a = table([("a", 10, CPU, 1.0)])
        b = table([("b", 10, CPU, 2.0)])
        merged = a.merged_with(b)
        assert merged.time("a", 10, CPU) == 1.0
        assert merged.time("b", 10, CPU) == 2.0

    def test_merged_with_clashing_tables_rejected(self):
        a = table([("a", 10, CPU, 1.0)])
        b = table([("a", 10, CPU, 2.0)])
        with pytest.raises(ValueError):
            a.merged_with(b)

    def test_entries_iterates_all_points(self, synth_lookup):
        assert len(list(synth_lookup.entries())) == len(synth_lookup)
