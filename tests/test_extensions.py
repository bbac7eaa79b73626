"""Tests for the extension experiments (streaming, extended pool, energy)."""

import pytest

from repro.experiments.extensions import (
    energy_comparison,
    extended_policy_comparison,
    streaming_load_sweep,
)
from repro.experiments.sweep import SweepEngine


@pytest.fixture(scope="module")
def engine():
    return SweepEngine()


class TestStreamingLoadSweep:
    @pytest.fixture(scope="class")
    def table(self, engine):
        return streaming_load_sweep(engine=engine, n_applications=10)

    def test_covers_all_dynamic_policies(self, table):
        assert len(table.rows) == 8
        assert "HEFT" not in table.column("Policy")

    def test_heavier_load_never_faster_for_apt(self, table):
        apt_row = next(r for r in table.rows if r[0] == "APT")
        # lighter load (larger inter-arrival) stretches the stream span,
        # so makespan under light load is at least the saturated one.
        assert apt_row[1] >= apt_row[3] - 1e-6

    def test_apt_at_least_matches_met_under_saturation(self, table):
        apt = next(r for r in table.rows if r[0] == "APT")
        met = next(r for r in table.rows if r[0] == "MET")
        assert apt[3] <= met[3] * 1.01

    def test_deterministic(self, engine):
        a = streaming_load_sweep(engine=engine, n_applications=6)
        b = streaming_load_sweep(engine=engine, n_applications=6)
        assert a.rows == b.rows


class TestExtendedPolicyComparison:
    @pytest.fixture(scope="class")
    def table(self, engine):
        return extended_policy_comparison(engine=engine)

    def test_all_policies_present(self, table):
        assert set(table.column("Policy")) == {
            "APT", "MET", "MINMIN", "MAXMIN", "SUFFERAGE", "CPOP", "HEFT", "PEFT",
        }

    def test_apt_beats_the_batch_heuristics(self, table):
        values = {r[0]: (r[1], r[2]) for r in table.rows}
        for name in ("MINMIN", "MAXMIN", "SUFFERAGE"):
            assert values["APT"][0] < values[name][0]
            assert values["APT"][1] < values[name][1]

    def test_all_values_positive(self, table):
        for row in table.rows:
            assert row[1] > 0 and row[2] > 0


class TestEnergyComparison:
    @pytest.fixture(scope="class")
    def table(self, engine):
        return energy_comparison(engine=engine)

    def test_columns(self, table):
        assert table.headers == (
            "Policy", "mean makespan (ms)", "mean energy (J)", "mean EDP (J·s)",
        )

    def test_apt_edp_beats_met(self, table):
        values = {r[0]: r for r in table.rows}
        assert values["APT"][3] < values["MET"][3]

    def test_edp_consistent_with_definition(self, table):
        # EDP per graph uses per-graph makespans, so the suite-mean EDP is
        # at least mean_energy × (min makespan) and at most × (max);
        # sanity: it is within 10x of mean_energy × mean_makespan.
        for row in table.rows:
            _, mk, joules, edp = row
            approx = joules * mk / 1e3
            assert approx / 10 < edp < approx * 10
