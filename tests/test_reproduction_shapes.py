"""Integration tests asserting the paper's *qualitative* results.

These are the acceptance criteria of docs/architecture.md ("Reproduction notes"): the regenerated random
graphs can't match the paper's milliseconds, but the relationships its
conclusions rest on must hold.  One shared engine memoizes the underlying
simulations across tests.
"""

import pytest

from repro.analysis.stats import improvement_vs_second_best
from repro.experiments.runner import paper_spec
from repro.experiments.scenarios import run_scenarios
from repro.experiments.sweep import PolicySpec, SweepEngine

RATE = 4.0


@pytest.fixture(scope="module")
def engine():
    return SweepEngine()


@pytest.fixture(scope="module", params=[1, 2], ids=["type1", "type2"])
def dfg_type(request):
    return request.param


@pytest.fixture(scope="module")
def suite(engine, dfg_type):
    """``suite(name, rate, alpha=None)``: one policy's results over the
    Type-``dfg_type`` evaluation suite."""

    def run(name, rate, alpha=None):
        policy = PolicySpec.of(name, alpha=alpha) if alpha is not None else PolicySpec.of(name)
        spec = paper_spec(dfg_type, [policy], rate_gbps=rate)
        [outcome] = run_scenarios([spec], engine)
        return list(outcome.results)

    return run


class TestAPTvsMET:
    def test_alpha_small_mimics_met(self, suite):
        """Thesis §4.2: at α=1.5 APT and MET makespans are (near) equal.

        Not byte-identical — the paper's own Table 15 shows a couple of
        NW kernels taking an alternative even at α=1.5 (GPU time 146 ms ≤
        1.5 × 112 ms), so we assert every graph within 2 % and most exactly
        tied."""
        apt = suite("apt", RATE, alpha=1.5)
        met = suite("met", RATE)
        assert all(
            abs(a.makespan - m.makespan) / m.makespan < 0.02
            for a, m in zip(apt, met)
        )
        ties = sum(
            1 for a, m in zip(apt, met) if a.makespan == pytest.approx(m.makespan)
        )
        assert ties >= 4

    def test_alpha_4_beats_met_on_most_graphs(self, suite):
        """Thesis Tables 8/10: APT(α=4) wins ≥ 9 of 10 graphs."""
        apt = suite("apt", RATE, alpha=4.0)
        met = suite("met", RATE)
        wins = sum(1 for a, m in zip(apt, met) if a.makespan < m.makespan - 1e-9)
        assert wins >= 9

    def test_alpha_4_mean_improvement_is_double_digit_ballpark(self, suite):
        """Headline: ~16-18% mean improvement vs the 2nd-best dynamic
        policy; we accept anything solidly positive (>5%)."""
        values = {
            name: [r.makespan for r in suite(name, RATE)]
            for name in ("met", "spn", "ss", "ag")
        }
        values["apt"] = [
            r.makespan for r in suite("apt", RATE, alpha=4.0)
        ]
        impr, second = improvement_vs_second_best(values, "apt")
        assert impr > 5.0
        assert second == "met"  # MET is the runner-up, as in the paper

    def test_lambda_improvement_exceeds_exec_improvement(self, suite):
        """Thesis §4.4: the λ gain over MET is larger than the makespan
        gain — "the percentage of improvement is higher for λ than for the
        overall execution time".  (MET is the paper's effective runner-up
        for both metrics; see docs/architecture.md for the one λ-ordering
        deviation our accounting produces on Type-1.)"""
        met = suite("met", RATE)
        apt = suite("apt", RATE, alpha=4.0)
        def mean(xs):
            return sum(xs) / len(xs)

        impr_exec = 1 - mean([r.makespan for r in apt]) / mean(
            [r.makespan for r in met]
        )
        impr_lam = 1 - mean([r.total_lambda for r in apt]) / mean(
            [r.total_lambda for r in met]
        )
        assert impr_lam > impr_exec > 0


class TestAlphaValley:
    def test_makespan_valley_bottoms_at_alpha_4(self, suite):
        """Figures 7/9: mean makespan decreases to α=4 then rises."""
        means = {}
        for alpha in (1.5, 4.0, 16.0):
            recs = suite("apt", RATE, alpha=alpha)
            means[alpha] = sum(r.makespan for r in recs) / len(recs)
        assert means[4.0] < means[1.5]
        assert means[4.0] < means[16.0]

    def test_lambda_drops_from_alpha_small_to_4(self, suite):
        """Figures 11/12, left side of the valley: flexibility at α=4
        cuts λ well below the MET-like α=1.5 level."""
        means = {}
        for alpha in (1.5, 2.0, 4.0):
            recs = suite("apt", RATE, alpha=alpha)
            means[alpha] = sum(r.total_lambda for r in recs) / len(recs)
        assert means[4.0] < means[2.0]
        assert means[4.0] < means[1.5]

    def test_lambda_valley_right_side_on_type2(self, dfg_type, suite):
        """Figure 12: on dependency-carrying Type-2 graphs, λ rises again
        past the α=4 break point."""
        if dfg_type != 2:
            pytest.skip("right side of the λ valley is a Type-2 phenomenon here")
        means = {}
        for alpha in (4.0, 16.0):
            recs = suite("apt", RATE, alpha=alpha)
            means[alpha] = sum(r.total_lambda for r in recs) / len(recs)
        assert means[4.0] < means[16.0]

    def test_more_alternatives_at_higher_alpha(self, suite):
        """Tables 15/16: α=1.5 triggers almost no alternative assignments,
        α=4 triggers many."""
        low = suite("apt", RATE, alpha=1.5)
        high = suite("apt", RATE, alpha=4.0)
        assert sum(r.n_alternative for r in low) < sum(r.n_alternative for r in high)
        assert sum(r.n_alternative for r in high) >= 10


class TestPolicyOrdering:
    def test_met_apt_dominate_naive_dynamic_policies(self, suite):
        """Tables 8-10: SPN, SS and AG trail MET/APT by a wide margin."""
        def mean(recs):
            return sum(r.makespan for r in recs) / len(recs)

        met = mean(suite("met", RATE))
        for name in ("spn", "ss", "ag"):
            assert mean(suite(name, RATE)) > 1.5 * met

    def test_static_policies_land_near_met(self, suite):
        """HEFT/PEFT sit in MET's neighbourhood (paper: within a few %;
        our idealized planner may fall on either side — see docs/architecture.md)."""
        def mean(recs):
            return sum(r.makespan for r in recs) / len(recs)

        met = mean(suite("met", RATE))
        for name in ("heft", "peft"):
            value = mean(suite(name, RATE))
            assert 0.5 * met < value < 1.5 * met

    def test_transfer_rate_has_second_order_effect(self, suite):
        """Figures 7/9: the 4 vs 8 GB/s curves nearly coincide."""
        m4 = [r.makespan for r in suite("apt", 4.0, alpha=4.0)]
        m8 = [r.makespan for r in suite("apt", 8.0, alpha=4.0)]
        mean4, mean8 = sum(m4) / len(m4), sum(m8) / len(m8)
        assert abs(mean4 - mean8) / mean4 < 0.1
