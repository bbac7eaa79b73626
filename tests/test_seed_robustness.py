"""Seed robustness: the headline result must not be a seed artifact.

The evaluation graphs are regenerated (the paper's are unpublished), so
the α = 4 improvement claim is re-checked across several unrelated seeds
on reduced suites.  Slow-ish (~10 s) but it guards the core conclusion.
"""

import pytest

from repro.experiments.runner import mean, paper_spec
from repro.experiments.scenarios import run_scenarios
from repro.experiments.sweep import PolicySpec

SEEDS = (7, 1234, 99991)


def met_and_apt(seed, alpha):
    """MET's and APT(α)'s results over the first five Type-2 graphs."""
    policies = [PolicySpec.of("met"), PolicySpec.of("apt", alpha=alpha)]
    [outcome] = run_scenarios([paper_spec(2, policies, seed, 4.0, n_graphs=5)])
    return outcome.by_policy()


@pytest.mark.parametrize("seed", SEEDS)
def test_alpha4_improvement_positive_across_seeds(seed):
    met_records, apt_records = met_and_apt(seed, 4.0)
    met = mean([r.makespan for r in met_records])
    apt = mean([r.makespan for r in apt_records])
    improvement = (met - apt) / met * 100.0
    assert improvement > 3.0, f"seed {seed}: improvement only {improvement:.2f}%"


@pytest.mark.parametrize("seed", SEEDS)
def test_alpha_small_stays_met_like_across_seeds(seed):
    met_records, apt_records = met_and_apt(seed, 1.5)
    met = [r.makespan for r in met_records]
    apt = [r.makespan for r in apt_records]
    assert all(abs(a - m) / m < 0.03 for a, m in zip(apt, met))
