"""Seed robustness: the headline result must not be a seed artifact.

The evaluation graphs are regenerated (the paper's are unpublished), so
the α = 4 improvement claim is re-checked across several unrelated seeds
on reduced suites.  Slow-ish (~10 s) but it guards the core conclusion.
"""

import pytest

from repro.experiments.runner import ExperimentRunner, paper_spec
from repro.experiments.sweep import PolicySpec

SEEDS = (7, 1234, 99991)


def met_and_apt(seed, alpha):
    """MET's and APT(α)'s records over the first five Type-2 graphs."""
    runner = ExperimentRunner()
    policies = [PolicySpec.of("met"), PolicySpec.of("apt", alpha=alpha)]
    [[met, apt]] = runner.run([paper_spec(2, policies, seed, 4.0, n_graphs=5)])
    return runner, met, apt


@pytest.mark.parametrize("seed", SEEDS)
def test_alpha4_improvement_positive_across_seeds(seed):
    runner, met_records, apt_records = met_and_apt(seed, 4.0)
    met = runner.mean([r.makespan for r in met_records])
    apt = runner.mean([r.makespan for r in apt_records])
    improvement = (met - apt) / met * 100.0
    assert improvement > 3.0, f"seed {seed}: improvement only {improvement:.2f}%"


@pytest.mark.parametrize("seed", SEEDS)
def test_alpha_small_stays_met_like_across_seeds(seed):
    _, met_records, apt_records = met_and_apt(seed, 1.5)
    met = [r.makespan for r in met_records]
    apt = [r.makespan for r in apt_records]
    assert all(abs(a - m) / m < 0.03 for a, m in zip(apt, met))
