"""Differential fuzzing of the engine.

Hypothesis generates random scenarios — graph shape, system size,
topology, policy, noise, runtime dynamics, arrival pattern.  Every run
must finish with a schedule that validates against its DFG, and:

* where the pre-refactor :class:`~repro.core.reference.ReferenceSimulator`
  applies (no dynamics, uncontended), the engine must agree with it
  **bit for bit** on the schedule, the metrics and the policy stats
  (``tests/test_golden_corpus.py`` pins fixed draws of the rest of this
  space to recorded digests);
* ``run_stream`` (admission + retirement) must match the merged DFG run
  through ``run``.

Every strategy draw is a plain scalar, so the falsifying example
hypothesis prints on failure *is* the replay recipe: paste the printed
kwargs into :func:`~engine_scenarios.run_scenario` (or re-run with the
printed ``@reproduce_failure`` / ``--hypothesis-seed`` line) to get the
exact same scenario back after shrinking.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reference import ReferenceSimulator
from repro.core.simulator import Simulator
from repro.policies.registry import get_policy

from tests.engine_scenarios import (
    DYNAMICS_COMBOS,
    DYNAMICS_SEED_RANGE,
    N_APPS_RANGE,
    N_RANGE,
    PROCS_RANGE,
    SEED_RANGE,
    SHAPES,
    STREAM_SHAPES,
    TOPOLOGIES,
    assert_same_run,
    build_stream,
    reference_applies,
    run_scenario,
    shipped_policies,
    stream_simulator,
)


def _ints(bounds: tuple[int, int]):
    return st.integers(min_value=bounds[0], max_value=bounds[1])


class TestEngineFuzz:
    @settings(max_examples=50, deadline=None)
    @given(
        shape=st.sampled_from(SHAPES),
        n=_ints(N_RANGE),
        graph_seed=_ints(SEED_RANGE),
        n_cpu=_ints(PROCS_RANGE),
        n_gpu=_ints(PROCS_RANGE),
        n_fpga=_ints(PROCS_RANGE),
        topology=st.sampled_from(TOPOLOGIES),
        policy_name=st.sampled_from(shipped_policies()),
        noise=st.booleans(),
        dynamics_combo=st.sampled_from(sorted(DYNAMICS_COMBOS)),
        dynamics_seed=_ints(DYNAMICS_SEED_RANGE),
        arrival_seed=_ints(SEED_RANGE),
        staggered=st.booleans(),
    )
    def test_engine_agrees_with_reference(self, **scenario):
        run = run_scenario(Simulator, **scenario)
        if reference_applies(scenario["topology"], scenario["dynamics_combo"]):
            ref = run_scenario(ReferenceSimulator, **scenario)
            assert_same_run(run, ref, "engine vs reference")

    @settings(max_examples=25, deadline=None)
    @given(
        n_apps=_ints(N_APPS_RANGE),
        shapes=st.lists(st.sampled_from(STREAM_SHAPES), min_size=5, max_size=5),
        graph_seed=_ints(SEED_RANGE),
        arrival_seed=_ints(SEED_RANGE),
        policy_name=st.sampled_from(shipped_policies()),
        dynamics_combo=st.sampled_from(sorted(DYNAMICS_COMBOS)),
    )
    def test_stream_matches_merged_run(
        self, n_apps, shapes, graph_seed, arrival_seed, policy_name,
        dynamics_combo,
    ):
        """run_stream (admission + retirement) must reproduce the merged
        DFG's run, dynamics included, on random app streams."""
        stream = build_stream(n_apps, shapes, graph_seed, arrival_seed)
        sim = stream_simulator(dynamics_combo)
        merged, arrivals = stream.merged(name="stream")
        out = sim.run_stream(stream, get_policy(policy_name))
        ref = sim.run(merged, get_policy(policy_name), arrivals=arrivals)
        assert_same_run(out, ref, "stream vs merged")


if __name__ == "__main__":  # pragma: no cover - manual replay helper
    import sys

    sys.exit(pytest.main([__file__, "-v", *sys.argv[1:]]))
