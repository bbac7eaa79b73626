"""Scale benchmark: incremental vs reference simulator inner loop.

Scenario: the 10k-kernel streaming workload of
:func:`repro.experiments.workloads.streaming_scale_workload` on the
12-processor :func:`~repro.experiments.workloads.scale_system` — far
beyond the paper's 46–157-kernel graphs on 3 processors.  Both engines
must produce bit-for-bit identical schedules; the incremental hot path
(`repro.core.simulator`) must beat the pre-refactor loop
(`repro.core.reference`) by ≥ 3× at full scale.

Two modes:

* **smoke** (default, CI): a 1 200-kernel grid.  Fast enough for every
  CI run; asserts schedule equality and that the incremental loop is not
  slower than the reference — a gross hot-path regression fails CI.
* **full** (``REPRO_SCALE_FULL=1``): the 10 000-kernel acceptance
  scenario with the ≥ 3× wall-clock assertion.

Both modes record wall-clock numbers, so the artifact goes to the
*untracked* ``results/local/`` directory (``simulator_scale.txt`` in
full mode, ``simulator_scale_smoke.txt`` in smoke mode) — committed
``results/`` files carry deterministic model quantities only.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import write_artifact
from repro.core.reference import ReferenceSimulator
from repro.core.simulator import Simulator
from repro.data.paper_tables import paper_lookup_table
from repro.experiments.workloads import scale_system, streaming_scale_workload
from repro.policies.registry import get_policy

FULL = os.environ.get("REPRO_SCALE_FULL", "") == "1"
N_KERNELS = 10_000 if FULL else 1_200
#: wall-clock gates per policy: full scale must show the 3× win; the smoke
#: grid only guards against the incremental loop regressing below the
#: naive one (small scale has less rebuild work to save, and CI runners
#: are noisy).
GATES = {"apt": 3.0 if FULL else 1.0, "met": 3.0 if FULL else 0.8}
ARTIFACT = "simulator_scale.txt" if FULL else "simulator_scale_smoke.txt"
REPEATS = 2


def _best_of(sim, dfg, policy_name, arrivals) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = sim.run(dfg, get_policy(policy_name), arrivals=arrivals)
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_bench_simulator_scale(local_results_dir):
    dfg, arrivals = streaming_scale_workload(n_kernels=N_KERNELS)
    system = scale_system()
    lookup = paper_lookup_table()

    lines = [
        "Simulator scale benchmark — incremental vs reference inner loop",
        f"mode: {'full' if FULL else 'smoke'}   "
        f"workload: {dfg.name} ({len(dfg)} kernels, {dfg.n_edges} edges)   "
        f"system: {len(system)} processors",
        "",
        f"{'policy':<8} {'incremental s':>14} {'reference s':>12} {'speedup':>8}",
    ]
    speedups: dict[str, float] = {}
    for policy_name in ("apt", "met", "ag"):
        t_new, r_new = _best_of(
            Simulator(system, lookup), dfg, policy_name, arrivals
        )
        t_old, r_old = _best_of(
            ReferenceSimulator(system, lookup), dfg, policy_name, arrivals
        )
        assert list(r_new.schedule) == list(r_old.schedule), (
            f"{policy_name}: schedule divergence between engines"
        )
        speedups[policy_name] = t_old / t_new
        lines.append(
            f"{policy_name:<8} {t_new:>14.3f} {t_old:>12.3f} "
            f"{speedups[policy_name]:>7.2f}x"
        )

    lines += [
        "",
        "Engines are asserted bit-for-bit identical on every run above.",
        f"Gates: {', '.join(f'{p} >= {g}x' for p, g in GATES.items())}",
    ]
    write_artifact(local_results_dir, ARTIFACT, "\n".join(lines))

    for policy_name, gate in GATES.items():
        assert speedups[policy_name] >= gate, (
            f"{policy_name}: speedup {speedups[policy_name]:.2f}x below the "
            f"{gate}x gate (see results/local/{ARTIFACT})"
        )
